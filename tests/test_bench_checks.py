"""The benchmark's own output checks pass on the current code.

`bench/run.py` checks every op's output with the oracles of `bench/oracles.py`
and reports a run whose outputs fail them as incorrect.  This runs the
benchmark's self-tests, then a slice of each workload's seed-1 first round
through the CLI, and asserts that each op's own check passes.  Nothing under
`bench/` is changed.  The rounds are built and checked in a child process
with `bench/` first on `sys.path`, so `bench/oracles.py` is not shadowed by
`tests/oracles.py`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# workload -> (a substring of the op keys run, how many ops of a round have it)
SLICE = {
    "wk-intersect": ("", 6),
    "point-tau": ("-D10-sparse-small-", 3),
    "tables": ("-band44-", 2),  # the grassmann op, then the zhou op checked against it
    "verify-all": ("", 1),
}

# argv: bench dir, src dir, SLICE as JSON; prints {workload: {op key: check result}}
CHILD = """
import json, os, random, subprocess, sys
bench, src, picks = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, bench)
from workloads import WORKLOADS
report = {}
for name, (part, _) in picks.items():
    done, report[name] = {}, {}
    for op in WORKLOADS[name](random.Random(f"{name}:1"), os.getcwd(), "r0"):
        if part in op.key:
            proc = subprocess.run([sys.executable, "-m", "kdvtau.cli", *op.argv],
                                  env=dict(os.environ, PYTHONPATH=src), capture_output=True)
            done[op.key] = proc.stdout
            report[name][op.key] = op.check(proc.returncode, proc.stdout, done)
print(json.dumps(report))
"""


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_seed_one_round_passes_its_own_checks(tmp_path):
    proc = subprocess.run([sys.executable, "-c", CHILD, str(BENCH), str(ROOT / "src"), json.dumps(SLICE)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert {name: len(checks) for name, checks in report.items()} == {name: n for name, (_, n) in SLICE.items()}
    assert {key: why for checks in report.values() for key, why in checks.items() if why is not None} == {}
