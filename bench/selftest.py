"""Self-tests for the benchmark's oracles and workload generators.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

Run from the repository root.  The checker tests run the real CLI on small
inputs, confirm the checker accepts the output, then perturb one value at a
time and confirm each perturbation is rejected.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import factorial, prod

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import VERIFY_SUITES, WORKLOADS, random_point, random_spec  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")


def cli(*args: str, cwd: str | None = None) -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "kdvtau.cli", *args], cwd=cwd, env=env,
                          capture_output=True, check=True)
    return done.stdout


def edit(out: bytes, change) -> bytes:
    doc = json.loads(out)
    change(doc)
    return json.dumps(doc).encode()


def bump(text: str) -> str:
    return str(Fraction(text) + 1)


# ---------------------------------------------------------------------------


def test_dvv_known_values():
    assert oracles.wk_correlator((0, 0, 0)) == 1
    assert oracles.wk_correlator((1,)) == Fraction(1, 24)
    assert oracles.wk_correlator((4,)) == Fraction(1, 1152)
    assert oracles.wk_correlator((7,)) == Fraction(1, 82944)
    for g in range(1, 6):  # <tau_{3g-2}>_g = 1 / (24^g g!)
        assert oracles.wk_correlator((3 * g - 2,)) == Fraction(1, 24**g * factorial(g))
    for ks in [(0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 2), (0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 0, 2, 2)]:
        # genus 0: <tau_k1 .. tau_kn>_0 = (n - 3)! / prod k_i!
        want = Fraction(factorial(len(ks) - 3), prod(factorial(k) for k in ks))
        assert oracles.wk_correlator(ks) == want
    assert oracles.wk_correlator((1, 1)) == Fraction(1, 24)
    assert oracles.wk_correlator((0, 0)) == 0  # dimension constraint fails


def test_intersect_checker():
    spec = (1, 2, 3)
    out = cli("intersect", "1,2,3")
    assert oracles.check_intersect(spec, out) is None
    assert oracles.check_intersect(spec, edit(out, lambda d: d.update(value=bump(d["value"]))))
    assert oracles.check_intersect(spec, edit(out, lambda d: d.update(genus=d["genus"] + 1)))
    assert oracles.check_intersect(spec, edit(out, lambda d: d.update(spec=[1, 2, 4])))


def test_point_tau_checker():
    degree = 6
    point = random_point(random.Random(7), degree, dense=True, large=False)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "p.json"), "w", encoding="utf-8") as fh:
            json.dump(point, fh)
        out = cli("grassmann", "p.json", "--affine", "5", "5", "--tau", "6", "--initial-data", "4", cwd=tmp)
    assert oracles.check_point_tau(point, degree, out) is None
    doc = json.loads(out)
    terms = doc["tau"]["terms"]
    t0_only = next(i for i, (mon, _) in enumerate(terms) if mon == [[0, 3]])
    mixed = next(i for i, (mon, _) in enumerate(terms) if len(mon) > 1)
    high = next(i for i, (mon, _) in enumerate(terms) if any(k >= 2 for k, _ in mon))
    perturbations = {
        "table entry": lambda d: d["affine"]["entries"][3].__setitem__(2, bump(d["affine"]["entries"][3][2])),
        "far table entry": lambda d: d["affine"]["entries"][-1].__setitem__(2, bump(d["affine"]["entries"][-1][2])),
        "t0^3 coefficient": lambda d: d["tau"]["terms"][t0_only].__setitem__(1, bump(terms[t0_only][1])),
        "mixed coefficient": lambda d: d["tau"]["terms"][mixed].__setitem__(1, bump(terms[mixed][1])),
        "t2 coefficient": lambda d: d["tau"]["terms"][high].__setitem__(1, bump(terms[high][1])),
        "initial data": lambda d: d["initial_data"].__setitem__(2, bump(d["initial_data"][2])),
        "dropped term": lambda d: d["tau"]["terms"].pop(mixed),
    }
    for label, change in perturbations.items():
        assert oracles.check_point_tau(point, degree, edit(out, change)), label


def test_tables_checker():
    size = 12
    g = cli("affine", "--source", "grassmann", "--max-m", "12", "--max-n", "12")
    z = cli("affine", "--source", "zhou", "--max-m", "12", "--max-n", "12")
    assert oracles.check_tables(size, g, z) is None

    def nudge(d):
        d["entries"][5][2] = bump(d["entries"][5][2])

    assert oracles.check_tables(size, edit(g, nudge), z)
    assert oracles.check_tables(size, edit(g, nudge), edit(z, nudge))  # same error on both routes
    assert oracles.check_tables(size, g, edit(z, lambda d: d.update(source="grassmann")))
    assert oracles.check_tables(size + 1, g, z)


def test_verify_checker():
    lines = [f"{name}: PASS (depth)" for name in VERIFY_SUITES]
    good = ("\n".join(lines) + "\n").encode()
    assert oracles.check_verify_all(0, good, VERIFY_SUITES) is None
    assert oracles.check_verify_all(1, good, VERIFY_SUITES)
    bad = lines[:]
    bad[4] = bad[4].replace("PASS", "FAIL") + "\n  first failure: x"
    assert oracles.check_verify_all(0, "\n".join(bad).encode(), VERIFY_SUITES)
    assert oracles.check_verify_all(0, "\n".join(lines[:-1]).encode(), VERIFY_SUITES)
    skipped = lines[:]
    skipped[7] = skipped[7].replace("PASS", "SKIP")
    assert oracles.check_verify_all(0, "\n".join(skipped).encode(), VERIFY_SUITES)


def test_workloads_are_seeded_and_stratified():
    def argvs(name, seed):
        with tempfile.TemporaryDirectory() as tmp:
            rng = random.Random(f"{name}:{seed}")
            return [op.argv for op in WORKLOADS[name](rng, tmp, "r0")]

    for name in WORKLOADS:
        assert argvs(name, 1) == argvs(name, 1)
    assert argvs("wk-intersect", 1) != argvs("wk-intersect", 2)

    def degrees(seed):
        specs = [tuple(map(int, argv[1].split(","))) for argv in argvs("wk-intersect", seed)]
        return sorted(sum(2 * k + 1 for k in s) for s in specs)

    assert all(degrees(seed) == [6, 9, 12, 12, 12, 12] for seed in range(20))
    for seed in range(20):
        sizes = sorted(int(argv[4]) for argv in argvs("tables", seed))
        assert [s - s % 2 for s in sizes[::2]] == [44, 56, 68]
    rng = random.Random(3)
    for degree in (6, 9, 12, 15):
        for _ in range(50):
            spec = random_spec(rng, degree)
            assert sum(2 * k + 1 for k in spec) == degree
            assert oracles.wk_correlator(spec) != 0


def test_benchmark_json_matches_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
