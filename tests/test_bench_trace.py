"""Smoke test of the traced benchmark route.

`bench/replay.py` rebinds kdvtau functions by name (`tau.intersection_number`,
`tau.tau_truncated`, `tau.initial_data`, `schur.giambelli_coeff`,
`schur.schur_poly`, `series.series_inverse`, ...), so renaming one of them in
`src/` would make `bench/run.py --trace 1` fail.  This runs the replay on six
CLI calls and checks that it exits 0 and writes its spans, that the tau build
of `grassmann` reaches the wrapped tau layers, that the Z-table routes reach
`grassmann.z_table_direct` and the loop-matrix builders (which store G as
its graded integer lift; its inverse is solved when a table route first
reads it), and that the R-matrix check reaches
`series.matrix_series_inverse`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import seeded_point_json

ROOT = Path(__file__).resolve().parent.parent


# each replayed call, with the wrapped layers it must reach
CALLS = {
    "intersect 2,3": (),
    "verify cq-identity": (),
    "grassmann POINT --tau 6 --initial-data 4":
        ("schur.giambelli", "tau.assemble", "tau.initial_data"),
    "verify recursion --depth 3": ("grassmann.z_direct", "grassmann.loop_matrix"),
    "affine --source grassmann --max-m 5 --max-n 5": ("grassmann.loop_matrix",),
    "verify rmatrix --depth 2": ("series.inverse",),
}


@pytest.mark.parametrize("argv", [call.split() for call in CALLS])
def test_replay_writes_spans(tmp_path, argv):
    layers = CALLS[" ".join(argv)]
    spans = tmp_path / "spans.json"
    point = tmp_path / "point.json"
    point.write_text(json.dumps(seeded_point_json(1, 21, True, False)))
    argv = [str(point) if arg == "POINT" else arg for arg in argv]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "replay.py"), str(spans), *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["spans"] and doc["calls"]["cli.op"] == 1
    assert doc["self_s"]["cli.op"] >= 0
    for layer in layers:
        assert doc["calls"].get(layer), layer
