"""The benchmark's workloads: seeded op lists for the kdvtau CLI, with their checks.

A round is one pass over a workload's op list.  Each op is the argument list
of one `kdvtau` call plus a check of what it printed; every draw is
stratified so that any seed gives the same mix of costs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles

# check(returncode, stdout, outputs of the earlier ops of the round) -> None or a reason
Check = Callable[[int, bytes, dict], "str | None"]


@dataclass
class Op:
    key: str
    argv: list[str]
    check: Check


def _ok(rc: int, reason_if_ok: Callable[[], "str | None"]) -> "str | None":
    return f"exit code {rc}" if rc != 0 else reason_if_ok()


# ---------------------------------------------------------------------------
# wk-intersect: one intersection number per op, stratified by tau degree
# ---------------------------------------------------------------------------

# tau degree 6g - 6 + 3n -> ops per round at that degree.  The degree-12 ops (about 1 s
# each, mostly Schur work) dominate wall_s and hold the middle of the ordering, so they
# set op_p50_s too; the cheaper degrees, whose time is half interpreter start-up, vary
# the genus and insertion count.  Degree 15 (10-13 s an op) is left out: on a shared VM
# its time did not follow the host-speed reference that the other ops follow.
INTERSECT_MIX = {6: 1, 9: 1, 12: 4}


def random_spec(rng: random.Random, degree: int) -> tuple[int, ...]:
    """A valid insertion multiset whose tau degree 6g - 6 + 3n is `degree`."""
    shapes = [(g, n) for g in range(4) for n in range(1, 8)
              if 6 * g - 6 + 3 * n == degree and 2 * g - 2 + n > 0]
    g, n = rng.choice(shapes)
    total = 3 * g - 3 + n
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(sorted(b - a for a, b in zip([0] + cuts, cuts + [total])))


def wk_intersect_round(rng: random.Random, cwd: str, tag: str) -> list[Op]:
    ops = []
    for degree, count in INTERSECT_MIX.items():
        for i in range(count):
            spec = random_spec(rng, degree)
            ops.append(Op(
                f"{tag}-d{degree}-{i}",
                ["intersect", ",".join(map(str, spec))],
                lambda rc, out, _, spec=spec: _ok(rc, lambda: oracles.check_intersect(spec, out)),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# point-tau: random points, table + tau + initial data
# ---------------------------------------------------------------------------

# tau degree -> points per (density, height) pair in a round.  The D=12 ops (about 3 s
# each) dominate wall_s; the 12 D=10 ops (about 1 s each) put the median op well inside
# them.  D=9 ops (0.4 s, much of it interpreter start-up) are not used: on a shared VM
# their time did not follow the host-speed reference, so op_p50_s was noisy.
POINT_MIX = {10: 3, 12: 1}


def random_point(rng: random.Random, degree: int, dense: bool, large: bool) -> dict:
    """Point file with tails through lam^-(2D+1).

    Sparse points keep the coefficients at k = 1 mod 3 only (so b_1 != 0 and
    the CLI must normalize); large ones have 7-digit coefficients.
    """
    order = 2 * degree + 1

    def value() -> int:
        v = rng.randrange(10**6, 10**7) if large else rng.randrange(1, 10)
        return v if rng.random() < 0.5 else -v

    def tail() -> list[str]:
        return ["1"] + [str(value()) if dense or k % 3 == 1 else "0" for k in range(1, order + 1)]

    return {"a": {"head": [], "tail_order": order, "tail": tail()},
            "b": {"head": [], "tail_order": order, "tail": tail()}}


def point_tau_round(rng: random.Random, cwd: str, tag: str) -> list[Op]:
    ops = []
    for degree, count in POINT_MIX.items():
        for dense in (False, True):
            for large in (False, True):
                for i in range(count):
                    key = f"{tag}-D{degree}-{'dense' if dense else 'sparse'}-{'large' if large else 'small'}-{i}"
                    point = random_point(rng, degree, dense, large)
                    path = f"{key}.json"
                    with open(os.path.join(cwd, path), "w", encoding="utf-8") as fh:
                        json.dump(point, fh)
                    ops.append(Op(
                        key,
                        ["grassmann", path, "--affine", str(degree - 1), str(degree - 1),
                         "--tau", str(degree), "--initial-data", str(degree - 2)],
                        lambda rc, out, _, p=point, d=degree: _ok(rc, lambda: oracles.check_point_tau(p, d, out)),
                    ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# tables: both affine sources at one table size per band
# ---------------------------------------------------------------------------

# M is drawn from {band, band + 1}: both give the Z table K = M // 2, so seeds cost the same
TABLE_BANDS = (44, 56, 68)


def tables_round(rng: random.Random, cwd: str, tag: str) -> list[Op]:
    ops = []
    for band in TABLE_BANDS:
        size = band + rng.randrange(2)
        argv = ["--max-m", str(size), "--max-n", str(size), "--format", "json"]
        gkey = f"{tag}-band{band}-grassmann"  # keys name the band, so rounds share op kinds
        ops.append(Op(gkey, ["affine", "--source", "grassmann"] + argv,
                      lambda rc, out, _: f"exit code {rc}" if rc else None))
        ops.append(Op(
            f"{tag}-band{band}-zhou", ["affine", "--source", "zhou"] + argv,
            lambda rc, out, done, size=size, gkey=gkey: _ok(
                rc, lambda: oracles.check_tables(size, done[gkey], out)),
        ))
    return ops


# ---------------------------------------------------------------------------
# verify-all: the gate users run, at its default depths
# ---------------------------------------------------------------------------

VERIFY_SUITES = [
    "cq-identity", "kac-schwarz", "z-table-equivalence", "z-recursion",
    "z-generating-series", "two-step-recursion", "coefficient-symmetry", "symmetry",
    "generating-function", "zhou-match", "string-equation", "string-recursion",
    "dimension-filter", "r-matrix-from-loop-matrix", "v-relations",
    "v-from-affine-coordinates", "kdv-flow-1", "kdv-flow-2",
]


def verify_all_round(rng: random.Random, cwd: str, tag: str) -> list[Op]:
    return [Op(f"{tag}-verify-all", ["verify", "all"],
               lambda rc, out, _: oracles.check_verify_all(rc, out, VERIFY_SUITES))]


WORKLOADS = {
    "wk-intersect": wk_intersect_round,
    "point-tau": point_tau_round,
    "tables": tables_round,
    "verify-all": verify_all_round,
}
