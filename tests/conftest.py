"""Shared fixtures: the expensive tables are built once per session."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kdvtau.exactnum import format_rational
from kdvtau.grassmann import (
    AffineTable,
    GrassmannPoint,
    build_G,
    normalize_point,
    wk_G,
    z_table_direct,
)
from kdvtau.series import LaurentSeries
from kdvtau.tau import TauSeries, tau_truncated
from kdvtau.zhou import zhou_affine_table


@pytest.fixture(scope="session")
def wk_G41():
    return wk_G(41)


@pytest.fixture(scope="session")
def wk_ztable20(wk_G41):
    return z_table_direct(wk_G41, 20, 20)


@pytest.fixture(scope="session")
def wk_ztable15(wk_G41):
    return z_table_direct(wk_G41, 15, 15)


@pytest.fixture(scope="session")
def wk_affine31(wk_ztable15) -> AffineTable:
    return wk_ztable15.to_affine_table()


@pytest.fixture(scope="session")
def zhou_affine30() -> AffineTable:
    return zhou_affine_table(30, 30)


@pytest.fixture(scope="session")
def wk_tau12(wk_affine31) -> TauSeries:
    return tau_truncated(wk_affine31, 12)


def certified_degree(report) -> int:
    """The t-degree through which a residual report certifies its verdict,
    read off its depth text "residual certified through t-degree N"."""
    return int(report.depth.rsplit(" ", 1)[1])


def example_point(c: Fraction) -> GrassmannPoint:
    """The worked-example point: a = 1, b = 1 + c lam^-3 (exact series)."""
    a = LaurentSeries.from_dict({0: 1}, None)
    b = LaurentSeries.from_dict({0: 1, -3: c}, None)
    return normalize_point(GrassmannPoint(a, b))


def example_table(c: Fraction, size: int = 12) -> AffineTable:
    p = example_point(c)
    K, L = size // 2, size // 2
    return z_table_direct(build_G(p, K + L + 1), K, L).to_affine_table("custom")


def seeded_point_json(seed: int, order: int, dense: bool, large: bool) -> dict:
    """Point-file JSON with random tails through lam^-order.

    Dense tails draw every coefficient as a small fraction; sparse ones keep
    only k = 1 mod 3 (so b_1 != 0 and the point must be normalized).  Large
    points use integers of up to 8 digits.
    """
    rng = random.Random(seed)

    def value() -> str:
        if large:
            return str(rng.choice((-1, 1)) * rng.randrange(10**6, 10**8))
        return format_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    def tail() -> list[str]:
        return ["1"] + [value() if dense or k % 3 == 1 else "0" for k in range(1, order + 1)]

    return {"a": {"head": [], "tail_order": order, "tail": tail()},
            "b": {"head": [], "tail_order": order, "tail": tail()}}


@pytest.fixture(scope="session")
def example_tau_c1() -> TauSeries:
    return tau_truncated(example_table(Fraction(1)), 12)
