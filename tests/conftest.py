"""Shared fixtures: the expensive tables are built once per session."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kdvtau.exactnum import format_rational
from kdvtau.grassmann import (
    AffineTable,
    GrassmannPoint,
    ZTable,
    build_G,
    wk_G,
    z_table_direct,
)
from kdvtau.schur import frobenius, giambelli_coeff
from kdvtau.series import LaurentSeries, MatrixSeries
from kdvtau.tau import TauSeries, tau_truncated
from kdvtau.zhou import rescale_B, zhou_affine_table


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
def zhou_affine30() -> AffineTable:
    return zhou_affine_table(30, 30)


@pytest.fixture(scope="session")
def wk_tau12(wk_ztable15) -> TauSeries:
    return tau_truncated(wk_ztable15, 12)


def certified_degree(report) -> int:
    """The t-degree through which a residual report certifies its verdict,
    read off its depth text "residual certified through t-degree N"."""
    return int(report.depth.rsplit(" ", 1)[1])


def example_point(c: Fraction) -> GrassmannPoint:
    """The worked-example point: a = 1, b = 1 + c lam^-3 (exact series)."""
    a = LaurentSeries.from_dict({0: 1}, None)
    b = LaurentSeries.from_dict({0: 1, -3: c}, None)
    return GrassmannPoint(a, b)


def example_table(c: Fraction, size: int = 12) -> ZTable:
    """The Z table of the worked example, K = L = size // 2 (A_{m,n}, m, n <= size + 1)."""
    p = example_point(c)
    K, L = size // 2, size // 2
    return z_table_direct(build_G(p, K + L + 1), K, L)


def zhou_ztable(half: int) -> ZTable:
    """Zhou's closed-form A_{m,n}, m, n <= 2 half + 1, lifted onto the grades of
    the Witten-Kontsevich loop matrix: a Z table with no entry from the
    Grassmannian recursion (each E_d A_{m,n} must come out an integer)."""
    G = wk_G(2 * half + 1)

    def lift(m: int, n: int) -> int:
        v = rescale_B(m, n) * G.grades[m // 2 + n // 2 + 1]
        assert v.denominator == 1
        return v.numerator

    def block(k: int, l: int) -> tuple[int, ...]:  # the slots of ZTable.affine
        return lift(2 * k + 1, 2 * l), lift(2 * k + 1, 2 * l + 1), lift(2 * k, 2 * l), lift(2 * k, 2 * l + 1)

    rows = tuple(tuple(block(k, l) for l in range(half + 1)) for k in range(half + 1))
    return ZTable(rows, G)


def giambelli_value(mu: tuple[int, ...], table: ZTable, minors: dict) -> Fraction:
    """A_mu: `giambelli_coeff`'s E^k A_mu over E^k, E the grade of the last
    block of the table's series, which the grade of every entry divides."""
    top = table.series.grades[-1]
    arms, legs = frobenius(mu)
    return Fraction(giambelli_coeff(arms, legs, table, top, minors), top ** len(arms))


def det_one_G(seed: int, depth: int = 9) -> MatrixSeries:
    """The loop matrix G_0..G_depth of a seeded normalized point with det G = 1:
    a and the odd part of b are small random rationals, and the even part of b
    is solved from G_22 = (1 + G_12 G_21) / G_11."""
    rng = random.Random(seed)

    def values():
        return [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5, 7, 9))) for _ in range(depth)]

    g11, g21, g12 = [Fraction(1)] + values(), [Fraction(0)] + values(), [Fraction(0)] + values()
    g22 = []
    for k in range(depth + 1):
        num = (k == 0) + sum(g12[i] * g21[k - i] for i in range(k + 1))
        g22.append(num - sum(g11[i] * g22[k - i] for i in range(1, k + 1)))
    a = {-2 * k: g11[k] for k in range(depth + 1)} | {1 - 2 * k: g21[k] for k in range(1, depth + 1)}
    b = {-2 * k: g22[k] for k in range(depth + 1)} | {-2 * k - 1: g12[k] for k in range(depth + 1)}
    point = GrassmannPoint(LaurentSeries.from_dict(a, 2 * depth),
                           LaurentSeries.from_dict(b, 2 * depth + 1))
    return build_G(point, depth)


def seeded_point_json(seed: int, order: int, dense: bool, large: bool) -> dict:
    """Point-file JSON with random tails through lam^-order.

    Dense tails draw every coefficient as a small fraction; sparse ones keep
    only k = 1 mod 3 (so b_1 != 0 and `build_G` reads b in normal form).  Large
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
