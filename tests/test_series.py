from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kdvtau import series
from kdvtau.errors import InsufficientDepthError, NonUnitError, NotNormalizedError
from kdvtau.grassmann import _kac_schwarz, build_G, point_from_json, wk_point, z_table_direct, z_table_recursive
from kdvtau.spin3 import r_matrix, v_table

from conftest import det_one_G, seeded_point_json
from test_golden import POINTS
from oracles import (_matmul, block_sum, lifted_inverse, lifted_quotient, lifted_z_direct, lifted_z_recursive,
                     loop_inverse, rows)
from kdvtau.series import (
    LaurentSeries,
    MatrixSeries,
    _product_window,
    block_sums,
    format_block,
    linear_quotient,
    lower,
    matrix_series_inverse,
    series_from_json,
    series_inverse,
    series_to_json,
)


F = Fraction
EYE, ZERO = (1, 0, 0, 1), (0, 0, 0, 0)


def S(data, order):
    return LaurentSeries.from_dict({e: Fraction(v) for e, v in data.items()}, order)


def convolve(a: LaurentSeries, b: LaurentSeries, window: int | None = None) -> dict:
    """The nonzero coefficients {e: value} of the product a b, at e >= -window."""
    out = {}
    for e1, v1 in a.coeffs:
        for e2, v2 in b.coeffs:
            if window is None or e1 + e2 >= -window:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v != 0}


def product_window(a: LaurentSeries, b: LaurentSeries) -> int | None:
    h_a, h_b = a.max_exponent, b.max_exponent
    return _product_window(a.tail_order, None if h_a is None else -h_a,
                           b.tail_order, None if h_b is None else -h_b)


# ---------------------------------------------------------------------------
# the window of a product
# ---------------------------------------------------------------------------


def test_mul_window_formula():
    # truncated tail times a series with a head: the head eats validity
    assert product_window(S({0: 1, -1: 2}, 5), S({2: 1}, None)) == 3  # O_a - h_b = 5 - 2
    assert product_window(S({0: 1}, 4), S({0: 1}, 7)) == 4
    assert product_window(S({0: 1}, None), S({-1: 1}, None)) is None
    # two zero series: lam^-3 * lam^-4 = lam^-7 is the first unknown term
    assert product_window(S({}, 2), S({}, 3)) == 6


small_rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)
)


@st.composite
def filled_series(draw):
    """(s, filled): s known through lam^-O, O in 0..5, with up to four terms
    (none: the zero series), and an exact series equal to s on that window
    with random "unknown" coefficients at lam^-(O+1) .. lam^-(O+6)."""
    order = draw(st.integers(0, 5))
    exps = draw(st.lists(st.integers(-order, 3), max_size=4, unique=True))
    known = {e: draw(small_rationals) for e in exps}
    unknown = {-order - 1 - i: draw(small_rationals) for i in range(draw(st.integers(0, 6)))}
    return LaurentSeries.from_dict(known, order), LaurentSeries.from_dict({**known, **unknown}, None)


@settings(max_examples=200, deadline=None)
@given(filled_series(), filled_series())
@example((S({}, 2), S({-3: 1}, None)), (S({}, 3), S({-4: 1}, None)))  # zero x zero
def test_product_window_is_sound(x, y):
    """Every coefficient inside the window `_product_window` reports for a
    product is the coefficient of the product of any completions of the factors."""
    (a, filled_a), (b, filled_b) = x, y
    window = product_window(a, b)
    full = convolve(filled_a, filled_b, window)
    assert convolve(a, b, window) == full


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_inverse_one():
    one = S({0: 1}, 5)
    assert series_inverse(one) == one


def test_inverse_geometric():
    a = S({0: 1, -1: 1}, 4)
    assert series_inverse(a) == S({0: 1, -1: -1, -2: 1, -3: -1, -4: 1}, 4)


def test_inverse_geometric_even():
    # independent oracle: 1/(1 - 2 x^2) = sum 2^k x^(2k)
    a = S({0: 1, -2: -2}, 8)
    inv = series_inverse(a)
    for k in range(5):
        assert inv.coeff(-2 * k) == 2**k
        if 2 * k + 1 <= 8:
            assert inv.coeff(-(2 * k + 1)) == 0


def test_inverse_requires_unit():
    with pytest.raises(NonUnitError):
        series_inverse(S({0: 2}, 3))
    with pytest.raises(NonUnitError):
        series_inverse(S({1: 1, 0: 1}, 3))
    with pytest.raises(NonUnitError):
        series_inverse(S({0: 1}, None))  # exact input needs a target order


@st.composite
def unit_series(draw, order=8):
    data = {0: Fraction(1)}
    for e in range(1, order + 1):
        data[-e] = draw(small_rationals)
    return LaurentSeries.from_dict(data, order)


@given(unit_series())
@settings(max_examples=40)
def test_inverse_is_right_inverse_through_window(a):
    inv = series_inverse(a)
    assert inv.tail_order == product_window(a, inv) == a.tail_order
    assert convolve(a, inv, a.tail_order) == {0: 1}


def truncated(a: LaurentSeries, order: int) -> LaurentSeries:
    """a with the coefficients below lam^-order forgotten and the window shrunk."""
    return LaurentSeries.from_dict({e: v for e, v in a.coeffs if e >= -order}, order)


@given(unit_series())
@settings(max_examples=30)
def test_truncation_soundness(a):
    """Recomputing at higher input truncation never changes a previously
    reported coefficient (the inverse, and the differential operator S, which
    costs one order: known through lam^-5, S a is known through lam^-4)."""
    shallow = truncated(a, 5)
    deep_inv, shallow_inv = series_inverse(a), series_inverse(shallow)
    for e in range(0, 6):
        assert deep_inv.coeff(-e) == shallow_inv.coeff(-e)
    deep_ks, shallow_ks = _kac_schwarz(a.coeffs), _kac_schwarz(shallow.coeffs)
    for e in range(-4, 2):
        assert deep_ks.get(e, 0) == shallow_ks.get(e, 0)


# ---------------------------------------------------------------------------
# the Kac-Schwarz operator S = (1/lam) d/dlam - 1/(2 lam^2) - lam
# ---------------------------------------------------------------------------


def nonzero(coeffs: dict) -> dict:
    return {e: v for e, v in coeffs.items() if v}


def test_kac_schwarz_on_one():
    assert nonzero(_kac_schwarz([(0, F(1))])) == {1: -1, -2: F(-1, 2)}


def test_kac_schwarz_on_inverse_cube():
    assert nonzero(_kac_schwarz([(-3, F(1))])) == {-2: -1, -5: F(-7, 2)}


def test_kac_schwarz_q_relation_coefficientwise():
    # q = -(1/lam) S c through lam^-18, the window of c and q
    p = wk_point(18)
    derived_q = {e - 1: -v for e, v in _kac_schwarz(p.a.coeffs).items() if e >= -17}
    assert nonzero(derived_q) == dict(p.b.coeffs)


def test_kac_schwarz_ode_residual_zero():
    # (S^2 - lam^2) c = 0 through lam^-19, two orders short of the window of c
    c = wk_point(21).a
    residual = _kac_schwarz(_kac_schwarz(c.coeffs).items())
    for e, v in c.coeffs:
        residual[e + 2] -= v
    assert nonzero({e: v for e, v in residual.items() if e >= -19}) == {}
    assert nonzero(residual)  # below the window, the unknown c_8 would enter


def test_window_never_extended():
    s = S({0: 1}, 3)
    with pytest.raises(InsufficientDepthError):
        s.coeff(-4)


# ---------------------------------------------------------------------------
# matrix series
# ---------------------------------------------------------------------------


def test_matrix_inverse_identity():
    eye = MatrixSeries.from_blocks((EYE,) + (ZERO,) * 4)
    inv = matrix_series_inverse(eye)
    assert inv.blocks(4) == [EYE] + [ZERO] * 4
    assert all(type(v) is Fraction for b in inv.blocks(4) for v in b)


def test_matrix_inverse_nilpotent():
    G = MatrixSeries.from_blocks((EYE, (0, 3, 0, 0)) + (ZERO,) * 3)
    U = matrix_series_inverse(G)
    assert U.block(1) == (0, -3, 0, 0)
    assert U.blocks(4)[2:] == [ZERO] * 3


def test_matrix_inverse_wk_blocks():
    from kdvtau.grassmann import wk_G

    G = wk_G(6)
    U = matrix_series_inverse(G)
    assert U.block(1) == tuple(-v for v in G.block(1))
    assert U.block(2) == (0, 0, F(5, 24), 0)
    assert U.block(3) == (F(-455, 1152), 0, 0, F(385, 1152))
    # G U = I, block by block, in plain Fractions
    assert [rows(b) for b in U.blocks(6)] == loop_inverse([rows(b) for b in G.blocks(6)])


def test_wk_loop_matrix_is_lifted_and_inverted_once(monkeypatch):
    from kdvtau.grassmann import wk_G

    G = wk_G(8)
    assert wk_G(8) is G
    G = MatrixSeries(G.grades, G.lifted)  # a fresh object solves its own inverse, once
    solved = []
    kernel = series.block_sums
    monkeypatch.setattr(series, "block_sums", lambda *a: solved.append(1) or kernel(*a))
    assert "inverse" not in vars(G)
    U = matrix_series_inverse(G)
    assert U.tail_order == 8 and matrix_series_inverse(G, 20) == U  # capped at the window of G
    short = matrix_series_inverse(G, 5)
    assert short.tail_order == 5 and short.blocks(5) == U.blocks(5)
    assert G.inverse is G.inverse and len(solved) == 8  # one kernel call per inverse block
    assert U.grades == G.grades and U.lifted == G.inverse  # on the grades of G, unreduced


def test_matrix_series_window():
    G = MatrixSeries.from_blocks((EYE, (0, 3, 0, 0), ZERO, ZERO))
    assert G.tail_order == 3 and G.block(3) == ZERO
    with pytest.raises(InsufficientDepthError):
        G.block(4)


# entries drawn from 0, small +-p/q and numerators of about 300 bits, so that
# blocks have random zero patterns, as Witten-Kontsevich blocks do
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(lambda sign, n, d: Fraction(sign * n, d), st.sampled_from([1, -1]),
              st.integers(2**299, 2**301), st.integers(1, 2**20)),
)
BLOCK = st.tuples(ENTRY, ENTRY, ENTRY, ENTRY)


@pytest.mark.parametrize("sign", [1, -1])
def test_linear_quotient_divides_by_x_minus_sign_y(sign):
    # L(x) R(y) - I vanishes at y = sign x for L(x) = G(x), R = G^-1 (sign 1)
    # and L(x) = G^-1(-x), R = G (sign -1), on a lift with non-multiplicative
    # grades; the quotient Q times x - sign y gives back every numerator block
    size = 3
    G = build_G(point_from_json(seeded_point_json(*POINTS["POINT5"])), 2 * size + 1)
    g, u, ratios = G.lifted, G.inverse, G.ratios
    left, right = (g, u) if sign > 0 else ([b if i % 2 == 0 else tuple(-v for v in b) for i, b in enumerate(u)], g)
    quotient, remainder = linear_quotient(left, right, ratios, sign, size)
    assert remainder is None
    for i in range(size + 1):
        for j in range(size + 1 - i):
            if i or j:
                (n,) = block_sums((ratios[i + j][i],), (left[i],), (right[j],))
                shifted = [quotient[i - 1][j] if i else (0, 0, 0, 0), quotient[i][j - 1] if j else (0, 0, 0, 0)]
                assert n == tuple(a - sign * b for a, b in zip(*shifted)), (i, j)
    # a block of L moved at x^5 is reported on anti-diagonal 5, with the sum it leaves
    moved = list(left)
    moved[5] = tuple(v + 1 for v in moved[5])
    assert linear_quotient(moved, right, ratios, sign, size) == (None, (5, (sign,) * 4))


@settings(max_examples=200, deadline=None)
@given(BLOCK, BLOCK, BLOCK)
def test_lifted_block_products_lower_to_fraction_products(x1, x2, x3):
    # X_1 X_2 lifted at grade 3 is ratios[3][1] x_1 x_2; lowered at E_3 it is
    # the product of the exact blocks, entry by entry
    G = MatrixSeries.from_blocks((EYE, x1, x2, x3))
    assert G.blocks(3) == [EYE, x1, x2, x3]
    assert all(type(v) is Fraction for b in G.blocks(3) for v in b)
    (product,) = block_sums((G.ratios[3][1],), (G.lifted[1],), (G.lifted[2],))
    assert rows(lower(product, G.grades[3])) == _matmul(rows(x1), rows(x2))


def test_format_block_prints_rows_of_exact_entries():
    assert format_block((F(1, 2), 0, -3, F(-5, 24))) == "[[1/2, 0], [-3, -5/24]]"
    assert format_block(EYE) == "[[1, 0], [0, 1]]"


def test_matrix_inverse_requires_identity_leading_block():
    with pytest.raises(NotNormalizedError, match=r"^leading block must be the identity, got "
                                                 r"\[\[2, 0\], \[0, 1/3\]\]$"):
        MatrixSeries.from_blocks(((2, 0, 0, F(1, 3)),) + (ZERO,) * 3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_series_json_round_trip():
    s = S({2: Fraction(1, 3), 0: 1, -1: Fraction(-5, 24), -4: 2}, 6)
    doc = series_to_json(s)
    assert doc["tail_order"] == 6
    assert doc["head"] == [[2, "1/3"]]
    assert doc["tail"][0] == "1" and doc["tail"][1] == "-5/24"
    assert series_from_json(doc) == s


@pytest.mark.parametrize("head,tail", [
    ([], ["1", "0"]),  # tail_order 2 needs three entries: lam^-2 would be certified as 0
    ([], ["1", "0", "0", "0"]),
    ([[-1, "5"]], ["1", "0", "0"]),  # would be added into a_1
    ([[0, "1"]], ["0", "0", "0"]),
    ([[2, "1"], [2, "-1"]], ["1", "0", "0"]),
])
def test_series_json_rejects_what_the_file_does_not_state(head, tail):
    with pytest.raises(ValueError):
        series_from_json({"head": head, "tail_order": 2, "tail": tail})


def test_series_json_respects_window():
    s = S({0: 1}, 3)
    with pytest.raises(InsufficientDepthError):
        series_to_json(s, tail_order=5)


# ---------------------------------------------------------------------------
# the running-totals kernel against the per-product reference
# ---------------------------------------------------------------------------


def _exactness_points():
    """Loop matrices G_0..G_25 of four seeded det G = 1 points and of a dense
    seeded point, and G_0..G_10 of golden POINT5, whose grades are not
    multiplicative (E_2 != E_1^2)."""
    yield from (det_one_G(seed, 25) for seed in range(4))
    yield build_G(point_from_json(seeded_point_json(7, 51, True, False)), 25)
    yield build_G(point_from_json(seeded_point_json(*POINTS["POINT5"])), 10)


@pytest.mark.parametrize("G", _exactness_points(), ids=["det1-0", "det1-1", "det1-2", "det1-3", "dense", "POINT5"])
def test_block_sums_routes_equal_the_per_product_reference(G):
    n = G.tail_order
    g, ratios = G.lifted, G.ratios
    fresh = MatrixSeries(G.grades, g)
    assert fresh.inverse == lifted_inverse(g, ratios)
    u = fresh.inverse
    K = n // 3
    for max_k, max_l in [(K, n - 1 - K), (n - 1 - K, K), (0, n - 1), (n - 1, 0)]:
        assert z_table_direct(G, max_k, max_l).lifted == lifted_z_direct(g, ratios, u, max_k, max_l)
        corner = lifted_z_recursive(g, ratios, max_k + max_l + 1)[: max_k + 1]
        assert z_table_recursive(G, max_k, max_l).lifted == tuple(row[: max_l + 1] for row in corner)
    assert z_table_recursive(G).lifted == lifted_z_recursive(g, ratios, n)
    size = (n - 1) // 2
    minus = [b if i % 2 == 0 else tuple(-v for v in b) for i, b in enumerate(u)]
    for left, right, sign in [(g, u, 1), (minus, g, -1), (g, g, 1), (g, g, -1)]:
        assert linear_quotient(left, right, ratios, sign, size) == lifted_quotient(left, right, ratios, sign, size)


@pytest.mark.parametrize("size", [1, 4, 7, 12])
def test_v_table_equals_the_per_product_reference(size):
    R = r_matrix(2 * size + 1)
    quotient, remainder = lifted_quotient([(d, b, c, a) for a, b, c, d in R.lifted], R.lifted, R.ratios, -1, size)
    assert remainder is None
    assert v_table(size).lifted == tuple(
        tuple(q if (k + l) % 2 == 0 else tuple(-v for v in q) for l, q in enumerate(row))
        for k, row in enumerate(quotient))


def test_block_sums_are_the_running_totals_of_block_sum():
    blocks = [(k, -2 * k, k * k - 3, 5 - k) for k in range(6)]
    coeffs = [3, -1, 4, 1, -5, 9]
    start = (7, 0, -2, 1)
    totals = block_sums(coeffs, blocks, blocks[::-1], start)
    assert totals == [block_sum(zip(coeffs[: n + 1], blocks, blocks[::-1]), start) for n in range(6)]
    assert block_sums(coeffs[:2], blocks, blocks) == block_sums(coeffs, blocks[:2], blocks)  # the shortest
    assert block_sums((), blocks, blocks, start) == []
