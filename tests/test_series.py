from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kdvtau import series
from kdvtau.errors import InsufficientDepthError, NonUnitError, NotNormalizedError
from kdvtau.grassmann import wk_point

from oracles import _matmul, loop_inverse, rows
from kdvtau.series import (
    LaurentSeries,
    MatrixSeries,
    block_sum,
    constant_series,
    format_block,
    kac_schwarz_apply,
    linear_quotient,
    lower,
    matrix_series_inverse,
    negate_argument,
    series_from_json,
    series_inverse,
    series_to_json,
)


F = Fraction
EYE, ZERO = (1, 0, 0, 1), (0, 0, 0, 0)


def S(data, order):
    return LaurentSeries.from_dict({e: Fraction(v) for e, v in data.items()}, order)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_binomials():
    a = S({0: 1, -1: 1}, None)
    b = S({0: 1, -1: -1}, None)
    assert a * b == S({0: 1, -2: -1}, None)


def test_mul_lam_by_inverse_lam():
    assert S({1: 1}, None) * S({-1: 1}, None) == S({0: 1}, None)


def test_mul_cq_depth6():
    p = wk_point(6)
    prod = p.a * p.b
    assert prod.tail_order == 6
    assert prod.coeff(-3) == Fraction(1, 12)  # c_1 + q_1 = -5/24 + 7/24
    assert prod.coeff(0) == 1


def test_mul_window_formula():
    # truncated tail times a series with a head: the head eats validity
    a = S({0: 1, -1: 2}, 5)
    b = S({2: 1}, None)
    prod = a * b
    assert prod.tail_order == 3  # O_a - h_b = 5 - 2
    a = S({0: 1}, 4)
    b = S({0: 1}, 7)
    assert (a * b).tail_order == 4
    # two zero series: lam^-3 * lam^-4 = lam^-7 is the first unknown term
    assert (S({}, 2) * S({}, 3)).tail_order == 6


def brute_convolution(a: LaurentSeries, b: LaurentSeries) -> dict:
    out = {}
    for e1, v1 in a.coeffs:
        for e2, v2 in b.coeffs:
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v != 0}


small_rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)
)


@st.composite
def exact_series(draw):
    exps = draw(st.lists(st.integers(min_value=-6, max_value=4), max_size=5, unique=True))
    return LaurentSeries.from_dict(
        {e: draw(small_rationals) for e in exps}, None
    )


@given(exact_series(), exact_series())
def test_mul_matches_brute_convolution_on_exact_series(a, b):
    assert dict((a * b).coeffs) == brute_convolution(a, b)


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
    """Every coefficient inside the reported window of a product is the
    coefficient of the product of any completions of the factors."""
    (a, filled_a), (b, filled_b) = x, y
    prod, full = a * b, filled_a * filled_b
    for e in range(-prod.tail_order, 7):
        assert prod.coeff(e) == full.coeff(e), e


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_inverse_one():
    one = constant_series(1, 5)
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
    prod = a * inv
    assert prod.tail_order == a.tail_order
    assert prod == constant_series(1, a.tail_order)


def truncated(a: LaurentSeries, order: int) -> LaurentSeries:
    """a with the coefficients below lam^-order forgotten and the window shrunk."""
    return LaurentSeries.from_dict({e: v for e, v in a.coeffs if e >= -order}, order)


@given(unit_series())
@settings(max_examples=30)
def test_truncation_soundness(a):
    """Recomputing at higher input truncation never changes a previously
    reported coefficient (mul, inverse, and the differential operator)."""
    shallow = truncated(a, 5)
    deep_inv, shallow_inv = series_inverse(a), series_inverse(shallow)
    for e in range(0, 6):
        assert deep_inv.coeff(-e) == shallow_inv.coeff(-e)
    deep_sq, shallow_sq = a * a, shallow * shallow
    for e in range(0, shallow_sq.tail_order + 1):
        assert deep_sq.coeff(-e) == shallow_sq.coeff(-e)
    deep_ks, shallow_ks = kac_schwarz_apply(a), kac_schwarz_apply(shallow)
    for e in range(-shallow_ks.tail_order, 2):
        assert deep_ks.coeff(e) == shallow_ks.coeff(e)


# ---------------------------------------------------------------------------
# argument negation
# ---------------------------------------------------------------------------


def test_negate_argument():
    assert negate_argument(S({0: 1, -1: 1}, 2)) == S({0: 1, -1: -1}, 2)
    assert negate_argument(S({1: 1}, None)) == S({1: -1}, None)
    c = wk_point(6).a
    assert negate_argument(c).coeff(-3) == Fraction(5, 24)


@given(exact_series())
def test_negate_argument_is_involution(a):
    assert negate_argument(negate_argument(a)) == a


# ---------------------------------------------------------------------------
# the differential operator
# ---------------------------------------------------------------------------


def test_kac_schwarz_on_one():
    out = kac_schwarz_apply(constant_series(1, None))
    assert out == S({1: -1, -2: Fraction(-1, 2)}, None)


def test_kac_schwarz_on_inverse_cube():
    out = kac_schwarz_apply(S({-3: 1}, None))
    assert out == S({-2: -1, -5: Fraction(-7, 2)}, None)


def test_kac_schwarz_q_relation_coefficientwise():
    p = wk_point(18)
    derived_q = -kac_schwarz_apply(p.a).shift(-1)
    assert derived_q.difference_support(p.b) == []
    assert derived_q.agreement_window(p.b) == 18


def test_kac_schwarz_ode_residual_zero():
    c = wk_point(21).a
    residual = kac_schwarz_apply(kac_schwarz_apply(c)) - c.shift(2)
    assert residual.tail_order == 19
    assert residual.is_zero()


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
    block_sum = series.block_sum
    monkeypatch.setattr(series, "block_sum", lambda terms: solved.append(1) or block_sum(terms))
    assert "inverse" not in vars(G)
    U = matrix_series_inverse(G)
    assert U.tail_order == 8 and matrix_series_inverse(G, 20) == U  # capped at the window of G
    short = matrix_series_inverse(G, 5)
    assert short.tail_order == 5 and short.blocks(5) == U.blocks(5)
    assert G.inverse is G.inverse and len(solved) == 8  # one block sum per inverse block
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
    # P = (x - sign y) Q for Q_{k,l} = (k + 2l, -l, k * l, 1) at grade k + l + 1
    n, size = 7, 3
    Q = [[(k + 2 * l, -l, k * l, 1) for l in range(n)] for k in range(n)]
    N = [[tuple((Q[i - 1][j][e] if i else 0) - sign * (Q[i][j - 1][e] if j else 0)
                for e in range(4)) for j in range(n + 1 - i)] for i in range(n + 1)]
    quotient, remainder = linear_quotient(N, sign, size)
    assert remainder is None
    assert quotient == tuple(tuple(tuple(Q[k][l]) for l in range(size + 1)) for k in range(size + 1))
    # a block moved on anti-diagonal 5 is reported there, with the sum it leaves
    N[2][3] = tuple(v + 1 for v in N[2][3])
    assert linear_quotient(N, sign, size) == (None, (5, (1, 1, 1, 1)))


@settings(max_examples=200, deadline=None)
@given(BLOCK, BLOCK, BLOCK)
def test_lifted_block_products_lower_to_fraction_products(x1, x2, x3):
    # X_1 X_2 lifted at grade 3 is ratios[3][1] x_1 x_2; lowered at E_3 it is
    # the product of the exact blocks, entry by entry
    G = MatrixSeries.from_blocks((EYE, x1, x2, x3))
    assert G.blocks(3) == [EYE, x1, x2, x3]
    assert all(type(v) is Fraction for b in G.blocks(3) for v in b)
    product = block_sum(((G.ratios[3][1], G.lifted[1], G.lifted[2]),))
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
