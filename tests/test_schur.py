import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kdvtau.errors import NonUnitError, OutOfRangeError
from kdvtau.grassmann import ZTable
from kdvtau.schur import (
    GradedPoly,
    beads,
    frobenius,
    giambelli_coeff,
    graded_log,
    h_polys,
    monomial_degree,
    p_perp,
    partitions_of,
    partitions_up_to,
    schur_poly,
)
from kdvtau.series import MatrixSeries
from kdvtau.tau import tau_truncated

from conftest import giambelli_value
from oracles import character, conjugate, evaluate, graded_exp, graded_log as power_series_log, pow_int

F = Fraction


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def brute_force_partitions(n: int) -> set:
    """Independent enumeration: all weakly decreasing positive tuples
    summing to n, built from flat compositions."""
    found = set()

    def rec(left, prefix):
        if left == 0:
            found.add(prefix)
            return
        start = prefix[-1] if prefix else left
        for part in range(1, min(left, start) + 1):
            rec(left - part, prefix + (part,))

    rec(n, ())
    return found


def test_partitions_of_small():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_up_to_order_and_counts():
    got = partitions_up_to(3)
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    for weight in range(10):
        exact = {p for p in partitions_up_to(9) if sum(p) == weight}
        assert exact == brute_force_partitions(weight)
    # sum of p(0..9) = 1+1+2+3+5+7+11+15+22+30
    assert len(partitions_up_to(9)) == 97


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()


def test_frobenius_examples():
    assert frobenius(()) == ((), ())
    assert frobenius((2, 1)) == ((1,), (1,))
    assert frobenius((3,)) == ((2,), (0,))
    assert frobenius((4, 3, 1)) == ((3, 1), (2, 0))


def test_frobenius_matches_the_conjugate_definition_weight_14():
    for mu in partitions_up_to(14):
        conj = conjugate(mu)
        k = sum(1 for i, p in enumerate(mu) if p >= i + 1)
        arms = tuple(mu[i] - (i + 1) for i in range(k))
        legs = tuple(conj[i] - (i + 1) for i in range(k))
        assert frobenius(mu) == (arms, legs), mu


def test_frobenius_round_trip_weight_12():
    # the coordinates determine mu, and the diagonal hooks tile it
    coords = [frobenius(mu) for mu in partitions_up_to(12)]
    assert len(set(coords)) == len(coords)
    for mu, (arms, legs) in zip(partitions_up_to(12), coords):
        assert len(arms) == len(legs)
        assert sum(arms) + sum(legs) + len(arms) == sum(mu)


# ---------------------------------------------------------------------------
# h and Schur polynomials
# ---------------------------------------------------------------------------


def theta(j):
    return GradedPoly.variable("theta", j)


def test_h_examples():
    hs = h_polys(3)
    assert hs[0] == GradedPoly.const("theta", 1)
    assert hs[1] == theta(1)
    assert hs[2] == theta(1) * theta(1).scale(F(1, 2)) + theta(2)
    expected_h3 = (
        theta(1) * theta(1) * theta(1).scale(F(1, 6))
        + theta(1) * theta(2)
        + theta(3)
    )
    assert hs[3] == expected_h3


def test_schur_small():
    assert schur_poly(()) == GradedPoly.const("theta", 1)
    assert schur_poly((1,)) == theta(1)
    s21 = schur_poly((2, 1))
    assert s21 == pow_int(theta(1), 3).scale(F(1, 3)) - theta(3)


def test_schur_homogeneous():
    for mu in partitions_up_to(8):
        s = schur_poly(mu)
        from kdvtau.schur import monomial_degree

        assert all(monomial_degree("theta", m) == sum(mu) for m in s.terms)


def miwa_theta(xs, max_k):
    return {k: sum(F(x) ** k for x in xs) / k for k in range(1, max_k + 1)}


def alternant_schur(mu: tuple, xs) -> Fraction:
    """det(x_i^{l_j}) / det(x_i^{N-j}) with l_j = mu_j - j + N."""
    N = len(xs)
    ls = [(mu[j] if j < len(mu) else 0) - (j + 1) + N for j in range(N)]
    num = perm_det([[F(x) ** l for l in ls] for x in xs])
    den = perm_det([[F(x) ** (N - j) for j in range(1, N + 1)] for x in xs])
    return num / den


def test_schur_matches_miwa_alternant_up_to_weight_6():
    xs = [F(1), F(-2), F(1, 2), F(3)]
    for mu in partitions_up_to(6):
        if len(mu) > len(xs):
            continue
        values = miwa_theta(xs, max(sum(mu), 1))
        assert evaluate(schur_poly(mu), values) == alternant_schur(mu, xs)


def test_schur_alternant_second_sample():
    xs = [F(2), F(-1, 3), F(5, 2)]
    for mu in partitions_up_to(5):
        if len(mu) > len(xs):
            continue
        values = miwa_theta(xs, max(sum(mu), 1))
        assert evaluate(schur_poly(mu), values) == alternant_schur(mu, xs)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_characters_are_the_jacobi_trudi_coefficients():
    # s_mu = sum_lam chi^mu(lam) theta^lam / prod_j m_j(lam)!
    for n in range(9):
        for mu in partitions_of(n):
            s = schur_poly(mu)
            for lam in partitions_of(n):
                mults = Counter(lam)
                mon = tuple(sorted(mults.items()))
                scale = math.prod(math.factorial(m) for m in mults.values())
                assert F(character(mu, lam), scale) == s.coefficient(mon), (mu, lam)


def test_character_at_the_identity_is_the_hook_length_formula():
    for n in range(11):
        for mu in partitions_of(n):
            conj = conjugate(mu)
            hooks = math.prod(
                mu[i] - j + conj[j] - i - 1 for i in range(len(mu)) for j in range(mu[i])
            )
            assert character(mu, (1,) * n) == math.factorial(n) // hooks, mu


def is_rim_hook(cells: set) -> bool:
    """Edge-connected and free of 2x2 squares: a border strip."""
    if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells):
        return False
    start = next(iter(cells))
    seen, todo = {start}, [start]
    while todo:
        i, j = todo.pop()
        for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if cell in cells and cell not in seen:
                seen.add(cell)
                todo.append(cell)
    return seen == cells


@st.composite
def partition_and_hook_size(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    mus = list(partitions_of(n))
    return mus[draw(st.integers(min_value=0, max_value=len(mus) - 1))], draw(
        st.integers(min_value=1, max_value=11)
    )


def unbeads(mask: int, n: int) -> tuple[int, ...]:
    """The partition whose bead mask with n beads is `mask`."""
    found = [b for b in range(mask.bit_length()) if mask >> b & 1]
    assert len(found) == n
    return tuple(p for p in (b - (n - 1 - i) for i, b in enumerate(reversed(found))) if p)


def hooks_by_cells(mu: tuple[int, ...], r: int) -> dict:
    """Every nu inside mu whose skew shape is an r-cell rim hook, with its
    sign (-1)^(rows - 1), found on the cells."""
    expected = {}
    for nu in partitions_of(sum(mu) - r) if r <= sum(mu) else ():
        if len(nu) > len(mu) or any(a > b for a, b in zip(nu, mu)):
            continue
        cells = {(i, j) for i, p in enumerate(mu) for j in range(nu[i] if i < len(nu) else 0, p)}
        if is_rim_hook(cells):
            expected[nu] = (-1) ** (len({i for i, _ in cells}) - 1)
    return expected


@given(partition_and_hook_size())
@settings(max_examples=200, deadline=None)
def test_p_perp_is_one_murnaghan_nakayama_step(case):
    mu, r = case
    expected = hooks_by_cells(mu, r)
    for n in {len(mu), len(mu) + 3, sum(mu)}:
        hooks = p_perp({beads(mu, n): 1}, r)
        assert {unbeads(nu, n): sign for nu, sign in hooks.items()} == expected
        if r > sum(mu):
            assert hooks == {}
    # chi^mu((r,) + rho) = sum over the hooks of sign * chi^nu(rho), for every rho
    for rho in partitions_of(sum(mu) - r, r) if r <= sum(mu) else ():
        assert character(mu, (r,) + rho) == sum(sign * character(nu, rho) for nu, sign in expected.items())


def test_p_perp_drops_the_entries_that_cancel():
    # two terms whose hooks meet at some nu, weighted to cancel there
    met = 0
    for w in range(1, 8):
        masks = [beads(mu, w) for mu in partitions_of(w)]
        for r in range(1, w + 1):
            for a, b in itertools.combinations(masks, 2):
                ha, hb = p_perp({a: 1}, r), p_perp({b: 1}, r)
                for nu in ha.keys() & hb.keys():
                    met += 1
                    want = {m: hb[nu] * ha.get(m, 0) - ha[nu] * hb.get(m, 0) for m in ha.keys() | hb.keys()}
                    got = p_perp({a: hb[nu], b: -ha[nu]}, r)
                    assert nu not in got
                    assert got == {m: x for m, x in want.items() if x}
    assert met


# ---------------------------------------------------------------------------
# determinant oracle
# ---------------------------------------------------------------------------


def perm_det(rows):
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


# ---------------------------------------------------------------------------
# Giambelli minors
# ---------------------------------------------------------------------------


def test_giambelli_empty_is_one(wk_ztable15):
    assert giambelli_coeff((), wk_ztable15, 1, {}) == 1


def test_giambelli_hooks_wk(wk_ztable15):
    minors: dict = {}
    assert giambelli_value((2, 1), wk_ztable15, minors) == F(-7, 24)
    assert giambelli_value((1, 1, 1), wk_ztable15, minors) == F(-5, 24)
    assert giambelli_value((3,), wk_ztable15, minors) == F(-5, 24)


def test_giambelli_hook_consistency(wk_ztable15):
    """For a single hook (m | n) the minor is (-1)^n A_{m,n}."""
    minors: dict = {}
    for m in range(8):
        for n in range(8):
            hook = (m + 1,) + (1,) * n
            sign = 1 if n % 2 == 0 else -1
            assert giambelli_value(hook, wk_ztable15, minors) == sign * F(*wk_ztable15.affine(m, n))


def test_giambelli_range_check(wk_ztable15):
    top = wk_ztable15.series.grades[31]
    with pytest.raises(OutOfRangeError):
        giambelli_coeff((33,), wk_ztable15, top, {})  # arm 32: A_{32,0} lies in Z_{16,0}
    with pytest.raises(OutOfRangeError):
        giambelli_coeff((1,) * 33, wk_ztable15, top, {})
    assert giambelli_coeff((32, 1), wk_ztable15, top, {})  # (31 | 1): A_{31,1} in the last row


def with_frobenius(arms, legs) -> tuple:
    """The partition with diagonal hooks (arms | legs): row i < k has arms[i] + i + 1
    cells, and row i >= k one cell for each leg column j with legs[j] + j >= i."""
    k = len(arms)
    rows = [a + i + 1 for i, a in enumerate(arms)]
    rows += [sum(1 for j, n in enumerate(legs) if n + j >= i) for i in range(k, legs[0] + 1)]
    return tuple(rows)


def lifted_ztable(half: int, grades: tuple[int, ...], values) -> ZTable:
    """The Z table K = L = half with lifted entries drawn from `values`, on the
    grade sequence `grades` (the series' blocks are never read)."""
    series = MatrixSeries(grades, ((1, 0, 0, 1),) + ((0, 0, 0, 0),) * (len(grades) - 1))
    rows = tuple(tuple(tuple(next(values) for _ in range(4)) for _ in range(half + 1)) for _ in range(half + 1))
    return ZTable(rows, series)


@st.composite
def non_multiplicative_grades(draw, top: int) -> tuple[int, ...]:
    """E_0..E_top with E_i E_j dividing E_{i+j}: E_k is a drawn factor times
    the lcm of the E_j E_{k-j}, and E_2 != E_1^2, so no E_k is a power of E_1."""
    grades = [1]
    for k in range(1, top + 1):
        factor = draw(st.integers(2 if k == 2 else 1, 3))
        grades.append(factor * math.lcm(*(grades[j] * grades[k - j] for j in range(1, k))))
    return tuple(grades)


@st.composite
def table_and_hooks(draw):
    grades = draw(non_multiplicative_grades(9))
    lifts = draw(st.lists(st.one_of(st.just(0), st.integers(-40, 40)), min_size=100, max_size=100))
    rank = draw(st.integers(min_value=1, max_value=5))
    coords = st.sets(st.integers(min_value=0, max_value=9), min_size=rank, max_size=rank)
    arms = tuple(sorted(draw(coords), reverse=True))
    legs = tuple(sorted(draw(coords), reverse=True))
    return lifted_ztable(4, grades, iter(lifts)), arms, legs


@given(table_and_hooks())
@settings(max_examples=60, deadline=None)
def test_giambelli_matches_permutation_expansion(case):
    """Ranks 1-5 on the 10x10 A_{m,n} of a Z table with zeros, drawn integer
    lifts and non-multiplicative grades: the memoised Laplace minor is E^k
    times the signed determinant of the hook rows, E the table's top grade."""
    table, arms, legs = case
    mu = with_frobenius(arms, legs)
    assert frobenius(mu) == (arms, legs)
    sign = -1 if sum(legs) % 2 else 1
    rows = [[F(*table.affine(m, n)) for n in legs] for m in arms]
    top = table.series.grades[9]
    assert giambelli_coeff(mu, table, top, {}) == sign * perm_det(rows) * top ** len(arms)


def test_giambelli_memo_is_per_table():
    """Two tables that differ only in A_{1,1} keep their own minors, whichever
    is asked first: each call owns its memo.  (2, 2) = (1, 0 | 1, 0) reaches
    A_{1,1} through the minor of its hook (1 | 1) = (2, 1).  The block Z_{0,0}
    holds (A_{1,0}, A_{1,1}, A_{0,0}, A_{0,1}), and every grade is 1; the
    other blocks, zero, let the tau reach degree 4."""
    series = MatrixSeries((1,) * 4, ((1, 0, 0, 1),) + ((0, 0, 0, 0),) * 3)
    zero = (0, 0, 0, 0)
    taus: dict = {}
    for order in ((7, 11), (11, 7)):
        for a11 in order:
            table = ZTable((((5, a11, 2, 3), zero), (zero, zero)), series)
            minors: dict = {}
            assert giambelli_coeff((2, 1), table, 1, minors) == -a11
            assert giambelli_coeff((2, 2), table, 1, minors) == -(a11 * 2 - 3 * 5)
            taus.setdefault(order, {})[a11] = tau_truncated(table, 4).poly
    assert taus[(7, 11)] == taus[(11, 7)] and taus[(7, 11)][7] != taus[(7, 11)][11]


# ---------------------------------------------------------------------------
# graded polynomial plumbing
# ---------------------------------------------------------------------------


def test_product_bound_propagation():
    a = GradedPoly.make("theta", {((1, 1),): 1}, 5)      # theta1, reliable to 5
    b = GradedPoly.make("theta", {((1, 2),): 1}, None)   # exact theta1^2
    prod = a * b
    assert prod.bound == 7  # unknown part of a (degree >= 6) meets degree-2 term
    exact = b * b
    assert exact.bound is None
    # two zero polynomials: theta3 * theta4 (degree 7) is the first unknown term
    assert (GradedPoly.zero("theta", 2) * GradedPoly.zero("theta", 3)).bound == 6


def test_derivative_bound_and_value():
    p = GradedPoly.make("t", {((0, 3),): F(1, 6), ((1, 1),): F(1, 24)}, 12)
    dp = p.derivative(0)
    assert dp.bound == 11
    assert dp.terms == {((0, 2),): F(1, 2)}
    d1 = p.derivative(1)
    assert d1.bound == 9
    assert d1.terms == {(): F(1, 24)}


def test_exp_log_round_trip():
    p = GradedPoly.make(
        "t", {((0, 1),): F(2), ((0, 3),): F(-1, 3), ((1, 1),): F(5, 7)}, 9
    )
    assert graded_log(graded_exp(p, 9) + GradedPoly.zero("t", 9)) == p
    q = GradedPoly.const("t", 1) + p
    assert graded_exp(graded_log(q.truncate(9)), 9) == q.truncate(9)


def test_log_requires_unit():
    with pytest.raises(NonUnitError):
        graded_log(GradedPoly.const("t", 2, 5))
    with pytest.raises(NonUnitError):
        graded_log(GradedPoly.const("t", 1))  # exact, and no degree cap


VARIABLES = {"t": range(4), "theta": range(1, 7)}  # degrees 1..7 and 1..6
rational_coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))

theta_monomials = st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=2).map(
    lambda exps: tuple(sorted(exps.items()))
)


@st.composite
def filled_polys(draw):
    """(p, filled): p in theta reliable through degree B, B in 0..6, with up to
    six terms (none: the zero polynomial), and an exact polynomial equal to p
    through degree B with random "unknown" terms above it."""
    bound = draw(st.integers(0, 6))
    drawn = draw(st.dictionaries(theta_monomials, rational_coeffs, max_size=6))
    known = {m: c for m, c in drawn.items() if monomial_degree("theta", m) <= bound}
    return GradedPoly.make("theta", known, bound), GradedPoly.make("theta", drawn, None)


@settings(max_examples=200, deadline=None)
@given(filled_polys(), filled_polys())
@example(  # zero x zero
    (GradedPoly.zero("theta", 2), GradedPoly.variable("theta", 3)),
    (GradedPoly.zero("theta", 3), GradedPoly.variable("theta", 4)),
)
def test_product_bound_is_sound(x, y):
    """Every coefficient through the reported bound of a product is the
    coefficient of the product of any completions of the factors."""
    (a, filled_a), (b, filled_b) = x, y
    prod, full = a * b, filled_a * filled_b
    for m in set(prod.terms) | set(full.terms):
        if monomial_degree("theta", m) <= prod.bound:
            assert prod.coefficient(m) == full.coefficient(m), m


@st.composite
def unit_polys(draw):
    """(p, degree): p with constant term 1 plus up to five monomials in t or
    theta variables, under a finite bound or bound None with an explicit
    degree; the cap may lie below the lowest nonconstant degree."""
    kind = draw(st.sampled_from(sorted(VARIABLES)))
    monomial = st.dictionaries(
        st.sampled_from(VARIABLES[kind]), st.integers(1, 3), min_size=1, max_size=3
    ).map(lambda exps: tuple(sorted(exps.items())))
    terms = draw(st.dictionaries(monomial, rational_coeffs, max_size=5))
    bound = draw(st.one_of(st.none(), st.integers(0, 12)))
    degree = draw(st.integers(0, 12) if bound is None else st.one_of(st.none(), st.integers(0, 12)))
    return GradedPoly.make(kind, {**terms, (): 1}, bound), degree


@settings(max_examples=80, deadline=None)
@given(unit_polys())
@example((GradedPoly.make("theta", {(): 1, ((1, 1),): 2, ((2, 1),): F(-1, 3)}, 7), None))
@example((GradedPoly.make("t", {(): 1, ((0, 1),): 1, ((1, 1),): F(5, 2)}, None), 9))
@example((GradedPoly.make("t", {(): 1, ((2, 1),): 3}, None), 4))  # cap below t_2's degree 5
def test_log_matches_power_series_oracle(case):
    p, degree = case
    log = graded_log(p.truncate(degree))
    assert log == power_series_log(p, degree)
    cap = min(c for c in (p.bound, degree) if c is not None)
    assert log.bound == cap
    assert graded_exp(log, cap) == p.truncate(cap)
