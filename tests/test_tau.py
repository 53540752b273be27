import gc
import inspect
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kdvtau.errors import DegreeExceededError, ExactComputationError, InsufficientTableError
from kdvtau.grassmann import (
    ZTable,
    build_G,
    point_from_json,
    wk_G,
    z_table_direct,
    z_table_recursive,
)
from kdvtau.series import MatrixSeries
from kdvtau.schur import (
    GradedPoly,
    graded_log,
    monomial_degree,
    partitions_up_to,
    schur_poly,
)
from kdvtau.tau import (
    CorrelatorSpec,
    correlator,
    free_energy,
    initial_data,
    intersection_number,
    log_tau_derivative,
    tau_truncated,
    to_t_variables,
    verify_dimension_filter,
    verify_kdv_flow,
    verify_string_equation,
    verify_string_recursion,
)

from conftest import (
    certified_degree,
    det_one_G,
    example_table,
    giambelli_value,
    seeded_point_json,
    zhou_ztable,
)
from oracles import (
    character, degree_slice, dijkgraaf, double_factorial, dvv, genus0, genus_of, graded_exp, valid_specs,
)

F = Fraction


def theta_mon(*pairs):
    return tuple(sorted(pairs))


def t_mon(*pairs):
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_example_tau_theta_form(example_tau_c1):
    """Single nonzero table entry c at (1,1): tau = 1 - c (theta1^3/3 - theta3)."""
    poly = example_tau_c1.poly
    assert poly.terms == {
        (): F(1),
        theta_mon((1, 3)): F(-1, 3),
        theta_mon((3, 1)): F(1),
    }


def test_wk_degree3_slice(wk_tau12):
    slice3 = degree_slice(wk_tau12.poly, 3)
    assert slice3.terms == {
        theta_mon((1, 3)): F(-1, 6),
        theta_mon((3, 1)): F(-1, 8),
    }
    # the theta1*theta2 coefficient cancels between the three weight-3 terms


def test_wk_tau_degree0():
    t = tau_truncated(z_table_recursive(wk_G(1), 0, 0), 0)
    assert t.poly.terms == {(): F(1)}


def test_tau_requires_big_enough_table():
    table = example_table(F(1), 2)  # Z_{k,l}, k, l <= 1: A_{m,n}, m, n <= 3
    assert tau_truncated(table, 4).poly.terms
    with pytest.raises(InsufficientTableError):
        tau_truncated(table, 5)


def test_pipeline_independence(wk_ztable15):
    """tau assembled on the closed-formula table K = L = 15 equals tau on the
    recursion's triangle of exactly the order degree 10 reads, 5 on wk_G(5),
    coefficient for coefficient."""
    t_direct = tau_truncated(wk_ztable15, 10)
    t_recursive = tau_truncated(z_table_recursive(wk_G(5)), 10)
    assert t_direct.poly.terms == t_recursive.poly.terms


@pytest.mark.parametrize("seed,dense,large", [(31, True, False), (32, False, True)])
def test_tau_on_the_exact_triangle_equals_tau_on_larger_tables(seed, dense, large):
    # a tau of degree D reads the triangle k + l <= (D - 1)//2 at the scale its
    # order fixes, so a deeper triangle or a square gives the same series, and
    # a triangle one order short is refused
    point = point_from_json(seeded_point_json(seed, 31, dense, large))
    deep = z_table_recursive(build_G(point, 15))
    for degree in range(13):
        order = max(degree - 1, 0) // 2 + 1
        want = tau_truncated(z_table_recursive(build_G(point, order)), degree)
        assert tau_truncated(deep, degree) == want
        square = z_table_direct(build_G(point, 2 * order - 1), order - 1, order - 1)
        assert tau_truncated(square, degree) == want
        if order > 1:
            with pytest.raises(InsufficientTableError):
                tau_truncated(z_table_recursive(build_G(point, order - 1)), degree)


def test_tau_keeps_nothing_once_its_series_is_dropped():
    # a dense large point at D = 15, every part: the rim-hook walk on bead
    # masks peaks at 0.6 MB and keeps 7 KB once the series is dropped, where
    # a memo of rim hooks keyed on partitions peaked at 2.7 MB and kept 2.2 MB.
    # Every cache of the package is cleared first, so nothing warm is read
    import tracemalloc

    from kdvtau import exactnum, grassmann, schur, series, spin3, tau, zhou

    for module in (exactnum, grassmann, schur, series, spin3, tau, zhou):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    point = point_from_json(seeded_point_json(1, 31, True, True))
    table = z_table_recursive(build_G(point, 8))
    tracemalloc.start()
    try:
        series = tau_truncated(table, 15)
        peak = tracemalloc.get_traced_memory()[1]
        del series
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6
    assert kept < 0.05e6


def test_stabilization_in_table_size(wk_ztable20):
    small = tau_truncated(z_table_recursive(wk_G(7), 3, 3), 8)
    big = tau_truncated(wk_ztable20, 8)
    assert small.poly.terms == big.poly.terms


def test_stabilization_in_degree(wk_tau12, wk_ztable15):
    t8 = tau_truncated(wk_ztable15, 8)
    for d in range(9):
        assert degree_slice(t8.poly, d).terms == degree_slice(wk_tau12.poly, d).terms


def seeded_table(seed: int, dense: bool, large: bool, half: int) -> ZTable:
    """The Z triangle of order 2 half + 1 of a seeded random point, which holds
    K = L = half (A_{m,n}, m, n <= 2 half + 1)."""
    point = point_from_json(seeded_point_json(seed, 4 * half + 3, dense, large))
    return z_table_recursive(build_G(point, 2 * half + 1), half, half)


def route_tables(half: int) -> dict:
    """The tables the tau routes are compared on, each holding k, l <= half."""
    return {
        "wk": lambda request: request.getfixturevalue("wk_ztable15"),
        "zhou": lambda _: zhou_ztable(half),
        "c=1": lambda _: example_table(F(1), 2 * half),
        "c=-2": lambda _: example_table(F(-2), 2 * half),
        "c=1/3": lambda _: example_table(F(1, 3), 2 * half),
        "random-dense": lambda _: seeded_table(21, True, False, half),
        "random-sparse": lambda _: seeded_table(22, False, False, half),
        "random-dense-large": lambda _: seeded_table(23, True, True, half),
        "random-sparse-large": lambda _: seeded_table(24, False, True, half),
    }


ROUTE_TABLES = route_tables(6)
ORACLE_TABLES = route_tables(7)  # tau through degree 15


@pytest.fixture(scope="module", params=list(ROUTE_TABLES))
def route_table(request) -> ZTable:
    return ROUTE_TABLES[request.param](request)


def jacobi_trudi_tau(table: ZTable, degree: int) -> dict:
    """sum_{|mu| <= degree} A_mu s_mu(theta), s_mu expanded by Jacobi-Trudi."""
    terms: dict = {}
    minors: dict = {}
    for mu in partitions_up_to(degree):
        a = giambelli_value(mu, table, minors)
        for mon, c in schur_poly(mu).terms.items():
            terms[mon] = terms.get(mon, 0) + a * c
    return {mon: c for mon, c in terms.items() if c != 0}


def has_even_theta(mon) -> bool:
    return any(var % 2 == 0 for var, _ in mon)


def test_tau_matches_jacobi_trudi_term_for_term(request, route_table):
    reference = jacobi_trudi_tau(route_table, 12)
    for degree in range(13):
        tau = tau_truncated(route_table, degree)
        assert tau.poly.bound == degree
        assert tau.poly.terms == {
            mon: c for mon, c in reference.items() if monomial_degree("theta", mon) <= degree
        }
    if request.node.callspec.params["route_table"].startswith("random"):
        assert any(has_even_theta(mon) for mon in reference)  # kept, not dropped


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans())
def test_odd_part_walk_is_the_t_part_of_the_full_walk(seed, dense, large):
    # on a generic point, with even theta present: the walk on odd parts gives
    # exactly the full walk's monomials with odd parts only, so the same
    # t-polynomial, at every degree
    table = seeded_table(seed, dense, large, 6)
    full = tau_truncated(table, 12)
    assert any(has_even_theta(mon) for mon in full.poly.terms)
    for degree in range(13):
        odd = tau_truncated(table, degree, range(1, degree + 1, 2))
        want = full.truncate(degree)
        assert odd.poly.terms == {mon: c for mon, c in want.poly.terms.items() if not has_even_theta(mon)}
        assert to_t_variables(odd) == to_t_variables(want)


def test_theta_form_of_an_odd_part_tau_is_refused(example_tau_c1):
    assert example_tau_c1.theta_poly() is example_tau_c1.poly
    odd = tau_truncated(example_table(F(1)), 8, range(1, 9, 2))
    with pytest.raises(ExactComputationError, match="some parts only"):
        odd.theta_poly()
    with pytest.raises(ExactComputationError, match="some parts only"):
        odd.truncate(4).theta_poly()


@pytest.fixture(scope="module", params=list(ORACLE_TABLES))
def oracle_table(request) -> ZTable:
    return ORACLE_TABLES[request.param](request)


def character_tau(table: ZTable, degree: int) -> dict:
    """[theta^lam] tau = sum_{|mu| = |lam|} A_mu chi^mu(lam) / prod_j m_j(lam)!,
    one Murnaghan-Nakayama character per pair (mu, lam) from the oracle."""
    minors: dict[int, list] = {}
    memo: dict = {}
    for mu in partitions_up_to(degree):
        if a := giambelli_value(mu, table, memo):
            minors.setdefault(sum(mu), []).append((mu, a))
    terms: dict = {}
    for lam in partitions_up_to(degree):
        mults = Counter(lam)
        scale = math.prod(math.factorial(m) for m in mults.values())
        c = sum((a * character(mu, lam) for mu, a in minors.get(sum(lam), [])), F(0))
        if c:
            terms[tuple(sorted(mults.items()))] = c / scale
    return terms


def test_tau_matches_character_oracle_term_for_term(request, oracle_table):
    reference = character_tau(oracle_table, 15)
    for degree in range(16):
        assert tau_truncated(oracle_table, degree).poly.terms == {
            mon: c for mon, c in reference.items() if monomial_degree("theta", mon) <= degree
        }
    if request.node.callspec.params["oracle_table"].startswith("random"):
        assert any(has_even_theta(mon) for mon in reference)


def test_wk_tau_degree_18_matches_character_oracle(wk_ztable15):
    tau = tau_truncated(wk_ztable15, 18)
    assert len(tau.poly.terms) == 103
    assert tau.poly.terms == character_tau(wk_ztable15, 18)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dense=st.booleans(),
    large=st.booleans(),
    degree=st.sampled_from(range(11)),
    data=st.data(),
)
def test_tau_matches_character_oracle_on_drawn_points(seed, dense, large, degree, data):
    # a Z table K = L = half reaches tau degree 2 half + 2
    half = data.draw(st.integers(max(0, (degree - 1) // 2), 5), label="half")
    table = seeded_table(seed, dense, large, half)
    tau = tau_truncated(table, degree)
    assert tau.poly.bound == degree
    assert tau.poly.terms == character_tau(table, degree)


def test_log_tau_is_linear_in_even_theta(route_table):
    # tau depends on the even times only through a factor exp(sum_k c_k theta_2k)
    log_tau = graded_log(tau_truncated(route_table, 12).poly)
    even = [mon for mon in log_tau.terms if has_even_theta(mon)]
    assert all(len(mon) == 1 and mon[0][1] == 1 for mon in even), even


# ---------------------------------------------------------------------------
# coupling constants
# ---------------------------------------------------------------------------


def test_to_t_example(example_tau_c1):
    Z = to_t_variables(example_tau_c1)
    assert Z.terms == {
        (): F(1),
        t_mon((0, 3)): F(1, 3),
        t_mon((1, 1)): F(-1, 3),
    }


def test_to_t_wk_degree3(wk_tau12):
    Z = to_t_variables(wk_tau12)
    assert Z.terms[t_mon((0, 3))] == F(1, 6)
    assert Z.terms[t_mon((1, 1))] == F(1, 24)
    assert Z.constant_term() == 1


def test_log_series_examples(wk_tau12):
    one = GradedPoly.const("t", 1, 6)
    assert graded_log(one).is_zero()
    Z = to_t_variables(wk_tau12)
    L = graded_log(Z)
    assert L.terms[t_mon((0, 3))] == F(1, 6)
    assert L.terms[t_mon((1, 1))] == F(1, 24)
    assert graded_exp(L, 12).terms == Z.terms


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------


def test_spec_genus():
    assert CorrelatorSpec.of([0, 0, 0]).genus == 0
    assert CorrelatorSpec.of([1]).genus == 1
    assert CorrelatorSpec.of([4]).genus == 2
    assert CorrelatorSpec.of([0, 0]).genus is None
    assert not CorrelatorSpec.of([0, 0]).is_valid
    assert CorrelatorSpec.of([]).genus is None  # not the unstable <>_1


def test_known_intersection_numbers(wk_tau12):
    def val(ks):
        return intersection_number(CorrelatorSpec.of(ks), wk_tau12)

    assert val([0, 0, 0]) == 1 and CorrelatorSpec.of([0, 0, 0]).genus == 0
    assert val([1]) == F(1, 24) and CorrelatorSpec.of([1]).genus == 1
    # string-equation oracle seeded by the genus-0 three-point value
    assert val([0, 0, 0, 1]) == 1
    assert val([0, 2]) == F(1, 24)
    assert val([1, 1]) == F(1, 24)
    assert val([0, 0, 3]) == F(1, 24)
    assert val([0, 0, 0, 1, 1]) == 2  # string: two ways down to <t0^3 t1>
    # genus-2 one-point value from the published table
    assert val([4]) == F(1, 1152) and CorrelatorSpec.of([4]).genus == 2


def test_dimension_mismatch_flag(wk_tau12):
    spec = CorrelatorSpec.of([0, 0])
    assert intersection_number(spec, wk_tau12) == 0 and spec.genus is None and not spec.is_valid


def test_degree_guard(wk_tau12):
    with pytest.raises(DegreeExceededError):
        intersection_number(CorrelatorSpec.of([0, 0, 6]), wk_tau12)


# ---------------------------------------------------------------------------
# correlators read off the integer lift of the Z table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wk_ztable13():
    return z_table_recursive(wk_G(28), 13, 13)


def test_oracles_agree_in_genus_0():
    specs = [ks for ks in valid_specs(27) if genus_of(ks) == 0]
    assert len(specs) > 20
    assert all(dvv(ks) == genus0(ks) for ks in specs)
    assert dvv((4,)) == F(1, 1152) and dvv((2, 3)) == F(29, 5760)


def test_correlator_matches_dvv():
    specs = valid_specs(27)
    assert len(specs) == 372
    for ks in specs:
        spec = CorrelatorSpec.of(ks)
        assert (correlator(spec), spec.genus, spec.is_valid) == (dvv(ks), genus_of(ks), True), ks


@pytest.mark.parametrize("genera", [range(1, 21), [40]], ids=["through-genus-20", "genus-40"])
def test_two_point_correlators_match_dijkgraaf(genera):
    # every <tau_a tau_b>_g, a <= b: those with a >= 2 are read by the cycle
    # sum of `log_tau_derivative`, so a wrong sign or index in the lookup that
    # closes each cycle shows here.  Every genus through 40 takes about 20 s.
    for g in genera:
        for a in range((3 * g - 1) // 2 + 1):
            assert correlator(CorrelatorSpec.of((a, 3 * g - 1 - a))) == dijkgraaf(g)[a], (a, g)


def test_correlator_loop_over_genera_keeps_one_wk_table():
    # wk_G and wk_z_table keep the last size read, so <tau_{3g-2}>_g over
    # g = 2..12 holds one loop matrix and one Z table, not one per genus
    # (g = 2..40 peaks at 26 MB, where a table per genus took 73 MB)
    def live():
        gc.collect()
        return Counter(type(o) for o in gc.get_objects() if type(o) in (ZTable, MatrixSeries))

    before = live()
    for g in range(2, 13):
        assert correlator(CorrelatorSpec.of([3 * g - 2])) == F(1, 24**g * math.factorial(g))
    grown = live() - before
    assert grown[ZTable] <= 1 and grown[MatrixSeries] <= 1


def test_correlator_matches_log_tau_route(wk_ztable15):
    tau15 = tau_truncated(wk_ztable15, 15)
    for ks in valid_specs(15):
        spec = CorrelatorSpec.of(ks)
        assert correlator(spec) == intersection_number(spec, tau15), ks


def test_unreduced_n_point_formula_matches_dvv(wk_ztable13):
    # every valid spec of t-weight <= 21 (n up to 9), no string/dilaton step
    for ks in valid_specs(21):
        scale = math.prod(F(-1, double_factorial(2 * k + 1)) for k in ks)
        assert scale * log_tau_derivative(wk_ztable13, [2 * k + 1 for k in ks]) == dvv(ks), ks


def test_correlator_nine_insertions():
    # <tau_2^9>_4: n = 9 survives the reduction, t-weight 45
    spec = CorrelatorSpec.of([2] * 9)
    assert correlator(spec) == dvv(spec.exponents) == F(1816871, 48)


def test_correlator_reduces_a_long_string_on_a_short_stack():
    # <tau_0^60 tau_58>_0 = 1 takes 58 string steps and leaves <tau_0^3>_0;
    # each step removes one insertion, and the reduction runs in a loop, so
    # 120 free frames are enough
    spec = CorrelatorSpec.of([0] * 60 + [58])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 120)
    try:
        value = correlator(spec)
    finally:
        sys.setrecursionlimit(limit)
    assert value == 1 and spec.genus == 0


@pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
def test_correlator_dilaton_tower(n):
    # <tau_1^n>_1 = (n - 1)!/24: n - 1 dilaton steps down to <tau_1>_1
    assert correlator(CorrelatorSpec.of([1] * n)) == F(math.factorial(n - 1), 24)


@pytest.mark.parametrize("m", [3, 4, 10, 100, 300])
def test_correlator_string_tower(m):
    # <tau_0^m tau_{m-2}>_0 = 1: m - 2 string steps down to <tau_0^3>_0
    spec = CorrelatorSpec.of([0] * m + [m - 2])
    assert correlator(spec) == 1 and spec.genus == 0


@st.composite
def deep_specs(draw):
    """A valid spec of n <= 5 insertions and t-weight 6g - 6 + 3n in 28..45,
    past the exhaustive t-weight <= 27 window of `test_correlator_matches_dvv`."""
    n = draw(st.integers(1, 5))
    g = draw(st.sampled_from([g for g in range(9) if 28 <= 6 * g - 6 + 3 * n <= 45]))
    d = 3 * g - 3 + n  # sum of the k_i
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return tuple(sorted(b - a for a, b in zip([0] + cuts, cuts + [d])))


@settings(max_examples=30, deadline=None)
@given(ks=deep_specs())
def test_correlator_matches_dvv_beyond_the_exhaustive_window(ks):
    spec = CorrelatorSpec.of(ks)
    assert (correlator(spec), spec.genus, spec.is_valid) == (dvv(ks), genus_of(ks), True)


def multisets(budget: int, most: int) -> list[tuple[int, ...]]:
    """Sorted tuples of at most `most` indices >= 1 with sum <= budget."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], low: int, left: int) -> None:
        if prefix:
            out.append(prefix)
        if len(prefix) < most:
            for a in range(low, left + 1):
                rec(prefix + (a,), a, left - a)

    rec((), 1, budget)
    return out


def assert_log_tau_derivatives_match_graded_log(table: ZTable) -> None:
    """d^n log tau read off the lift of `table` by the n-point sum equals the
    graded log of the tau assembled on the same lift from Giambelli minors, for
    every multiset of at most 4 theta indices of weight <= 10 (so every grade
    up to E_5 is read)."""
    log_tau = graded_log(tau_truncated(table, 10).poly)
    thetas = multisets(10, 4)
    assert len(thetas) == 93
    for a in thetas:
        counts = Counter(a)
        want = log_tau.coefficient(tuple(sorted(counts.items()))) * math.prod(
            math.factorial(e) for e in counts.values()
        )
        assert log_tau_derivative(table, list(a)) == want, a


@pytest.mark.parametrize("seed,dense,large", [(1, True, False), (2, False, True), (3, True, True), (4, False, False)])
def test_log_tau_derivative_matches_graded_log(seed, dense, large):
    # a generic point: even theta present, no string or dilaton equation
    point = point_from_json(seeded_point_json(seed, 24, dense, large))
    assert_log_tau_derivatives_match_graded_log(z_table_recursive(build_G(point, 11), 5, 5))


@pytest.mark.parametrize("seed", range(2, 8))  # seed 1 draws a lift with every ratio 1
def test_log_tau_derivative_on_a_non_multiplicative_lift(seed):
    # each entry is scaled by its own E_{N+1} / E_d, which here, with grades
    # that are no powers of one base, is not E_{N+1-d}
    G = det_one_G(seed)
    E = G.grades
    assert any(E[i + j] != E[i] * E[j] for i in range(len(E)) for j in range(len(E) - i))
    assert_log_tau_derivatives_match_graded_log(z_table_recursive(G, 4, 4))


def test_correlator_guards():
    spec = CorrelatorSpec.of([0, 0])
    assert correlator(spec) == 0 and spec.genus is None and not spec.is_valid
    small = z_table_recursive(wk_G(4))  # k + l <= 3, where weight 9 reads k + l <= 4
    with pytest.raises(InsufficientTableError):
        log_tau_derivative(small, [5, 4])
    assert log_tau_derivative(small, [5, 3]) == 0  # reads k + l <= 3; <tau_2 tau_1> has no genus
    with pytest.raises(ValueError):
        log_tau_derivative(small, [])
    with pytest.raises(ValueError):
        log_tau_derivative(small, [0, 3])


# ---------------------------------------------------------------------------
# differential identities
# ---------------------------------------------------------------------------


def test_string_equation_wk(wk_tau12):
    rep = verify_string_equation(wk_tau12)
    assert rep.passed
    assert certified_degree(rep) == 11


def test_string_equation_fails_on_example(example_tau_c1):
    rep = verify_string_equation(example_tau_c1)
    assert not rep.passed  # expected-fail fixture: not the string-equation solution


def test_string_recursion_wk(wk_tau12):
    assert verify_string_recursion(wk_tau12).passed


def test_dimension_filter_wk(wk_tau12):
    assert verify_dimension_filter(wk_tau12).passed


def test_kdv_flow1_wk(wk_tau12):
    rep = verify_kdv_flow(wk_tau12, 1)
    assert rep.passed
    assert certified_degree(rep) >= 6


def test_kdv_flow2_wk(wk_tau12):
    rep = verify_kdv_flow(wk_tau12, 2)
    assert rep.passed
    assert certified_degree(rep) >= 4


def test_kdv_flow1_example(example_tau_c1):
    assert verify_kdv_flow(example_tau_c1, 1).passed


def test_kdv_flow_degree_guard(wk_ztable15):
    shallow = tau_truncated(wk_ztable15, 5)
    with pytest.raises(DegreeExceededError):
        verify_kdv_flow(shallow, 2)  # flow 2 consumes 7 degrees of reliability


def test_example_u_matches_closed_form(example_tau_c1):
    """u = d^2 log tau agrees with the closed rational form
    -3 c t0 (c (t0^3 + 2 t1) - 6) / (c (t0^3 - t1) + 3)^2  for c = 1,
    checked by cross-multiplying inside the reliable window."""
    F_ = free_energy(example_tau_c1)
    u = F_.derivative(0).derivative(0)
    t0 = GradedPoly.variable("t", 0)
    t1 = GradedPoly.variable("t", 1)
    t0cubed = t0 * t0 * t0
    denom = t0cubed - t1 + GradedPoly.const("t", 3)
    numer = (t0cubed + t1.scale(2) - GradedPoly.const("t", 6)) * t0.scale(-3)
    residual = u * denom * denom - numer
    assert residual.bound is not None and residual.bound >= 8
    assert residual.is_zero()


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def test_initial_data_wk(wk_tau12):
    values = initial_data(wk_tau12, 10)
    assert values[0] == 0 and values[1] == 1
    assert all(v == 0 for v in values[2:])


def test_initial_data_example():
    import math

    for c in (F(1), F(-2, 3), F(5)):
        t = tau_truncated(example_table(c), 12)
        values = initial_data(t, 10)
        expected_series = {1: 2 * c, 4: F(-5, 3) * c**2, 7: F(8, 9) * c**3, 10: F(-11, 27) * c**4}
        for n in range(11):
            assert values[n] == expected_series.get(n, F(0)) * math.factorial(n)


def test_initial_data_trivial_tau():
    table = example_table(F(0), 10)  # the point a = b = 1: every A_{m,n} = 0, m, n <= 11
    t = tau_truncated(table, 12)
    assert initial_data(t, 10) == [F(0)] * 11


def test_initial_data_degree_guard(wk_tau12):
    with pytest.raises(DegreeExceededError):
        initial_data(wk_tau12, 11)
