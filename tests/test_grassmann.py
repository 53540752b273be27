import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import kdvtau.grassmann as grassmann
from kdvtau.errors import ExactComputationError, InsufficientDepthError, OutOfRangeError
from kdvtau.grassmann import (
    GrassmannPoint,
    ZTable,
    build_G,
    point_from_json,
    point_to_json,
    verify_cq_identity,
    verify_generating_function,
    verify_kac_schwarz,
    verify_symmetry,
    verify_z_equivalence,
    verify_z_generating_series,
    verify_z_recursion_identity,
    wk_G,
    wk_c_coeff,
    wk_point,
    wk_q_coeff,
    wk_z_table,
    z_table_direct,
    z_table_recursive,
)
from kdvtau.series import LaurentSeries, MatrixSeries, matrix_series_inverse

from conftest import det_one_G, seeded_point_json
from oracles import _matmul, _negsum, closed_z, loop_blocks, loop_inverse, rows, wk_cq

F = Fraction
EYE, ZERO = (1, 0, 0, 1), (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------


def test_c_values():
    assert wk_c_coeff(0) == 1
    assert wk_c_coeff(1) == F(-5, 24)
    assert wk_c_coeff(2) == F(385, 1152)


def test_q_values():
    assert wk_q_coeff(0) == 1
    assert wk_q_coeff(1) == F(7, 24)
    assert wk_q_coeff(2) == F(-455, 1152)


def test_c_against_ode_recursion_oracle():
    """The defining ODE gives c_{k+1} = -(6k+5)(6k+1) c_k / (24(k+1));
    an independent derivation of the closed form."""
    c = F(1)
    for k in range(12):
        assert wk_c_coeff(k) == c
        c = -F((6 * k + 5) * (6 * k + 1), 24 * (k + 1)) * c


def test_q_against_operator_oracle():
    """q_k = (3k - 5/2) c_{k-1} + c_k, read off -1/lam S c termwise."""
    for k in range(1, 12):
        expected = (F(3 * k) - F(5, 2)) * wk_c_coeff(k - 1) + wk_c_coeff(k)
        assert wk_q_coeff(k) == expected


def test_wk_point_shape():
    p = wk_point(3)
    assert p.a.coeff(0) == 1 and p.a.coeff(-3) == F(-5, 24)
    assert p.b.coeff(-3) == F(7, 24)
    assert p.b.coeff(-1) == 0 and p.b.coeff(-2) == 0
    p0 = wk_point(0)
    assert p0.a == LaurentSeries.from_dict({0: 1}, 0)
    assert p0.b == LaurentSeries.from_dict({0: 1}, 0)


# ---------------------------------------------------------------------------
# normal form: build_G reads b as b - b_1 lam^-1 a
# ---------------------------------------------------------------------------


def tail_point(a: dict, b: dict, order: int | None) -> GrassmannPoint:
    """The point whose a, b have coefficient a[i], b[i] at lam^-i."""
    return GrassmannPoint(LaurentSeries.from_dict({-i: v for i, v in a.items()}, order),
                          LaurentSeries.from_dict({-i: v for i, v in b.items()}, order))


def normal_form_blocks(a: dict, b: dict, depth: int) -> list:
    """The oracle's loop matrix G_0..G_depth of the point a, b ({i: coefficient
    of lam^-i}), with b normalised by hand to b_i - b_1 a_{i-1}."""
    n = 2 * depth + 2
    a = [F(a.get(i, 0)) for i in range(n)]
    b = [F(b.get(i, 0)) - (F(b.get(1, 0)) * a[i - 1] if i else 0) for i in range(n)]
    return loop_blocks(a, b, depth)


def loop_rows(G: MatrixSeries) -> list:
    return [rows(x) for x in G.blocks(G.tail_order)]


def test_normalize_noop_when_b1_zero():
    # b_1 = 0: a and b are interleaved as they are
    c, q = wk_cq(4)
    a = [c[i // 3] if i % 3 == 0 else F(0) for i in range(10)]
    b = [q[i // 3] if i % 3 == 0 else F(0) for i in range(10)]
    assert loop_rows(build_G(wk_point(9), 4)) == loop_blocks(a, b, 4)


def test_normalize_kills_b1():
    # b - 3 lam^-1 a = 1: the loop matrix is the identity
    G = build_G(tail_point({0: 1}, {0: 1, 1: 3}, None), 3)
    assert G.blocks(3) == [EYE] + [ZERO] * 3
    assert loop_rows(G) == normal_form_blocks({0: 1}, {0: 1, 1: 3}, 3)


def test_normalize_preserves_span_data():
    a, b = {0: 1, 1: 2, 2: 5}, {0: 1, 1: 3, 2: 1}
    G = build_G(tail_point(a, b, 6), 2)
    # b_2 - 3 a_1 = 1 - 3 * 2, b_3 - 3 a_2 = -3 * 5
    assert G.block(1) == (5, -15, 2, -5)
    assert loop_rows(G) == normal_form_blocks(a, b, 2)
    # the normal form is known through min(O_b, O_a + 1)
    with pytest.raises(InsufficientDepthError, match=r"^b is only valid through lam\^-6, need lam\^-7$"):
        build_G(tail_point(a, b, 6), 3)
    with pytest.raises(InsufficientDepthError, match=r"^a is only valid through lam\^-5, need lam\^-6$"):
        build_G(GrassmannPoint(LaurentSeries.from_dict({0: 1}, 5), LaurentSeries.from_dict({0: 1}, 9)), 3)


@pytest.mark.parametrize("seed,dense,large", [(1, False, False), (2, False, True), (3, True, False),
                                              (4, True, True), (5, False, False)])
def test_build_G_reads_b_in_normal_form(seed, dense, large):
    doc = seeded_point_json(seed, 21, dense, large)
    a, b = ({i: F(t) for i, t in enumerate(doc[name]["tail"])} for name in ("a", "b"))
    assert b[1] != 0
    G = build_G(point_from_json(doc), 10)
    assert loop_rows(G) == normal_form_blocks(a, b, 10)
    assert G.block(0) == EYE


# ---------------------------------------------------------------------------
# loop matrix
# ---------------------------------------------------------------------------


def test_wk_G_blocks():
    G = wk_G(7)
    assert G.block(0) == EYE
    assert G.block(1) == (0, F(7, 24), 0, 0)
    assert G.block(2) == (0, 0, F(-5, 24), 0)
    assert G.block(3) == (F(385, 1152), 0, 0, F(-455, 1152))
    assert G.block(4) == (0, wk_q_coeff(3), 0, 0)
    assert G.block(5) == (0, 0, wk_c_coeff(3), 0)


def test_wk_G_mod3_sparsity():
    G = wk_G(13)
    U = matrix_series_inverse(G)
    for k in range(14):
        g, u = G.block(k), U.block(k)
        # entries (a11, a12, a21, a22) that may be nonzero at k mod 3
        support = {0: (0, 3), 1: (1,), 2: (2,)}[k % 3]
        assert all(g[i] == u[i] == 0 for i in range(4) if i not in support)
        # det G = 1 makes the inverse blocks the adjugates
        assert u == (g[3], -g[1], -g[2], g[0])


def test_example_point_G():
    a = LaurentSeries.from_dict({0: 1}, None)
    b = LaurentSeries.from_dict({0: 1, -3: F(1)}, None)
    G = build_G(GrassmannPoint(a, b), 4)
    assert G.block(0) == EYE
    assert G.block(1) == (0, 1, 0, 0)
    assert G.blocks(4)[2:] == [ZERO] * 3


def test_build_G_depth_guard():
    with pytest.raises(InsufficientDepthError):
        build_G(wk_point(5), 4)  # needs b through lam^-9


def det_coeffs(G: MatrixSeries) -> list[Fraction]:
    """The x^0..x^O coefficients of det G(x), in plain `Fraction`s."""
    g = G.blocks(G.tail_order)
    return [sum(g[i][0] * g[k - i][3] - g[i][1] * g[k - i][2] for i in range(k + 1))
            for k in range(len(g))]


def test_wk_det_is_one():
    assert det_coeffs(wk_G(15)) == [1] + [0] * 15
    assert verify_symmetry(z_table_recursive(wk_G(15), 1, 1), 1).notes == (
        "det G = 1 checked through lam^-15"
    )


# ---------------------------------------------------------------------------
# Z tables
# ---------------------------------------------------------------------------


def test_z_boundary_column_is_G(wk_G41):
    table = z_table_direct(wk_G41, 6, 6)
    for k in range(7):
        assert table.entry(k, 0) == wk_G41.block(k + 1)


def test_z_first_entries(wk_G41):
    table = z_table_direct(wk_G41, 3, 3)
    assert table.entry(0, 0) == (0, F(7, 24), 0, 0)
    assert table.entry(0, 1) == (0, 0, F(-5, 24), 0)


def test_affine_readout(wk_G41):
    ztable = z_table_direct(wk_G41, 3, 3)
    table = ztable.to_affine_table(7, 7, "grassmann")
    assert table.value(1, 1) == F(7, 24)
    assert table.value(0, 2) == F(-5, 24)
    assert table.value(2, 0) == F(-5, 24)
    assert table.value(0, 0) == 0
    with pytest.raises(OutOfRangeError):
        table.value(8, 0)
    # a smaller corner lowers exactly its own entries
    corner = ztable.to_affine_table(6, 3, "grassmann")
    assert (corner.max_m, corner.max_n) == (6, 3)
    assert corner.entries == {(m, n): v for (m, n), v in table.entries.items() if m <= 6 and n <= 3}
    assert ztable.affine(0, 2) == (-120, 576)  # -5/24 at grade 2, E_2 = 24^2


@pytest.mark.parametrize("m,n", [(-2, -3), (-1, 0), (0, -1), (8, 0), (9, 0), (0, 8), (8, 8)])
def test_affine_reads_only_inside_the_table(m, n):
    # Z_{k,l}, k, l <= 3 holds A_{m,n} for m, n <= 7; a negative index would
    # wrap round to another entry's lift and a large one overrun the rows
    table = z_table_direct(wk_G(7), 3, 3)
    assert F(*table.affine(7, 7)) == table.entry(3, 3)[1]
    block = rf"Z\[{m // 2},{n // 2}\]"
    with pytest.raises(OutOfRangeError, match=rf"^A\[{m},{n}\] outside the table \(block {block}\)$"):
        table.affine(m, n)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_every_read_just_outside_a_triangle_is_out_of_range(n):
    # the triangle k + l < n: each (k, n - k), and each negative index, is
    # refused by `holds` before any row is indexed
    table = wk_z_table(n)
    assert [len(row) for row in table.lifted] == list(range(n, 0, -1))
    outside = [(k, n - k) for k in range(n + 1)] + [(-1, 0), (0, -1), (-1, n), (n, -1), (-3, -2)]
    for k, l in outside:
        assert not table.holds(k, l)
        with pytest.raises(OutOfRangeError):
            table.entry(k, l)
        for m, p in [(2 * k, 2 * l), (2 * k + 1, 2 * l + 1), (2 * k, 2 * l + 1), (2 * k + 1, 2 * l)]:
            with pytest.raises(OutOfRangeError):
                table.affine(m, p)
    for k in range(n):  # the edge itself is read
        assert table.holds(k, n - 1 - k)
        assert F(*table.affine(2 * k + 1, 2 * (n - 1 - k) + 1)) == table.entry(k, n - 1 - k)[1]


def test_tables_agree_wk(wk_G41):
    assert verify_z_equivalence(z_table_direct(wk_G41, 6, 6)).passed


def test_recursion_identity_on_direct_table(wk_G41):
    table = z_table_direct(wk_G41, 6, 6)
    assert verify_z_recursion_identity(table).passed


# (K, L) shapes off the square: the CLI asks for these (e.g. `affine --max-m 7 --max-n 3`)
EDGE_SHAPES = [(3, 1), (1, 4), (0, 0), (0, 5), (5, 0), (4, 2)]


def corner(table, K: int, L: int) -> tuple:
    """The lifted blocks Z_{k,l}, k <= K, l <= L, of a table that holds them."""
    assert table.holds(K, L)
    return tuple(row[: L + 1] for row in table.lifted[: K + 1])


@pytest.mark.parametrize("K,L", EDGE_SHAPES)
def test_recursive_matches_direct_on_edge_shapes(wk_G41, K, L):
    # a named corner is kept as the K x L rectangle, on a loop matrix deeper
    # than it reads and on one exactly as deep
    assert z_table_recursive(wk_G41, K, L).lifted == z_table_direct(wk_G41, K, L).lifted
    G = build_G(GrassmannPoint(
        LaurentSeries.from_dict({0: 1, -1: 2, -2: F(1, 3), -4: -1}, None),
        LaurentSeries.from_dict({0: 1, -1: 1, -3: F(5, 2)}, None),
    ), K + L + 1)
    table = z_table_recursive(G, K, L)  # K + 1 rows of L + 1 blocks, no more
    assert [len(row) for row in table.lifted] == [L + 1] * (K + 1)
    assert table.lifted == z_table_direct(G, K, L).lifted


def test_one_triangle_holds_every_shape(wk_G41):
    table = z_table_recursive(wk_G41)
    assert [len(row) for row in table.lifted] == list(range(41, 0, -1))
    for K, L in EDGE_SHAPES:
        assert corner(table, K, L) == z_table_direct(wk_G41, K, L).lifted


def corrupt_inverse_block(j, depth=41):
    """A fresh copy of the Witten-Kontsevich loop matrix wk_G(depth) whose
    integer inverse has the seed u_j = E_j U_j moved by E_j in its (1,2)
    entry: U_j off by one.  The memoised `wk_G` object is never touched."""
    G = MatrixSeries(wk_G(depth).grades, wk_G(depth).lifted)
    u = list(wk_G(depth).inverse)
    u[j] = (u[j][0], u[j][1] + G.grades[j], u[j][2], u[j][3])
    vars(G)["inverse"] = tuple(u)
    return G


def on_corrupt_inverse(table, j):
    """The blocks of `table` paired with `corrupt_inverse_block(j)`."""
    return ZTable(table.lifted, corrupt_inverse_block(j))


@pytest.mark.parametrize("j", [1, 2, 4, 6, 7])
def test_recursion_boundary_check_catches_a_corrupt_inverse(j):
    # Z[j-1,0] moves by exactly the corruption of U_j, so the left-column
    # check Z[k,0] = G_{k+1}, run down the whole triangle, sees every seed
    # U_1..U_n, those beyond the 3x3 corner the caller reads included
    with pytest.raises(ExactComputationError, match="boundary mismatch"):
        z_table_recursive(corrupt_inverse_block(j), 3, 3)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_z_generating_series_catches_a_corrupt_inverse(wk_G41, j):
    # the lam^0 coefficient of G (lam^j G^-1)_+ is G_0 U_j + ... and must be
    # 0; one table row keeps the negative powers from filling the failure cap
    table = on_corrupt_inverse(z_table_direct(wk_G41, 0, 3), j)
    rep = verify_z_generating_series(table, 3)
    assert not rep.passed
    assert any(f"k={j}, lam^0:" in f for f in rep.failures)


@pytest.mark.parametrize("j", [1, 2, 4, 7])
def test_generating_function_catches_a_corrupt_inverse(wk_G41, j):
    # the anti-diagonal sum j of the numerator is -(G U)_j, which moves by the
    # corruption of U_j; bi-degree 3 reads the seeds U_1..U_7
    table = on_corrupt_inverse(z_table_direct(wk_G41, 3, 3), j)
    rep = verify_generating_function(table, 3)
    assert not rep.passed
    assert rep.failures == [f"anti-diagonal sum {j} of the numerator is [[0, -1], [0, 0]]"]


# ---------------------------------------------------------------------------
# the loop-matrix layer against the plain-Fraction oracle
# ---------------------------------------------------------------------------

P61 = 2**61 - 1  # a prime of 61 bits: no grade of a point over Z[1/P61] is 1


@st.composite
def lattice_points(draw, depth=12):
    """(a, b) coefficient lists of a normalized point through lam^-(2 depth + 1),
    over one family of denominators, with whole loop-matrix blocks zeroed."""
    family = draw(st.sampled_from(["1", "7", "2^a3^b", "P61"]))

    def value():
        n = draw(st.integers(min_value=-9, max_value=9))
        if family == "2^a3^b":
            return F(n, 2 ** draw(st.integers(0, 6)) * 3 ** draw(st.integers(0, 4)))
        return F(n, {"1": 1, "7": 7, "P61": P61}[family])

    n = 2 * depth + 2
    a = [F(1)] + [value() for _ in range(1, n)]
    b = [F(1), F(0)] + [value() for _ in range(2, n)]
    for k in draw(st.sets(st.integers(1, depth))):  # G_k = 0
        a[2 * k] = a[2 * k - 1] = b[2 * k] = b[2 * k + 1] = F(0)
    return a, b


def entry_rows(table) -> list:
    """Every entry of a Z table as nested lists of `Fraction`s, read by `entry`."""
    return [[rows(table.entry(k, l)) for l in range(len(row))] for k, row in enumerate(table.lifted)]


@given(lattice_points())
@settings(max_examples=25, deadline=None)
def test_loop_matrix_layer_matches_the_oracle(ab):
    a, b = ab
    depth = 12
    G = build_G(GrassmannPoint(
        LaurentSeries.from_dict({-i: v for i, v in enumerate(a)}, len(a) - 1),
        LaurentSeries.from_dict({-i: v for i, v in enumerate(b)}, len(b) - 1),
    ), depth)
    g = loop_blocks(a, b, depth)
    u = loop_inverse(g)
    assert [rows(x) for x in G.blocks(depth)] == g
    assert [rows(x) for x in matrix_series_inverse(G).blocks(depth)] == u
    # every (k, l) with k + l + 1 <= depth: the recursion's triangle whole,
    # and the closed formula through each shape of the staircase
    want = closed_z(g, u, depth - 1, depth - 1)
    assert entry_rows(z_table_recursive(G)) == want
    for K in range(depth):
        L = depth - 1 - K
        assert entry_rows(z_table_direct(G, K, L)) == [row[: L + 1] for row in want[: K + 1]]


def test_wk_tables_match_the_oracle(wk_G41, wk_ztable20):
    c, q = wk_cq(28)
    a = [c[i // 3] if i % 3 == 0 else F(0) for i in range(84)]
    b = [q[i // 3] if i % 3 == 0 else F(0) for i in range(84)]
    g = loop_blocks(a, b, 41)
    want = closed_z(g, loop_inverse(g), 20, 20)
    assert entry_rows(wk_ztable20) == want
    assert [row[:21] for row in entry_rows(z_table_recursive(wk_G41, 20, 20))[:21]] == want


def test_insufficient_depth_is_an_error():
    with pytest.raises(InsufficientDepthError):
        z_table_direct(wk_G(5), 3, 3)  # needs order 7
    with pytest.raises(InsufficientDepthError):
        z_table_recursive(wk_G(5), 3, 3)


def test_example_point_affine_coordinates():
    c = F(4, 7)
    a = LaurentSeries.from_dict({0: 1}, None)
    b = LaurentSeries.from_dict({0: 1, -3: c}, None)
    G = build_G(GrassmannPoint(a, b), 9)
    direct = z_table_direct(G, 4, 4)
    assert direct.to_affine_table(9, 9, "custom").entries == {(1, 1): c}
    assert verify_z_equivalence(direct).passed


# random big-cell points: the two table constructions are mutual oracles
small_rationals = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def random_points(draw, depth=19):
    a = {0: F(1)}
    b = {0: F(1)}
    for e in range(1, depth + 1):
        a[-e] = draw(small_rationals)
        b[-e] = draw(small_rationals)
    b[-1] = F(0)
    return GrassmannPoint(
        LaurentSeries.from_dict(a, depth), LaurentSeries.from_dict(b, depth)
    )


@given(random_points())
@settings(max_examples=12, deadline=None)
def test_tables_agree_on_random_points(p):
    G = build_G(p, 9)
    table = z_table_direct(G, 4, 4)
    assert verify_z_equivalence(table).passed
    assert verify_z_recursion_identity(table).passed
    assert verify_generating_function(table, 4).passed
    assert verify_z_generating_series(table, 2).passed


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------


def test_generating_function_wk(wk_G41):
    table = z_table_direct(wk_G41, 5, 5)
    assert verify_generating_function(table, 5).passed


def test_generating_function_identity_matrix():
    from kdvtau.series import MatrixSeries

    eye = MatrixSeries.from_blocks((EYE,) + (ZERO,) * 9)
    table = z_table_direct(eye, 3, 3)
    assert all(table.entry(k, l) == ZERO for k in range(4) for l in range(4))
    assert verify_generating_function(table, 3).passed


def test_symmetry_wk(wk_G41):
    table = z_table_direct(wk_G41, 3, 3)
    rep = verify_symmetry(table, 3)
    assert rep.passed and not rep.skipped


def test_symmetry_scalar_form(wk_G41):
    table = z_table_direct(wk_G41, 6, 6).to_affine_table(13, 13, "grassmann")
    for m in range(12):
        for n in range(12):
            sign = 1 if (m + n) % 2 == 0 else -1
            assert table.value(n, m) == sign * table.value(m, n)


def test_symmetry_example_point():
    # det G = 1 exactly for the worked-example matrix; A_{1,1} is self-symmetric
    a = LaurentSeries.from_dict({0: 1}, None)
    b = LaurentSeries.from_dict({0: 1, -3: F(2, 5)}, None)
    G = build_G(GrassmannPoint(a, b), 7)
    table = z_table_direct(G, 3, 3)
    rep = verify_symmetry(table, 3)
    assert rep.passed and not rep.skipped


def test_symmetry_skips_when_det_not_one():
    a = LaurentSeries.from_dict({0: 1, -2: 1}, 9)
    b = LaurentSeries.from_dict({0: 1}, 9)
    G = build_G(GrassmannPoint(a, b), 4)
    table = z_table_direct(G, 1, 1)
    rep = verify_symmetry(table, 1)
    assert rep.skipped and not rep.passed
    assert rep.notes == "det G != 1 (first deviation at lam^-1); symmetry not applicable"


@pytest.mark.parametrize("blocks", [
    ((1, 3, 0, 2), (0, 0, 0, 0)),  # det = (1 + x)(1 + 2x) - 3x * 0
    ((0, F(1, 2), 0, 0), (F(1, 3), 0, 0, 0), (0, 0, 0, 0)),  # first x^2
    ((0, F(1, 2), F(2, 3), 0), (F(1, 5), 0, 0, F(-1, 7)), (0, 0, F(3, 4), 0), (0, 1, 0, 0)),
], ids=["x1", "x2", "fractions"])
def test_symmetry_skip_names_the_first_deviation_of_det_G(blocks):
    # the precondition runs on the graded lift; the exponent it reports is the
    # first nonzero coefficient of det G - 1 in plain Fractions
    G = MatrixSeries.from_blocks((EYE,) + blocks)
    first = next(k for k, c in enumerate(det_coeffs(G)) if c != (k == 0))
    rep = verify_symmetry(z_table_direct(G, 0, 0), 0)
    assert rep.skipped and not rep.passed
    assert rep.notes == f"det G != 1 (first deviation at lam^-{first}); symmetry not applicable"


def test_cq_identity_small_and_deep():
    assert verify_cq_identity(0).passed
    assert verify_cq_identity(3).passed
    assert verify_cq_identity(30).passed


def test_kac_schwarz_report():
    rep = verify_kac_schwarz(30)
    assert rep.passed
    assert "lam^-28" in rep.depth and "lam^-30" in rep.depth


def perturbed_report_lines(monkeypatch, depth: int) -> list[str]:
    """The c/q and Kac-Schwarz report lines at `depth` with one coefficient of
    c (then q) raised by 1/7, at lam^-e for each e in 1, 3, 9, 10, 29 (e
    capped at depth, so at depth 0 the constant term), one mutation at a time."""
    wk = grassmann.wk_point
    lines = []
    for name in ("a", "b"):
        for e in sorted({min(e, depth) for e in (1, 3, 9, 10, 29)}):
            point = wk(depth)
            series = getattr(point, name)
            bumped = dict(series.coeffs)
            bumped[-e] = bumped.get(-e, 0) + F(1, 7)
            # a namespace, not a GrassmannPoint, so that c_0 or q_0 may move
            mutant = SimpleNamespace(**{"a": point.a, "b": point.b,
                                        name: LaurentSeries.from_dict(bumped, depth)})
            monkeypatch.setattr(grassmann, "wk_point", lambda d: mutant)
            lines += [verify_cq_identity(depth).line(), verify_kac_schwarz(depth).line()]
    monkeypatch.setattr(grassmann, "wk_point", wk)
    return lines


PERTURBED_DIGESTS = {
    0: "07368209ca8fbdfb4dd17881ca6f09e3013dbb0e932b81b1afc9f4fe4a1a5a24",
    1: "727bfb7457504fa39dbf27f5442627ba57d8d1fabe99396d593cb6185eb44756",
    12: "c965cdbff07da2afbcca5a2fb8c88ed9230e1e774b7da3a23932c92ee7d1a5be",
    30: "6bc9a9efa0c526c86413d4876d9f46aee70d7fb184e536d7d3642f35351433c0",
}


@pytest.mark.parametrize("depth", PERTURBED_DIGESTS)
def test_cq_and_kac_schwarz_failure_texts_are_pinned(monkeypatch, depth):
    text = "\n".join(perturbed_report_lines(monkeypatch, depth))
    assert hashlib.sha256(text.encode()).hexdigest() == PERTURBED_DIGESTS[depth]


def test_cq_and_kac_schwarz_failures_name_the_pinned_exponents(monkeypatch):
    # c_10 += 1/7 at depth 30: the c/q residual and the ODE residual are named
    # at their highest nonzero exponent (lam^-10 of lam^-10, -16, ...; lam^-11
    # of lam^-11, -14), the q mismatch at its lowest (lam^-13 of lam^-13, -10)
    lines = perturbed_report_lines(monkeypatch, 30)
    assert lines[6:8] == [
        "cq-identity: FAIL (through lam^-30)\n"
        "  first failure: coefficient of lam^-10 is 2/7, expected 0",
        "kac-schwarz: FAIL (ODE residual through lam^-28, q-relation through lam^-30)\n"
        "  first failure: ODE residual at lam^-11 is 20/7\n"
        "  first failure: q mismatch at lam^-13: derived 3/2 vs closed form 0",
    ]
    # at depths 0 and 1 the ODE window is a positive power of lam
    assert perturbed_report_lines(monkeypatch, 0)[:2] == [
        "cq-identity: FAIL (through lam^-0)\n"
        "  first failure: coefficient of lam^0 is 2/7, expected 0",
        "kac-schwarz: FAIL (ODE residual through lam^2, q-relation through lam^-0)\n"
        "  first failure: q mismatch at lam^0: derived 8/7 vs closed form 1",
    ]
    assert perturbed_report_lines(monkeypatch, 1)[2:] == [
        "cq-identity: PASS (through lam^-1)",
        "kac-schwarz: FAIL (ODE residual through lam^1, q-relation through lam^-1)\n"
        "  first failure: q mismatch at lam^-1: derived 0 vs closed form 1/7",
    ]


def test_z_generating_series_wk(wk_G41):
    table = z_table_direct(wk_G41, 20, 20)
    assert verify_z_generating_series(table, 5).passed


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------


def test_point_json_round_trip():
    p = wk_point(12)
    doc = point_to_json(p)
    q = point_from_json(doc)
    assert q.a == p.a and q.b == p.b


def test_point_read_to_a_depth_builds_the_same_loop_matrix():
    # the CLI reads a point file only as deep as its loop matrix needs
    doc = seeded_point_json(5, 21, True, False)
    full = point_from_json(doc)
    for depth in range(11):
        cut = point_from_json(doc, depth)
        assert (cut.a.tail_order, cut.b.tail_order) == (2 * depth, 2 * depth + 1)
        assert build_G(cut, depth) == build_G(full, depth)
    with pytest.raises(InsufficientDepthError, match=r"^a is only valid through lam\^-21, need lam\^-22$"):
        point_from_json(doc, 11)


def test_affine_table_exports(wk_G41):
    table = z_table_direct(wk_G41, 2, 2).to_affine_table(5, 5, "grassmann")
    doc = table.to_json_dict()
    assert doc["source"] == "grassmann"
    assert [1, 1, "7/24"] in doc["entries"]
    assert all(entry[2] != "0" for entry in doc["entries"])
    csv_text = table.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "," + ",".join(str(n) for n in range(6))
    assert lines[2].split(",")[2] == "7/24"  # row m=1, col n=1


# ---------------------------------------------------------------------------
# the Z-table verifiers on generic points, whose lift is not multiplicative
# ---------------------------------------------------------------------------


def fraction_holds(name: str, G: MatrixSeries, table, depth: int) -> bool:
    """The identity checked by verifier `name`, in nested lists of `Fraction`s
    read by `entry` and combined by the oracle helpers."""
    Z, n = (lambda k, l: rows(table.entry(k, l))), range(depth + 1)
    g = [rows(b) for b in G.blocks(G.tail_order)]
    if name == "equivalence":
        other = z_table_recursive(G, depth, depth)
        return all(Z(k, l) == rows(other.entry(k, l)) for k in n for l in n)
    if name == "recursion":
        return all(_negsum([Z(k, l + 1), _negsum([Z(k + 1, l)])]) == _matmul(Z(k, 0), Z(0, l))
                   for k in range(depth) for l in range(depth))
    if name == "symmetry":  # Z_{l,k} = -adj Z_{k,l}
        return all(Z(l, k) == [[-z[1][1], z[0][1]], [z[1][0], -z[0][0]]]
                   for k in n for l in n for z in [Z(k, l)])
    u = loop_inverse(g)
    if name == "genfun":  # Q_{k,l} = -sum_r G_{k-r} U_{l+1+r}
        return all(Z(k, l) == _negsum(_matmul(g[k - r], u[l + 1 + r]) for r in range(k + 1))
                   for k in n for l in n)
    # genseries: lam^e coefficient sum_j G_{k-e-j} U_j of G (lam^k G^-1)_+, k <= 2
    for k in range(3):
        l_top = min(G.tail_order - k - 1, depth)
        for e in range(-(l_top + 1), k + 1):
            minus_got = _negsum(_matmul(g[k - e - j], u[j]) for j in range(min(k, k - e) + 1))
            want = rows(EYE if e == k else ZERO) if e >= 0 else Z(-e - 1, k)
            if minus_got != _negsum([want]):
                return False
    return True


VERIFIERS = {
    "equivalence": lambda table, depth: verify_z_equivalence(table),
    "recursion": lambda table, depth: verify_z_recursion_identity(table),
    "symmetry": lambda table, depth: verify_symmetry(table, depth),
    "genfun": lambda table, depth: verify_generating_function(table, depth),
    "genseries": lambda table, depth: verify_z_generating_series(table, 2),
}


@pytest.mark.parametrize("seed", range(2, 8))  # seed 1 draws a lift with every ratio 1
@pytest.mark.parametrize("name", VERIFIERS)
def test_z_verifiers_on_a_non_multiplicative_lift(name, seed):
    G = det_one_G(seed)
    E = G.grades
    assert det_coeffs(G) == [1] + [0] * G.tail_order
    assert any(E[i + j] != E[i] * E[j] for i in range(len(E)) for j in range(len(E) - i))
    table = z_table_direct(G, 4, 4)
    rep = VERIFIERS[name](table, 4)
    assert rep.passed and not rep.skipped
    assert fraction_holds(name, G, table, 4)
    # z_{1,1} moved by 1 moves Z_{1,1} by 1/E_3 only
    rows = [list(row) for row in table.lifted]
    rows[1][1] = (rows[1][1][0] + 1,) + rows[1][1][1:]
    bumped = ZTable(tuple(map(tuple, rows)), G)
    rep = VERIFIERS[name](bumped, 4)
    assert not rep.passed and not rep.skipped and rep.failures
    assert not fraction_holds(name, G, bumped, 4)

