from fractions import Fraction

import pytest

from kdvtau import spin3
from kdvtau.errors import InconsistentDivisionError, InsufficientDepthError, OutOfRangeError
from kdvtau.grassmann import ZTable, wk_G, z_table_direct
from kdvtau.series import MatrixSeries
from kdvtau.spin3 import (
    r_matrix,
    v_table,
    verify_R_from_G,
    verify_thm2,
    verify_v_relations,
)

from oracles import _matmul, _negsum, rows, v_matrices

F = Fraction
EYE = (1, 0, 0, 1)
ETA = [[0, 1], [1, 0]]


def star(block) -> list:
    """R*_k = eta R_k^T eta, in nested lists."""
    (a, b), (c, d) = rows(block)
    return _matmul(_matmul(ETA, [[a, c], [b, d]]), ETA)


def test_r_blocks():
    R = r_matrix(4)
    assert R.block(0) == EYE
    assert R.block(1) == (0, F(-7, 24), F(5, 24), 0)
    assert R.block(2) == (F(-455, 1152), 0, 0, F(385, 1152))
    # parity sparsity: diagonal at even order, anti-diagonal at odd
    for k in range(5):
        a11, a12, a21, a22 = R.block(k)
        if k % 2 == 0:
            assert a12 == 0 and a21 == 0
        else:
            assert a11 == 0 and a22 == 0


def test_r_depth_guard():
    with pytest.raises(InsufficientDepthError):
        r_matrix(3).block(4)


def test_r_star_swaps_diagonal():
    R = r_matrix(2)
    assert star(R.block(2)) == [[F(385, 1152), 0], [0, F(-455, 1152)]]
    assert star(R.block(1)) == rows(R.block(1))


def test_r_from_loop_matrix_low_coefficients():
    rep = verify_R_from_G(6)
    assert rep.passed


def test_r_from_loop_matrix_depth12():
    assert verify_R_from_G(12).passed


def test_r_from_loop_matrix_reports_a_moved_R_entry(monkeypatch):
    # R_2 (1,1) = q_2 lands on U_3 (1,1) = -455/1152
    true_R = spin3.r_matrix

    def bumped(depth):
        blocks = true_R(depth).blocks(depth)
        blocks[2] = (blocks[2][0] + 1, *blocks[2][1:])
        return MatrixSeries.from_blocks(blocks)

    monkeypatch.setattr(spin3, "r_matrix", bumped)
    rep = verify_R_from_G(6)
    assert not rep.passed and rep.failures == ["(1,1) z^2: 697/1152 vs -455/1152"]


def test_r_from_loop_matrix_reports_an_inverse_entry_off_the_lattice(monkeypatch):
    # entry (1,2) of U_3 would land at z^(7/3): it must vanish
    true_inverse = spin3.matrix_series_inverse

    def bumped(G, order):
        U = true_inverse(G, order)
        lifted = list(U.lifted)
        a11, a12, a21, a22 = lifted[3]
        lifted[3] = (a11, a12 + U.grades[3], a21, a22)
        return MatrixSeries(U.grades, tuple(lifted))

    monkeypatch.setattr(spin3, "matrix_series_inverse", bumped)
    rep = verify_R_from_G(6)
    assert not rep.passed and rep.failures == ["U_3 (1,2): 1 vs 0"]


def test_v_first_block_from_linear_terms():
    V = v_table(2)
    # (w+z) division forces V_{0,0} from the degree-1 numerator blocks
    assert V.entry(0, 0) == (0, F(-7, 24), F(5, 24), 0)
    assert V.entry(0, 1) == (F(455, 1152), 0, 0, F(-385, 1152))
    assert V.entry(1, 0) == (F(-385, 1152), 0, 0, F(455, 1152))


@pytest.mark.parametrize("size", range(9))
def test_v_table_matches_the_fraction_quotient(size):
    V, oracle = v_table(size), v_matrices(size)
    assert all(rows(V.entry(k, l)) == oracle[k][l] for k in range(size + 1) for l in range(size + 1))


def test_r_lift_is_not_multiplicative():
    # unlike the Witten-Kontsevich G (every E_{i+j} = E_i E_j), the lift of R
    # scales products, so `verify all` runs the ratio handling of the lift
    ratios = [c for row in r_matrix(15).ratios for c in row]
    assert len(ratios) == 136 and sum(c != 1 for c in ratios) == 83


def test_v_pairwise_sum_at_origin():
    V = v_table(2)
    minus_lhs = _negsum([rows(V.entry(0, 1)), rows(V.entry(1, 0))])
    assert minus_lhs == _matmul(rows(V.entry(0, 0)), rows(V.entry(0, 0)))


def test_v_adjoint_symmetry_at_10():
    V = v_table(2)
    assert star(V.entry(1, 0)) == rows(V.entry(0, 1))


def bump_r_matrix(monkeypatch, m: int) -> None:
    """Move entry (1,1) of R_m by 1 in every R series `spin3` reads.  The
    coefficient of z^m in R*(-z) R(z) then moves by diag(1, (-1)^m), so the
    division by w+z fails first at column m (a (1,2) bump at odd m cancels)."""
    true_R = spin3.r_matrix

    def bumped(depth):
        blocks = true_R(depth).blocks(depth)
        if m <= depth:
            blocks[m] = (blocks[m][0] + 1, *blocks[m][1:])
        return MatrixSeries.from_blocks(blocks)

    monkeypatch.setattr(spin3, "r_matrix", bumped)


# the division check's text for the bumps of R_m, m <= size + 1, it has always caught
DIVISION_ERRORS = {
    1: "[[0, -7/24], [5/24, 1]] vs [[1, -7/24], [5/24, 0]]",
    2: "[[-455/1152, 0], [0, -767/1152]] vs [[697/1152, 0], [0, 385/1152]]",
    3: "[[0, -95095/82944], [85085/82944, 1]] vs [[1, -95095/82944], [85085/82944, 0]]",
    4: "[[-40415375/7962624, 0], [0, 29219521/7962624]] "
       "vs [[-32452751/7962624, 0], [0, 37182145/7962624]]",
}


@pytest.mark.parametrize("m", DIVISION_ERRORS)
def test_v_division_error_text_is_pinned(monkeypatch, m):
    bump_r_matrix(monkeypatch, m)
    with pytest.raises(InconsistentDivisionError) as err:
        v_table(3)
    assert str(err.value) == f"numerator not divisible by w+z at boundary column {m}: {DIVISION_ERRORS[m]}"


@pytest.mark.parametrize("size", [2, 3, 5])
@pytest.mark.parametrize("where", ["1", "size+1", "size+2", "2size+1"])
def test_v_table_checks_every_column_it_reads(monkeypatch, size, where):
    # the quotient reads R through z^(2 size + 1): a bump anywhere there raises
    m = {"1": 1, "size+1": size + 1, "size+2": size + 2, "2size+1": 2 * size + 1}[where]
    bump_r_matrix(monkeypatch, m)
    with pytest.raises(InconsistentDivisionError, match=f"boundary column {m}: "):
        v_table(size)


def test_v_relations_suite():
    assert verify_v_relations(3).passed


def test_v_relations_report_a_broken_adjoint_symmetry(monkeypatch):
    # V_{2,1} moved by diag(1, 0): V*_{1,2} = V_{2,1} fails at (k,l) = (1,2),
    # between the pairwise sums at (1,1) and (2,0) that read V_{2,1}
    true_V = spin3.v_table

    def bumped(size):
        V = true_V(size)
        rows = [list(row) for row in V.lifted]
        rows[2][1] = (rows[2][1][0] + V.series.grades[4], *rows[2][1][1:])
        return ZTable(tuple(map(tuple, rows)), V.series)

    monkeypatch.setattr(spin3, "v_table", bumped)
    failures = verify_v_relations(3).failures
    assert [f.split(":")[0] for f in failures] == [
        "pairwise sum at (k,l)=(1,1)", "adjoint symmetry at (k,l)=(1,2)", "pairwise sum at (k,l)=(2,0)"]


def test_v_range_guard():
    V = v_table(2)
    with pytest.raises(OutOfRangeError):
        V.entry(3, 0)


def test_thm2_origin_cases():
    ztab = z_table_direct(wk_G(8), 3, 3)
    V = v_table(2)

    def Z(k, l):
        return rows(ztab.entry(k, l))

    assert rows(V.entry(0, 1)) == Z(0, 2)
    assert rows(V.entry(0, 0)) == _negsum([Z(0, 1), Z(0, 0)])
    assert rows(V.entry(1, 0)) == _negsum([Z(2, 0)])
    assert _negsum([rows(V.entry(1, 1))]) == _negsum([Z(2, 2), Z(2, 1)])


def test_thm2_suite():
    ztab = z_table_direct(wk_G(18), 8, 8)
    assert verify_thm2(ztab, 2, 2).passed


def test_thm2_depth_guard():
    ztab = z_table_direct(wk_G(8), 3, 3)
    with pytest.raises(InsufficientDepthError):
        verify_thm2(ztab, 3, 3)
