from fractions import Fraction

import pytest

from kdvtau import spin3
from kdvtau.errors import InconsistentDivisionError, InsufficientDepthError, OutOfRangeError
from kdvtau.grassmann import ZTable, wk_G, z_table_direct
from kdvtau.series import M2, MatrixSeries
from kdvtau.spin3 import (
    r_matrix,
    v_table,
    verify_R_from_G,
    verify_thm2,
    verify_v_relations,
)

from oracles import v_matrices

F = Fraction
ETA = M2.of(0, 1, 1, 0)


def star(m: M2) -> M2:
    """R*_k = eta R_k^T eta."""
    return ETA @ M2(m.a11, m.a21, m.a12, m.a22) @ ETA


def test_r_blocks():
    R = r_matrix(4)
    assert R.block(0) == M2.identity()
    assert R.block(1) == M2.of(0, F(-7, 24), F(5, 24), 0)
    assert R.block(2) == M2.diag(F(-455, 1152), F(385, 1152))
    # parity sparsity: diagonal at even order, anti-diagonal at odd
    for k in range(5):
        b = R.block(k)
        if k % 2 == 0:
            assert b.a12 == 0 and b.a21 == 0
        else:
            assert b.a11 == 0 and b.a22 == 0


def test_r_depth_guard():
    with pytest.raises(InsufficientDepthError):
        r_matrix(3).block(4)


def test_r_star_swaps_diagonal():
    R = r_matrix(2)
    assert star(R.block(2)) == M2.diag(F(385, 1152), F(-455, 1152))
    assert star(R.block(1)) == R.block(1)


def test_r_from_loop_matrix_low_coefficients():
    rep = verify_R_from_G(6)
    assert rep.passed


def test_r_from_loop_matrix_depth12():
    assert verify_R_from_G(12).passed


def test_v_first_block_from_linear_terms():
    V = v_table(2)
    # (w+z) division forces V_{0,0} from the degree-1 numerator blocks
    assert V.entry(0, 0) == M2.of(0, F(-7, 24), F(5, 24), 0)
    assert V.entry(0, 1) == M2.diag(F(455, 1152), F(-385, 1152))
    assert V.entry(1, 0) == M2.diag(F(-385, 1152), F(455, 1152))


@pytest.mark.parametrize("size", range(9))
def test_v_table_matches_the_fraction_quotient(size):
    V, oracle = v_table(size), v_matrices(size)
    assert all(V.entry(k, l).rows() == oracle[k][l] for k in range(size + 1) for l in range(size + 1))


def test_r_lift_is_not_multiplicative():
    # unlike the Witten-Kontsevich G (every E_{i+j} = E_i E_j), the lift of R
    # scales products, so `verify all` runs the ratio handling of the lift
    ratios = [c for row in r_matrix(15).ratios for c in row]
    assert len(ratios) == 136 and sum(c != 1 for c in ratios) == 83


def test_v_pairwise_sum_at_origin():
    V = v_table(2)
    lhs = V.entry(0, 1) + V.entry(1, 0)
    assert lhs == -(V.entry(0, 0) @ V.entry(0, 0))


def test_v_adjoint_symmetry_at_10():
    V = v_table(2)
    assert star(V.entry(1, 0)) == V.entry(0, 1)


def bump_r_matrix(monkeypatch, m: int) -> None:
    """Move entry (1,1) of R_m by 1 in every R series `spin3` reads.  The
    coefficient of z^m in R*(-z) R(z) then moves by diag(1, (-1)^m), so the
    division by w+z fails first at column m (a (1,2) bump at odd m cancels)."""
    true_R = spin3.r_matrix

    def bumped(depth):
        blocks = true_R(depth).blocks(depth)
        if m <= depth:
            blocks[m] = blocks[m] + M2.of(1, 0, 0, 0)
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
        return ZTable(V.max_k, V.max_l, tuple(map(tuple, rows)), V.series)

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
    assert V.entry(0, 1) == ztab.entry(0, 2)
    assert V.entry(0, 0) == -ztab.entry(0, 1) - ztab.entry(0, 0)
    assert V.entry(1, 0) == -ztab.entry(2, 0)
    assert V.entry(1, 1) == ztab.entry(2, 2) + ztab.entry(2, 1)


def test_thm2_suite():
    ztab = z_table_direct(wk_G(18), 8, 8)
    assert verify_thm2(ztab, 2, 2).passed


def test_thm2_depth_guard():
    ztab = z_table_direct(wk_G(8), 3, 3)
    with pytest.raises(InsufficientDepthError):
        verify_thm2(ztab, 3, 3)
