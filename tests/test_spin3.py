from fractions import Fraction

import pytest

from kdvtau.errors import InsufficientDepthError, OutOfRangeError
from kdvtau.grassmann import wk_G, z_table_direct
from kdvtau.series import M2
from kdvtau.spin3 import (
    r_matrix,
    v_table,
    verify_R_from_G,
    verify_thm2,
    verify_v_relations,
)

F = Fraction


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
    assert R.block(2).swap_diagonal() == M2.diag(F(385, 1152), F(-455, 1152))
    assert R.block(1).swap_diagonal() == R.block(1)


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


def test_v_pairwise_sum_at_origin():
    V = v_table(2)
    lhs = V.entry(0, 1) + V.entry(1, 0)
    assert lhs == -(V.entry(0, 0) @ V.entry(0, 0))


def test_v_adjoint_symmetry_at_10():
    V = v_table(2)
    assert V.entry(1, 0).swap_diagonal() == V.entry(0, 1)


def test_v_relations_suite():
    assert verify_v_relations(3).passed


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
