from fractions import Fraction

from kdvtau.grassmann import AffineTable, wk_G, z_table_recursive
from kdvtau.zhou import (
    B_poly,
    b_seq,
    combinatorial_lhs,
    combinatorial_rhs,
    rescale_B,
    verify_Bn_recursion,
    verify_b_symmetry,
    verify_combinatorial_identity,
    verify_two_step_recursion,
    verify_zhou_match,
    zhou_affine_table,
)

from oracles import zhou_rescaled

F = Fraction


def test_b_seq_values():
    assert b_seq(0) == 1
    assert b_seq(1) == 105
    assert b_seq(2) == F(45045, 2)
    # direct oracle: 2^k (6k+1)!! / (2k)! by raw products
    for k in range(6):
        df = 1
        for i in range(6 * k + 1, 0, -2):
            df *= i
        fact = 1
        for i in range(1, 2 * k + 1):
            fact *= i
        assert b_seq(k) == F(2**k * df, fact)


def test_B_poly_values():
    assert B_poly(0, 7) == 0
    assert B_poly(1, 3) == 18
    assert B_poly(1, F(-11, 5)) == 18  # degree 0 in x
    assert B_poly(2, 1) == F(1, 6) * (108 * b_seq(1) + 108**2 * b_seq(0) * 3) == 7722


def test_B_poly_matches_definition():
    # (x+n)_[j-1] by an explicit product; integer x runs through zero and
    # negative factors
    for x in list(range(-15, 6)) + [F(-11, 5), F(7, 3)]:
        for n in range(13):
            acc = F(0)
            for j in range(1, n + 1):
                falling = F(1)
                for i in range(j - 1):
                    falling *= x + n - i
                acc += F(108) ** j * b_seq(n - j) * falling
            assert B_poly(n, x) == acc / 6, (n, x)


def test_support_pattern():
    """B is nonzero exactly on the support row + col = 2 (mod 3)."""
    for row in range(31):
        for col in range(31):
            assert (rescale_B(row, col) != 0) == ((row + col) % 3 == 2), (row, col)


def test_rescaled_values():
    assert rescale_B(2, 0) == F(-5, 24)
    assert rescale_B(1, 1) == F(7, 24)
    assert rescale_B(0, 0) == 0
    assert rescale_B(0, 2) == F(-5, 24)


def test_family_equality():
    for m in range(1, 6):
        for n in range(0, 5):
            assert rescale_B(3 * m - 3, 3 * n + 2) == rescale_B(3 * m - 1, 3 * n)


def test_symmetry_small():
    assert verify_b_symmetry(12, 12).passed


def test_two_step_recursion_small():
    assert verify_two_step_recursion(12).passed


def test_zhou_match_small(wk_ztable15):
    assert verify_zhou_match(wk_ztable15, 12, 12).passed


def test_zhou_table_matches_grassmann_at_69():
    grassmann = z_table_recursive(wk_G(69), 34, 34).to_affine_table(69, 69, "grassmann")
    closed_form = zhou_affine_table(69, 69)
    assert (grassmann.max_m, grassmann.max_n) == (69, 69)
    assert AffineTable(
        closed_form.max_m, closed_form.max_n, closed_form.entries, source="grassmann"
    ) == grassmann


def test_zhou_table_source_tag():
    table = zhou_affine_table(6, 6)
    assert table.source == "zhou"
    assert table.to_json_dict()["source"] == "zhou"
    assert table.value(1, 1) == F(7, 24)


def test_Bn_recursion_examples():
    # n=1, x=3: both sides are 18
    assert B_poly(1, 3) == 18
    assert 108 * 5 * B_poly(0, 4) + 105 * B_poly(0, 4) / 3 - 0 + 18 * b_seq(0) == 18
    assert verify_Bn_recursion(1, [3]).passed
    assert verify_Bn_recursion(2, [1]).passed
    assert verify_Bn_recursion(3, [1, 2, 5]).passed
    assert verify_Bn_recursion(3, [F(1, 2), F(-7, 3)]).passed


def test_combinatorial_identity_examples():
    assert combinatorial_lhs(1, 1) == 18 == combinatorial_rhs(1, 1)
    assert verify_combinatorial_identity(1, 1).passed
    assert verify_combinatorial_identity(2, 1).passed
    assert verify_combinatorial_identity(1, 3).passed


def test_combinatorial_identity_against_table_oracle():
    """The scalar identity is exactly the (1,1)-vs-(0,2) family case of the
    two-step recursion.  Check the bracket against the rescaled-coefficient
    difference AND against the boundary product, for a grid of (m, n):

        B_{3m-2,3n+1} - B_{3m,3n-1} = -B_{3m-2,1} B_{0,3n-1}
                                    = prefactor(m,n) * bracket(m,n)
    """
    for m in range(1, 5):
        for n in range(1, 5):
            diff = rescale_B(3 * m - 2, 3 * n + 1) - rescale_B(3 * m, 3 * n - 1)
            assert diff == -rescale_B(3 * m - 2, 1) * rescale_B(0, 3 * n - 1)
            prefactor = F(1)
            dbl = 1
            for i in range(6 * m + 1, 0, -2):
                dbl *= i
            prefactor *= dbl
            for j in range(n - 1):
                prefactor *= m + 1 + j
            for j in range(1, n):
                prefactor *= 2 * m + 2 * j + 1
            fact = 1
            for i in range(1, 2 * (m + n) + 1):
                fact *= i
            prefactor /= fact
            prefactor *= F(-1) ** (m + 1) / F(36) ** (m + n)
            assert diff == prefactor * combinatorial_lhs(m, n)
            assert combinatorial_lhs(m, n) == combinatorial_rhs(m, n)


def test_rescale_B_matches_closed_form_oracle():
    assert [(row, col) for row in range(76) for col in range(76)
            if rescale_B(row, col) != zhou_rescaled(row, col)] == []
