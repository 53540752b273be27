"""Acceptance suite: one test per criterion, at the contracted depths.

Every comparison is exact (tolerance zero); all arithmetic is rational.
Each test prints a single summary line (visible with pytest -s / -rA).
"""

from fractions import Fraction

import pytest

from kdvtau.grassmann import (
    verify_cq_identity,
    verify_generating_function,
    verify_kac_schwarz,
    verify_symmetry,
    verify_z_equivalence,
    verify_z_generating_series,
    z_table_direct,
)
from kdvtau.spin3 import verify_R_from_G, verify_thm2, verify_v_relations
from kdvtau.tau import (
    CorrelatorSpec,
    initial_data,
    intersection_number,
    tau_truncated,
    to_t_variables,
    verify_dimension_filter,
    verify_kdv_flow,
    verify_string_equation,
    verify_string_recursion,
)
from kdvtau.zhou import (
    verify_b_symmetry,
    verify_Bn_recursion,
    verify_combinatorial_identity,
    verify_two_step_recursion,
    verify_zhou_match,
)

from conftest import certified_degree, example_table

F = Fraction


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status}" + (f" -- {detail}" if detail else ""))
    assert ok


def test_criterion_01_closed_form_identification(wk_ztable15, zhou_affine30):
    rep = verify_zhou_match(wk_ztable15, 30, 30)
    # the closed-form table fixture doubles as a direct entrywise cross-check
    same = all(
        F(*wk_ztable15.affine(m, n)) == zhou_affine30.value(m, n)
        for m in range(31)
        for n in range(31)
    )
    report("criterion-01 closed-form identification 30x30", rep.passed and same, rep.depth)


def test_criterion_02_two_step_recursion_and_symmetry(wk_G41, wk_ztable20):
    rep1 = verify_two_step_recursion(40)
    rep2 = verify_b_symmetry(30, 30)
    rep3 = verify_symmetry(wk_ztable20, 15)  # scalar indices through 31
    report(
        "criterion-02 two-step recursion m+n<=40, symmetry m,n<=30",
        rep1.passed and rep2.passed and rep3.passed and not rep3.skipped,
    )


def test_criterion_03_generating_formula_bidegree_15(wk_G41):
    table = z_table_direct(wk_G41, 15, 15)
    rep = verify_generating_function(table, 15)
    report("criterion-03 generating formula bi-degree 15", rep.passed, rep.depth)


def test_criterion_04_table_equivalence_K_L_20(wk_G41, wk_ztable20):
    rep1 = verify_z_equivalence(wk_ztable20)
    rep2 = verify_z_generating_series(wk_ztable20, 10)
    report(
        "criterion-04 direct==recursive K=L=20; projection series k<=10",
        rep1.passed and rep2.passed,
    )


def test_criterion_05_cq_and_kac_schwarz_depth_30():
    rep1 = verify_cq_identity(30)
    rep2 = verify_kac_schwarz(30)
    report(
        "criterion-05 cq identity lam^-30; operator checks depth 30",
        rep1.passed and rep2.passed,
        rep2.depth,
    )


def test_criterion_06_intersection_numbers(wk_tau12):
    three, one = CorrelatorSpec.of([0, 0, 0]), CorrelatorSpec.of([1])
    ok = (
        intersection_number(three, wk_tau12) == 1 and three.genus == 0
        and intersection_number(one, wk_tau12) == F(1, 24) and one.genus == 1
    )
    rep_dim = verify_dimension_filter(wk_tau12)
    rep_str = verify_string_recursion(wk_tau12)
    rep_eq = verify_string_equation(wk_tau12)
    report(
        "criterion-06 <tau0^3>=1, <tau1>=1/24; dimension filter and string relations D=12",
        ok and rep_dim.passed and rep_str.passed and rep_eq.passed,
        f"{rep_str.depth}; string equation {rep_eq.depth}",
    )


def test_criterion_07_worked_example_end_to_end():
    import math

    ok = True
    for c in (F(1), F(-2, 3), F(5)):
        t = tau_truncated(example_table(c), 12)
        Z = to_t_variables(t)
        ok &= Z.terms == {
            (): F(1),
            ((0, 3),): c / 3,
            ((1, 1),): -c / 3,
        }
        values = initial_data(t, 10)
        expected = {1: 2 * c, 4: F(-5, 3) * c**2, 7: F(8, 9) * c**3, 10: F(-11, 27) * c**4}
        for n in range(11):
            ok &= values[n] == expected.get(n, F(0)) * math.factorial(n)
    report("criterion-07 worked example tau and initial data at 3 sample values", bool(ok))


def test_criterion_08_kdv_flows(wk_tau12):
    rep1 = verify_kdv_flow(wk_tau12, 1)
    rep2 = verify_kdv_flow(wk_tau12, 2)
    ok = rep1.passed and certified_degree(rep1) >= 6 and rep2.passed and certified_degree(rep2) >= 4
    report(
        "criterion-08 KdV flow 1 (t-degree >= 6) and flow 2",
        ok,
        f"flow1 {rep1.depth}; flow2 {rep2.depth}",
    )


def test_criterion_09_r_and_v_suite(wk_G41):
    rep1 = verify_R_from_G(12)
    rep2 = verify_v_relations(3)
    ztab = z_table_direct(wk_G41, 11, 11)
    rep3 = verify_thm2(ztab, 3, 3)
    report(
        "criterion-09 R from loop matrix depth 12; V relations and affine identities k,l<=3",
        rep1.passed and rep2.passed and rep3.passed,
    )


def test_criterion_10_auxiliary_identities():
    ok = True
    for n in range(1, 6):
        ok &= verify_Bn_recursion(n, [1, 2, 3, 5]).passed
    for m in range(1, 6):
        for n in range(1, 6):
            ok &= verify_combinatorial_identity(m, n).passed
    report("criterion-10 auxiliary recursion and combinatorial identity", bool(ok))
