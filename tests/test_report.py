"""The shared failure cap, and every capped verifier on an input with one bad entry."""

import hashlib
from fractions import Fraction

import pytest

import kdvtau.cli as cli
import kdvtau.grassmann as grassmann
import kdvtau.spin3 as spin3
import kdvtau.zhou as zhou
from kdvtau.grassmann import ZTable, z_table_recursive
from kdvtau.report import MAX_FAILURES, VerificationReport, first_failures
from kdvtau.schur import GradedPoly
from kdvtau.series import MatrixSeries
from kdvtau.tau import TauSeries, verify_dimension_filter, verify_string_recursion

F = Fraction
BUMP = (0, 1, 0, 0)  # (a11, a12, a21, a22)


def test_first_failures_stops_consuming_at_the_cap():
    seen = []

    def mismatches():
        for i in range(10):
            seen.append(i)
            yield f"mismatch {i}"

    assert first_failures(mismatches()) == ["mismatch 0", "mismatch 1", "mismatch 2"]
    assert len(seen) == MAX_FAILURES


def test_line_prints_at_most_the_cap():
    rep = VerificationReport("s", "d", failures=[str(i) for i in range(5)])
    assert rep.line().count("first failure") == MAX_FAILURES


@pytest.mark.parametrize("report,line,code", [
    (VerificationReport("s", "d", failures=["x"]), "s: FAIL (d)\n  first failure: x", 1),
    (VerificationReport("s", "d", skipped=True, notes="n"), "s: SKIP (d) -- n", 0),
    (VerificationReport("s", "d"), "s: PASS (d)", 0),
], ids=["failure", "skipped", "clean"])
def test_verdict_and_exit_code_follow_from_failures_and_skip(monkeypatch, capsys, report, line, code):
    # a report states no verdict: PASS, FAIL, SKIP and the exit code of
    # `verify` are read off its failures and its skip flag
    monkeypatch.setattr(cli, "_run_suite", lambda *args: [report])
    assert cli.main(["verify", "cq-identity"]) == code
    assert capsys.readouterr().out == line + "\n"
    assert report.passed == (code == 0 and not report.skipped)


def bumped_z(table: ZTable, k: int, l: int, bump=BUMP) -> ZTable:
    """`table` with Z_{k,l} moved by `bump`: its lifted block moves by E_{k+l+1} bump."""
    rows = [list(row) for row in table.lifted]
    e = table.series.grades[k + l + 1]
    rows[k][l] = tuple(z + e * b for z, b in zip(rows[k][l], bump))
    return ZTable(tuple(tuple(row) for row in rows), table.series)


def bumped_tau(tau: TauSeries, mon) -> TauSeries:
    extra = GradedPoly.make("theta", {mon: 1}, tau.degree)
    return TauSeries(tau.poly + extra, tau.degree)


def bumped_B(monkeypatch, row: int, col: int) -> None:
    """B_{row,col} moved by +1 where the verifiers read it: its integer
    fraction p/den becomes (p + den)/den."""
    true_B = zhou._B_int

    def bumped(m, n):
        p, den = true_B(m, n)
        return (p + den if (m, n) == (row, col) else p), den

    monkeypatch.setattr(zhou, "_B_int", bumped)


def case_generating_function(mp, G, tau):
    table = bumped_z(z_table_recursive(G, 5, 5), 1, 2)
    return grassmann.verify_generating_function(table, 5)


def case_symmetry(mp, G, tau):
    return grassmann.verify_symmetry(bumped_z(z_table_recursive(G, 4, 4), 1, 2), 4)


def case_z_equivalence(mp, G, tau):
    return grassmann.verify_z_equivalence(bumped_z(grassmann.z_table_direct(G, 4, 4), 2, 1))


# the recursion identity and the generating series report a window sized by
# the table's shape, so they read the rectangle of the closed formula, whose
# entries are those of the recursion


def case_z_recursion(mp, G, tau):
    return grassmann.verify_z_recursion_identity(bumped_z(grassmann.z_table_direct(G, 5, 5), 2, 2))


def case_z_generating_series(mp, G, tau):
    table = bumped_z(grassmann.z_table_direct(G, 6, 6), 1, 1)
    return grassmann.verify_z_generating_series(table, 3)


def case_zhou_match(mp, G, tau):
    # A_{2,3} is the a22 entry of Z_{1,1}
    return zhou.verify_zhou_match(bumped_z(z_table_recursive(G, 3, 3), 1, 1, (0, 0, 0, 1)), 6, 6)


def case_two_step_recursion(mp, G, tau):
    bumped_B(mp, 4, 1)
    return zhou.verify_two_step_recursion(6)


def case_b_symmetry(mp, G, tau):
    bumped_B(mp, 4, 1)
    return zhou.verify_b_symmetry(6, 6)


# The zero-aware verifiers on a bump at a structurally zero entry: each must
# still fail, so the shortcuts skip arithmetic on zeros, not checks.


def case_two_step_recursion_off_support(mp, G, tau):
    bumped_B(mp, 3, 0)  # off the support, 3 + 0 = 0 (mod 3): B_{3,0} = 0
    return zhou.verify_two_step_recursion(6)


def case_b_symmetry_off_support(mp, G, tau):
    bumped_B(mp, 3, 0)  # off the support, 3 + 0 = 0 (mod 3): B_{3,0} = 0
    return zhou.verify_b_symmetry(6, 6)


def case_symmetry_off_support(mp, G, tau):
    # a12 of Z_{0,1} is A_{1,3} = 0 (1 + 3 = 1 mod 3); not a diagonal block,
    # whose a12 bump leaves Z_{k,k} = -adj Z_{k,k} true
    return grassmann.verify_symmetry(bumped_z(z_table_recursive(G, 4, 4), 0, 1), 4)


def case_dimension_filter(mp, G, tau):
    return verify_dimension_filter(bumped_tau(tau, ((1, 2),)))  # <tau_0 tau_0> has no genus


def case_string_recursion(mp, G, tau):
    return verify_string_recursion(bumped_tau(tau, ((1, 3),)))  # moves <tau_0^3>


def case_r_from_G(mp, G, tau):
    true_R = spin3.r_matrix

    def bumped(depth):
        blocks = true_R(depth).blocks(depth)
        blocks[2] = tuple(x + b for x, b in zip(blocks[2], BUMP))
        return MatrixSeries.from_blocks(blocks)

    mp.setattr(spin3, "r_matrix", bumped)
    return spin3.verify_R_from_G(6)


def case_v_relations(mp, G, tau):
    true_V = spin3.v_table
    mp.setattr(spin3, "v_table", lambda size: bumped_z(true_V(size), 1, 1))
    return spin3.verify_v_relations(3)


def case_thm2(mp, G, tau):
    return spin3.verify_thm2(bumped_z(z_table_recursive(G, 5, 5), 0, 2), 1, 1)


@pytest.mark.parametrize("case", [
    case_generating_function, case_symmetry, case_z_equivalence, case_z_recursion,
    case_z_generating_series, case_zhou_match, case_two_step_recursion, case_b_symmetry,
    case_dimension_filter, case_string_recursion, case_r_from_G, case_v_relations, case_thm2,
    case_two_step_recursion_off_support, case_b_symmetry_off_support, case_symmetry_off_support,
], ids=lambda case: case.__name__[len("case_"):])
def test_capped_verifier_fails_on_one_perturbed_entry(monkeypatch, wk_G41, wk_tau12, case):
    rep = case(monkeypatch, wk_G41, wk_tau12)
    assert not rep.passed and not rep.skipped
    assert 1 <= len(rep.failures) <= MAX_FAILURES
    assert rep.line().count("first failure") == len(rep.failures)


# sha256 of `rep.line()` for the Z-table, V-table and closed-form cases: the
# failure text of each verifier is pinned byte for byte, however the table or
# Zhou's B is stored
LINE_DIGESTS = {
    case_generating_function: "dee92c01993de8ed1d681f062e7b2f644293e98a539f68a00fe4bb88fd6bd84e",
    case_symmetry: "c915734449f2ffcec175119b76adf99b43ad3fc023a9fa5168bd972634ceafe5",
    case_z_equivalence: "7ab53b314a040da27af4fbf304d57bd47f345a3c3cb4e6f9d95567ced9ba69d8",
    case_z_recursion: "71fd916b513391b48d050cdeb51df9439ba3be45bfa1ad73a97cae6f2ecc7520",
    case_z_generating_series: "5530a406d9a705fb50fd774ca899f932acc44878ba453bd5916dda0d3fe72c03",
    case_thm2: "185379898675d992d86ccfb4bfd39823c8cf9e015ad59997aec1dcb12ab33e2f",
    case_symmetry_off_support: "515864c0bc0c954a58fbee5627f9c152ed01af4856da9c959d98957c2e33c38e",
    case_v_relations: "eaaacb91db94ae6f119e00ae90688b6b122807b42216b903eae522e709400b23",
    case_zhou_match: "6c70c8d34d4b9f800c14c912645c8de5c28fc4e14cf88e4640ab27760ee23a0f",
    case_two_step_recursion: "3824ca4d4a6b001d5a73d9b14b01fc118b5d8ba05e5dfd5348a636389811b5f2",
    case_b_symmetry: "151ae976031dfc44aec5224d38ee7b81e3654988cb15bcdc4b346e24591ca716",
    case_two_step_recursion_off_support: "7d0418ba41eb972884b5c4309aa1044d1af8e2a080cfb6113800c5116fa196cd",
    case_b_symmetry_off_support: "448b5a0102b19beefdce7896b4bcacb9e3a9e054187f7037a1c477f18b4e8e11",
}


@pytest.mark.parametrize("case", LINE_DIGESTS, ids=lambda case: case.__name__[len("case_"):])
def test_z_table_failure_text_is_pinned(monkeypatch, wk_G41, wk_tau12, case):
    line = case(monkeypatch, wk_G41, wk_tau12).line()
    assert hashlib.sha256(line.encode()).hexdigest() == LINE_DIGESTS[case]
