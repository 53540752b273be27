import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kdvtau
from kdvtau.cli import COMMANDS, SUITE_DEFAULT_DEPTH, main
from kdvtau.exactnum import format_rational
from kdvtau.grassmann import point_to_json, wk_point
from kdvtau.zhou import b_seq

from conftest import example_point, seeded_point_json


SRC = Path(kdvtau.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_c(capsys):
    code, out, _ = run(capsys, "coeffs", "--kind", "c", "--max", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t-5/24", "2\t385/1152"]


def test_coeffs_b(capsys):
    code, out, _ = run(capsys, "coeffs", "--kind", "b", "--max", "1")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t105"]


def test_coeffs_print_values_over_4300_digits(capsys):
    # b_888 is the first b with more digits than Python's default int-to-str limit
    code, out, _ = run(capsys, "coeffs", "--kind", "b", "--max", "900")
    assert code == 0
    last = out.splitlines()[-1]
    assert len(last) > 4300 and last.split("\t") == ["900", format_rational(b_seq(900))]


def test_coeffs_q_zero(capsys):
    code, out, _ = run(capsys, "coeffs", "--kind", "q", "--max", "0")
    assert code == 0
    assert out.splitlines() == ["0\t1"]


def test_options_take_a_value_after_an_equals_sign(capsys):
    assert run(capsys, "coeffs", "--kind=b", "--max=1") == (0, "0\t1\n1\t105\n", "")


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_every_command_and_option(capsys, command):
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: kdvtau {command or ''}")
    for name in COMMANDS[command][2] if command else COMMANDS:
        assert f"\n  {name}" in out


def test_calls_import_no_argparse_gettext_or_locale(tmp_path):
    # argparse imports gettext, which imports locale: 5-7 ms of every call
    point = tmp_path / "point.json"
    point.write_text(json.dumps(seeded_point_json(1, 15, True, False)))
    calls = [["intersect", "2,3"], ["verify", "cq-identity"],
             ["affine", "--source", "zhou", "--max-m", "6", "--max-n", "6", "--output", str(tmp_path / "t")],
             ["grassmann", str(point), "--tau", "6"]]
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from kdvtau.cli import main; "
            f"codes = [main(argv) for argv in {calls!r}]; "
            "print(codes, sorted({'argparse', 'getopt', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_bad_flags_exit_2(capsys):
    code, out, err = run(capsys, "coeffs", "--kind", "x", "--max", "2")
    assert code == 2
    assert out == ""
    assert "kdvtau: error: argument --kind: invalid choice: 'x'" in err


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def test_affine_sources_agree_csv_bytes(capsys, tmp_path):
    f1, f2 = tmp_path / "g.csv", tmp_path / "z.csv"
    code1, _, _ = run(capsys, "affine", "--source", "grassmann", "--max-m", "6",
                      "--max-n", "6", "--format", "csv", "--output", str(f1))
    code2, _, _ = run(capsys, "affine", "--source", "zhou", "--max-m", "6",
                      "--max-n", "6", "--format", "csv", "--output", str(f2))
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_affine_json_entries(capsys):
    code, out, _ = run(capsys, "affine", "--source", "zhou", "--max-m", "3",
                       "--max-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["source"] == "zhou"
    assert [1, 1, "7/24"] in doc["entries"]
    assert not any(e[:2] == [0, 0] for e in doc["entries"])  # zeros omitted


def test_affine_json_sources_differ_only_in_tag(capsys):
    _, out1, _ = run(capsys, "affine", "--source", "grassmann", "--max-m", "6",
                     "--max-n", "6", "--format", "json")
    _, out2, _ = run(capsys, "affine", "--source", "zhou", "--max-m", "6",
                     "--max-n", "6", "--format", "json")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1.pop("source") == "grassmann" and d2.pop("source") == "zhou"
    assert d1 == d2


def test_stdout_closed_early_is_an_output_error(tmp_path):
    # the reader takes 10 of the export's 0.2 MB and closes the pipe: the next
    # row's write fails, and the call says so and exits 2, with no traceback,
    # also none from the flush of what stdout still buffers at exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "kdvtau.cli", "affine", "--source", "zhou", "--max-m", "69", "--max-n", "69"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.stdout.read(10) == b'{"max_m":6'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"error: [Errno 32] Broken pipe\n")


def run_process(argv: list[str], cwd: Path, redirect: str = "") -> subprocess.CompletedProcess:
    """`python -m kdvtau.cli ARGV` in `cwd`, with the shell `redirect` applied
    (">&-" starts it with fd 1 closed, "2>&-" with fd 2 closed)."""
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "kdvtau.cli", *argv],
                          capture_output=True, cwd=cwd, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.mark.parametrize("argv, redirect, code, out, err", [
    (["intersect", "1"], ">&-", 2, b"", b"error: stdout is closed\n"),
    (["--help"], ">&-", 2, b"", b"error: stdout is closed\n"),
    (["intersect", "x"], "2>&-", 2, b"", b""),
    (["intersect", "1"], ">&- 2>&-", 2, b"", b""),
    (["intersect", "2,3"], "2>&-", 0, b'{"spec": [2, 3], "genus": 2, "value": "29/5760"}\n', b""),
    (["affine", "--source", "zhou", "--max-m", "4", "--max-n", "4", "--output", "t.json"], ">&-", 0, b"", b""),
], ids=["stdout", "help", "stderr-usage-error", "both", "stderr-unused", "stdout-unused"])
def test_a_closed_stdout_or_stderr_is_an_output_error(tmp_path, argv, redirect, code, out, err):
    # a stream closed when the process starts is None in sys: the output
    # error exits 2 with no traceback, and its message is dropped when
    # stderr is the closed one; a call that needs no closed stream exits 0
    proc = run_process(argv, tmp_path, redirect)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if "--output" in argv:
        assert (tmp_path / "t.json").read_text().startswith('{"max_m":4,"max_n":4,"source":"zhou"')


@pytest.mark.parametrize("argv, code", [
    (["intersect", "2,3"], 0),
    (["verify", "string", "--point", "point.json"], 1),
    (["intersect", "x"], 2),
    (["grassmann", "bad.json", "--tau", "6"], 2),
    (["affine", "--source", "zhou", "--max-m", "121", "--max-n", "121", "--format", "json"], 0),
    (["affine", "--source", "zhou", "--max-m", "45", "--max-n", "45", "--format", "csv", "--output", "t.csv"], 0),
], ids=["pass", "verification-failure", "usage-error", "malformed-point", "pipe-1MB", "output-file"])
def test_the_process_ends_as_main_returns(capsys, monkeypatch, tmp_path, argv, code):
    # `python -m kdvtau.cli` flushes and leaves by os._exit: its stdout,
    # stderr, exit code and output file are those of main(argv) in-process
    runs = []
    for where in ("process", "in-process"):
        folder = tmp_path / where
        folder.mkdir()
        (folder / "point.json").write_text(json.dumps(seeded_point_json(1, 25, True, False)))
        (folder / "bad.json").write_text('{"a": [1], "b": ')
        if where == "process":
            proc = run_process(argv, folder)
            result = proc.returncode, proc.stdout, proc.stderr
        else:
            monkeypatch.chdir(folder)
            result = main(argv), *(text.encode() for text in capsys.readouterr())
        runs.append((*result, (folder / "t.csv").read_bytes() if "--output" in argv else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == code


def test_the_script_and_the_main_guard_call_one_entry():
    # the installed `kdvtau` must end as `python -m kdvtau.cli` does, not by a
    # slower sys.exit(main()); a regex, since tomllib is missing before 3.11
    match = re.search(r'^kdvtau = "kdvtau\.cli:(\w+)"$', (SRC.parent / "pyproject.toml").read_text(), re.MULTILINE)
    assert match, "pyproject.toml declares no kdvtau script in kdvtau.cli"
    guards = [node for node in ast.parse((SRC / "kdvtau" / "cli.py").read_text()).body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for guard in guards for node in guard.body] == [f"{match[1]}()"]


def test_affine_deterministic(capsys):
    _, out1, _ = run(capsys, "affine", "--source", "grassmann", "--max-m", "5",
                     "--max-n", "5", "--format", "json")
    _, out2, _ = run(capsys, "affine", "--source", "grassmann", "--max-m", "5",
                     "--max-n", "5", "--format", "json")
    assert out1 == out2


# ---------------------------------------------------------------------------
# intersect
# ---------------------------------------------------------------------------


def test_intersect_three_point(capsys):
    code, out, err = run(capsys, "intersect", "0,0,0")
    assert code == 0
    assert json.loads(out) == {"spec": [0, 0, 0], "genus": 0, "value": "1"}


def test_intersect_one_point_genus1(capsys):
    code, out, _ = run(capsys, "intersect", "1")
    assert code == 0
    assert json.loads(out) == {"spec": [1], "genus": 1, "value": "1/24"}


@pytest.mark.parametrize("genus", range(1, 11))
def test_intersect_single_insertion_closed_form(capsys, genus):
    # <tau_{3g-2}>_g = 1 / (24^g g!)
    code, out, _ = run(capsys, "intersect", str(3 * genus - 2))
    assert code == 0
    expected = Fraction(1, 24 ** genus * math.factorial(genus))
    assert json.loads(out) == {"spec": [3 * genus - 2], "genus": genus, "value": str(expected)}


def test_intersect_dimension_warning(capsys):
    code, out, err = run(capsys, "intersect", "0,0")
    assert code == 0
    assert json.loads(out)["value"] == "0"
    assert json.loads(out)["genus"] is None
    assert "dimension" in err


def test_intersect_parse_error(capsys):
    code, _, err = run(capsys, "intersect", "0,x,1")
    assert code == 2
    assert "parse" in err


@pytest.mark.parametrize("spec", ["", " ", ",", "1,,2", "1,2,", " ,3", "+3", "1_0", " 4", "\u0663"])
def test_intersect_empty_part_exits_2(capsys, spec):
    # an empty spec is not the unstable <>_1, and no empty part is dropped;
    # a part is ASCII digits only, as for the count options
    code, out, err = run(capsys, "intersect", spec)
    assert code == 2
    assert out == ""
    assert f"cannot parse spec {spec!r}" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_pass_fixture(capsys):
    code, out, _ = run(capsys, "verify", "cq-identity", "--depth", "12")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("depth, ode_window", [("0", "lam^2"), ("1", "lam^1")])
def test_verify_kac_schwarz_shallow_window_text(capsys, depth, ode_window):
    code, out, _ = run(capsys, "verify", "kac-schwarz", "--depth", depth)
    assert code == 0
    assert out == (f"kac-schwarz: PASS (ODE residual through {ode_window}, "
                   f"q-relation through lam^-{depth})\n")


def test_verify_string_with_empty_window_exits_2(capsys):
    code, out, err = run(capsys, "verify", "string", "--depth", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "no certifiable residual" in err


def test_verify_all_prints_nothing_when_a_suite_raises(capsys):
    # sixteen reports pass before kdv flow 1 raises at depth 1: none is printed
    code, out, err = run(capsys, "verify", "all", "--depth", "1")
    assert (code, out) == (2, "")
    assert err == "error: tau degree 1 leaves no certifiable residual for flow 1\n"


def test_verify_recursion_on_an_empty_window_skips(capsys):
    code, out, _ = run(capsys, "verify", "recursion", "--depth", "0")
    assert code == 0
    assert ("z-recursion: SKIP (k < 0, l < 0) -- empty window: no (k,l) with both sides in the table"
            in out.splitlines())
    assert "FAIL" not in out and out.count("PASS") == 3


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_verify_string_recursion_on_an_empty_window_skips(capsys, depth):
    code, out, _ = run(capsys, "verify", "string", "--depth", str(depth))
    assert code == 0
    assert out.splitlines()[1] == (f"string-recursion: SKIP (0 specs within t-degree {depth}) "
                                   "-- empty window: no spec with some k_i >= 1 fits")
    assert "FAIL" not in out and out.count("PASS") == 2


def test_verify_recursion_small(capsys):
    code, out, _ = run(capsys, "verify", "recursion", "--depth", "5")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_recursion_builds_one_direct_table(capsys, monkeypatch):
    import kdvtau.grassmann as grassmann

    calls = []
    direct = grassmann.z_table_direct
    monkeypatch.setattr(grassmann, "z_table_direct", lambda *a: calls.append(a) or direct(*a))
    code, out, _ = run(capsys, "verify", "recursion", "--depth", "5")
    assert code == 0 and out.count("PASS") == 4
    assert len(calls) == 1


def test_verify_all_builds_one_tau(capsys, monkeypatch):
    # string, kdv flow 1 and kdv flow 2 all check the same degree-12 tau
    import kdvtau.tau as tau

    calls = []
    build = tau.tau_truncated
    monkeypatch.setattr(tau, "tau_truncated", lambda *a: calls.append(a) or build(*a))
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    suites = {line.split(":")[0] for line in out.splitlines()}
    assert {"string-equation", "string-recursion", "dimension-filter", "kdv-flow-1", "kdv-flow-2"} <= suites
    assert len(calls) == 1


def test_verify_all_builds_one_wk_z_table_for_three_suites(capsys, monkeypatch):
    # symmetry, genfun and zhou-match all read the triangle of wk_G(31); the
    # others are the recursion's cross-check on wk_G(41), the tau's triangle
    # of order 6 and thm2's of order 23
    import kdvtau.grassmann as gr

    orders = []
    build = gr.z_table_recursive
    monkeypatch.setattr(gr, "z_table_recursive",
                        lambda G, *corner: orders.append(G.tail_order) or build(G, *corner))
    gr.wk_z_table.cache_clear()
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    suites = {line.split(":")[0] for line in out.splitlines()}
    assert {"symmetry", "generating-function", "zhou-match"} <= suites
    assert sorted(orders) == [6, 23, 31, 41]


def test_v_table_forms_each_numerator_block_once(monkeypatch):
    # N_{i,j} = R*_i R_j on the lift of R: one block product per (i, j) with
    # 0 < i + j <= 2 size + 1, and none twice, in one kernel call per
    # anti-diagonal of the division
    from kdvtau import series, spin3

    pairs = []
    kernel = series.block_sums

    def counting(coeffs, left, right, *start):
        pairs.extend((a, b) for _, a, b in zip(coeffs, left, right))
        return kernel(coeffs, left, right, *start)

    monkeypatch.setattr(series, "block_sums", counting)
    size = 7
    spin3.v_table(size)
    need = 2 * size + 1
    assert len(pairs) == len(set(pairs)) == (need + 1) * (need + 2) // 2 - 1


def test_verify_all_lifts_each_loop_matrix_once(capsys, monkeypatch):
    # the Witten-Kontsevich loop matrix is lifted once, at the deepest depth
    # the suites read, which the recursion suite reads first; every other
    # depth is a prefix of it, whose inverse is read off the deepest one.
    # Equal R series are one memoised object
    from kdvtau.grassmann import wk_G, wk_z_table
    from kdvtau.series import MatrixSeries
    from kdvtau.spin3 import r_matrix

    built = []
    from_blocks = MatrixSeries.from_blocks
    monkeypatch.setattr(MatrixSeries, "from_blocks",
                        lambda blocks: built.append(from_blocks(blocks)) or built[-1])
    wk_G.cache_clear()
    wk_z_table.cache_clear()
    r_matrix.cache_clear()
    code, _, _ = run(capsys, "verify", "all")
    assert code == 0
    # one WK loop matrix, at 41 (recursion), whose prefixes are read at 6
    # (the tau's triangle), 21 (rmatrix), 23 (thm2) and 31 (symmetry, genfun,
    # zhou-match); R at 9 (vmatrix), 12 (rmatrix) and 15 (thm2).  The one
    # inverse solved is that of the depth-41 lift, which the cross-checks at
    # 21 (rmatrix), 31 (genfun) and 41 (recursion) read
    assert sorted(s.tail_order for s in built) == [9, 12, 15, 41]
    assert [s.tail_order for s in built if "inverse" in vars(s)] == [41]


@pytest.mark.parametrize("suite", ["vmatrix", "thm2", "all"])
def test_the_v_suites_solve_no_inverse_of_R(capsys, monkeypatch, suite):
    # the V table divides on the lift of R and never reads R^-1
    from kdvtau import spin3

    seen = []
    r_matrix = spin3.r_matrix
    r_matrix.cache_clear()
    monkeypatch.setattr(spin3, "r_matrix", lambda depth: seen.append(r_matrix(depth)) or seen[-1])
    code, _, _ = run(capsys, "verify", suite)
    assert code == 0 and seen
    assert all("inverse" not in vars(R) for R in seen)
    fresh = type(seen[0])(seen[0].grades, seen[0].lifted)
    assert fresh.inverse and "inverse" in vars(fresh)  # where a solved inverse is kept


@pytest.mark.parametrize("suite", ["recursion", "genfun", "symmetry", "zhou-match", "thm2"])
def test_passing_z_table_suites_reduce_no_entry(capsys, monkeypatch, suite):
    # the Z and V tables stay on their graded integer lifts and Zhou's B on its
    # integer fractions, and the verifiers cross-multiply integers: a passing
    # run has no failure text, so it lowers no block and builds no Fraction of B
    from kdvtau import grassmann, series, spin3, zhou
    from kdvtau.grassmann import wk_G, z_table_recursive

    lowered, fractions = [], []
    lower, fraction = series.lower, zhou.Fraction

    def counting(block, scale):
        lowered.append(block)
        return lower(block, scale)

    for module in (grassmann, series, spin3):  # table entries, blocks of a series, V
        monkeypatch.setattr(module, "lower", counting)
    monkeypatch.setattr(zhou, "Fraction", lambda *a: fractions.append(a) or fraction(*a))
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0 and "FAIL" not in out
    assert lowered == [] and fractions == []
    # one read of an entry lowers exactly that block; `rescale_B` lowers B
    table = z_table_recursive(wk_G(9), 2, 2)
    assert table.entry(1, 2) == lower(table.lifted[1][2], wk_G(9).grades[4])
    assert lowered == [table.lifted[1][2]]
    assert zhou.rescale_B(2, 0) == -fraction(5, 24) and fractions


@pytest.mark.parametrize("spec,value", [(",".join(["1"] * 150), f"{math.factorial(149) // 24}"),
                                        (",".join(["0"] * 100 + ["98"]), "1")])
def test_long_reductions_read_a_tiny_table(capsys, monkeypatch, spec, value):
    # the string and dilaton steps leave <tau_1>_1 or <tau_0^3>_0, and the
    # correlator sizes its table after them, so it reads Z_{k,l}, k + l <= 1,
    # the triangle of wk_G(2), and no more
    import kdvtau.grassmann as gr

    orders = []
    build = gr.z_table_recursive
    monkeypatch.setattr(gr, "z_table_recursive",
                        lambda G, *corner: orders.append(G.tail_order) or build(G, *corner))
    gr.wk_z_table.cache_clear()
    code, out, _ = run(capsys, "intersect", spec)
    assert code == 0 and json.loads(out)["value"] == value
    assert orders == [2]


def test_intersect_two_large_insertions_within_the_time_limit(tmp_path):
    # <tau_148 tau_148>_99 as a CLI call: about 1 s when each cycle of the
    # n-point sum closes by one lookup per state, 40 s when its last factor
    # walked whole rows; the value is Dijkgraaf's
    from oracles import dijkgraaf

    proc = subprocess.run([sys.executable, "-m", "kdvtau.cli", "intersect", "148,148"],
                          capture_output=True, text=True, timeout=20, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"spec": [148, 148], "genus": 99, "value": format_rational(dijkgraaf(99)[148])}


@pytest.mark.parametrize("spec,N", [("148", 148), ("10,10,10", 31)])
def test_correlator_builds_its_triangle_on_wk_G_of_order_N_plus_1(capsys, monkeypatch, spec, N):
    # W = 297 and 63: the triangle k + l <= N = (W - 1)//2 on wk_G(N + 1), not
    # the square k, l <= N on wk_G(2N + 1), and the bytes pinned before
    import hashlib

    import kdvtau.grassmann as gr
    from test_golden import GOLDEN

    tables = []
    build = gr.z_table_recursive
    monkeypatch.setattr(gr, "z_table_recursive",
                        lambda G, *corner: tables.append(build(G, *corner)) or tables[-1])
    gr.wk_z_table.cache_clear()
    code, out, _ = run(capsys, "intersect", spec)
    assert [t.series.tail_order for t in tables] == [N + 1]
    assert [len(row) for row in tables[0].lifted] == list(range(N + 1, 0, -1))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[f"intersect {spec}"]


@pytest.mark.parametrize("spec", ["2,3", "28"])
def test_intersect_reads_the_lift_of_the_z_table(capsys, monkeypatch, spec):
    # the correlator reads A_{m,n} off the lifted Z blocks: no block is lowered
    # and no scalar table is built, whether insertions are paired or single
    from kdvtau import grassmann, series

    lowered, built = [], []
    lower, affine_table = series.lower, grassmann.AffineTable
    for module in (grassmann, series):
        monkeypatch.setattr(module, "lower", lambda *a: lowered.append(a) or lower(*a))
    monkeypatch.setattr(grassmann, "AffineTable", lambda *a: built.append(a) or affine_table(*a))
    code, out, _ = run(capsys, "intersect", spec)
    assert code == 0 and json.loads(out)["value"] != "0"
    assert lowered == [] and built == []


@pytest.mark.parametrize("argv", [
    ["verify", "string"],
    ["verify", "kdv", "--point", "{point}"],
    ["grassmann", "{point}", "--tau", "8", "--initial-data", "6"],
    ["grassmann", "{point}", "--affine", "7", "3", "--tau", "6"],
], ids=["verify-string", "verify-kdv-point", "grassmann-tau", "grassmann-affine-tau"])
def test_tau_reads_the_lift_of_the_z_table(capsys, monkeypatch, tmp_path, argv):
    # the Giambelli minors of tau read A_{m,n} off the lifted Z blocks, and an
    # --affine export streams from them: no block is lowered, no table built
    from kdvtau import grassmann, series

    path = tmp_path / "point.json"
    path.write_text(json.dumps(seeded_point_json(3, 29, True, False)))
    lowered, built = [], []
    lower, affine_table = series.lower, grassmann.AffineTable
    for module in (grassmann, series):
        monkeypatch.setattr(module, "lower", lambda *a: lowered.append(a) or lower(*a))
    monkeypatch.setattr(grassmann, "AffineTable", lambda *a: built.append(a) or affine_table(*a))
    code, out, _ = run(capsys, *(arg.format(point=path) for arg in argv))
    assert code == 0 and out
    assert lowered == [] and built == []


@pytest.mark.parametrize("argv", [
    ["affine", "--source", "grassmann", "--max-m", "9", "--max-n", "4"],
    ["affine", "--source", "zhou", "--max-m", "9", "--max-n", "4", "--format", "csv"],
    ["grassmann", "{point}", "--affine", "7", "3"],
    ["grassmann", "{point}", "--affine", "7", "3", "--format", "csv"],
    ["grassmann", "{point}", "--affine", "7", "3", "--initial-data", "4"],
], ids=["grassmann-json", "zhou-csv", "point-json", "point-csv", "point-json-initial-data"])
def test_affine_exports_stream_from_integer_pairs(capsys, monkeypatch, tmp_path, argv):
    # the exports write each row from the integer pairs of the Z table's lift
    # or of Zhou's B: no block is lowered and no table of the corner is built
    from kdvtau import grassmann, series, zhou

    path = tmp_path / "point.json"
    path.write_text(json.dumps(seeded_point_json(3, 29, True, False)))
    lowered, built = [], []
    lower, affine_table = series.lower, grassmann.AffineTable
    for module in (grassmann, series):
        monkeypatch.setattr(module, "lower", lambda *a: lowered.append(a) or lower(*a))
    for module in (grassmann, zhou):
        monkeypatch.setattr(module, "AffineTable", lambda *a, **k: built.append(a) or affine_table(*a, **k))
    code, out, _ = run(capsys, *(arg.format(point=path) for arg in argv))
    assert code == 0 and out.endswith("\n")
    assert lowered == [] and built == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("source", ["grassmann", "zhou"])
def test_deep_affine_export_holds_no_copy_of_its_output(source, fmt):
    # at M = 69 the output is 0.15-0.2 MB, and a route that holds the corner
    # as Fractions, then rows, then one string peaks at 1.1-2.0 MB; streamed
    # rows leave Zhou's integer B (0.22-0.29 MB) or the 35 x 35 corner of Z
    # blocks (0.21-0.31 MB), where the whole triangle of order 69 peaks at
    # 0.39-0.54 MB.  Every cache of the package is cleared first, so that the
    # tables are built inside the count, and the export goes to os.devnull
    import tracemalloc

    from kdvtau import exactnum, grassmann, schur, series, spin3, tau, zhou

    for module in (exactnum, grassmann, schur, series, spin3, tau, zhou):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    argv = ["affine", "--source", source, "--max-m", "69", "--max-n", "69", "--format", fmt, "--output", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4e6


def spy_tables(monkeypatch) -> list:
    """The tables `grassmann.z_table_recursive` returns from here on."""
    import kdvtau.grassmann as gr

    tables = []
    build = gr.z_table_recursive
    monkeypatch.setattr(gr, "z_table_recursive",
                        lambda G, *corner: tables.append(build(G, *corner)) or tables[-1])
    return tables


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("M", [0, 1, 12, 45])
def test_affine_export_keeps_only_its_corner(capsys, monkeypatch, M, fmt):
    # A_{m,n}, m <= M, n <= M + 3, reads Z_{k,l}, k <= K = M//2, l <= L =
    # (M + 3)//2: the table is K + 1 rows of L + 1 blocks, not the triangle
    # of order K + L + 1 the recursion walks
    tables = spy_tables(monkeypatch)
    code, out, _ = run(capsys, "affine", "--source", "grassmann", "--max-m", str(M),
                       "--max-n", str(M + 3), "--format", fmt)
    K, L = M // 2, (M + 3) // 2
    assert code == 0 and out
    assert [t.series.tail_order for t in tables] == [K + L + 1]
    assert [len(row) for row in tables[0].lifted] == [L + 1] * (K + 1)


@pytest.mark.parametrize("tasks,shape", [
    (["--affine", "7", "3"], [2] * 4),
    (["--affine", "7", "3", "--format", "csv"], [2] * 4),
    (["--affine", "3", "7"], [4] * 2),
    (["--affine", "7", "3", "--tau", "6"], [5, 4, 3, 2, 1]),
    (["--affine", "7", "3", "--initial-data", "4"], [5, 4, 3, 2, 1]),
    (["--affine", "9", "9", "--tau", "10", "--initial-data", "8"], [5] * 5),
    (["--affine", "11", "11", "--tau", "12", "--initial-data", "10"], [6] * 6),
], ids=["json", "csv", "wide", "with-tau", "with-initial-data", "tau-inside-10", "tau-inside-12"])
def test_grassmann_affine_alone_keeps_only_its_corner(capsys, monkeypatch, tmp_path, tasks, shape):
    # an export keeps the K x L corner it writes, unless a tau reads a
    # triangle k + l < T that sticks out of it (T - 1 > min(K, L)): then the
    # table is the triangle of the larger order
    path = tmp_path / "point.json"
    path.write_text(json.dumps(seeded_point_json(3, 29, True, False)))
    tables = spy_tables(monkeypatch)
    code, out, _ = run(capsys, "grassmann", str(path), *tasks)
    assert code == 0 and out
    assert [len(row) for row in tables.pop().lifted] == shape and not tables


def test_a_corrupt_inverse_fails_only_the_cross_checks(capsys, monkeypatch, request):
    # the table is built from G alone: with U_3 off by one in every
    # Witten-Kontsevich loop matrix, the grassmann exports and a correlator
    # print the same bytes, while the checks that read the inverse fail
    import kdvtau.grassmann as gr
    from test_grassmann import corrupt_inverse_block

    calls = [("affine", "--source", "grassmann", "--max-m", "9", "--max-n", "4"),
             ("affine", "--source", "grassmann", "--max-m", "4", "--max-n", "9", "--format", "csv"),
             ("intersect", "2,3,4")]
    clean = [run(capsys, *call) for call in calls]
    monkeypatch.setattr(gr, "wk_G", lambda depth: corrupt_inverse_block(3, depth))
    gr.wk_z_table.cache_clear()
    request.addfinalizer(gr.wk_z_table.cache_clear)
    assert [run(capsys, *call) for call in calls] == clean
    for suite in ("recursion", "genfun"):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 1 and "FAIL" in out


def test_verify_all_walks_odd_parts_only(capsys, monkeypatch):
    # the string and kdv suites read tau in t only: no p_r^perp with r even
    import kdvtau.tau as tau

    parts = []
    p_perp = tau.p_perp
    monkeypatch.setattr(tau, "p_perp", lambda vector, r: parts.append(r) or p_perp(vector, r))
    code, _, _ = run(capsys, "verify", "all")
    assert code == 0
    assert parts and all(r % 2 for r in parts)


def test_verify_all_takes_one_log_of_its_tau(capsys, monkeypatch):
    # string-recursion, dimension-filter and kdv flows 1 and 2 all read log Z
    import kdvtau.tau as tau

    calls = []
    log = tau.graded_log
    monkeypatch.setattr(tau, "graded_log", lambda *a: calls.append(a) or log(*a))
    code, _, _ = run(capsys, "verify", "all")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("suite", [s for s in SUITE_DEFAULT_DEPTH if s not in ("string", "kdv")] + ["all"])
def test_verify_point_with_a_suite_that_ignores_it_exits_2(capsys, tmp_path, suite):
    code, out, err = run(capsys, "verify", suite, "--depth", "1",
                         "--point", write_example_point(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "usage: kdvtau verify suite [--depth DEPTH] [--flow FLOW] [--point POINT]\n" \
                  "kdvtau: error: --point applies only to the string and kdv suites\n"


def test_verify_string_expected_fail_on_example_point(capsys, tmp_path):
    point = example_point(Fraction(1))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point_to_json(point, tail_order=25)))
    code, out, _ = run(capsys, "verify", "string", "--depth", "9", "--point", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_kdv_on_example_point(capsys, tmp_path):
    point = example_point(Fraction(1))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point_to_json(point, tail_order=25)))
    code, out, _ = run(capsys, "verify", "kdv", "--depth", "10", "--flow", "1",
                       "--point", str(path))
    assert code == 0


def test_verify_unknown_suite_exits_2(capsys):
    code, out, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert out == ""
    assert "kdvtau: error: argument suite: invalid choice: 'nonsense'" in err


def test_verify_missing_point_file(capsys):
    code, _, err = run(capsys, "verify", "string", "--point", "/nonexistent.json")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# grassmann
# ---------------------------------------------------------------------------


def write_example_point(tmp_path, c=Fraction(1)):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point_to_json(example_point(c), tail_order=29)))
    return str(path)


def test_grassmann_tau_output(capsys, tmp_path):
    path = write_example_point(tmp_path)
    code, out, _ = run(capsys, "grassmann", path, "--tau", "6")
    assert code == 0
    doc = json.loads(out)["tau"]
    assert doc["vars"] == "t"
    terms = {tuple(tuple(v) for v in mon): c for mon, c in doc["terms"]}
    assert terms == {(): "1", ((0, 3),): "1/3", ((1, 1),): "-1/3"}


def test_grassmann_initial_data(capsys, tmp_path):
    path = write_example_point(tmp_path)
    code, out, _ = run(capsys, "grassmann", path, "--initial-data", "7")
    assert code == 0
    values = json.loads(out)["initial_data"]
    assert values[1] == "2"  # s_1 = 2c at c = 1
    assert values[4] == "-40"  # 4! * (-5/3)
    assert values[7] == "4480"  # 7! * 8/9


def test_grassmann_affine_csv(capsys, tmp_path):
    path = write_example_point(tmp_path)
    code, out, _ = run(capsys, "grassmann", path, "--affine", "4", "4",
                       "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[2].split(",")[2] == "1"  # A_{1,1} = c = 1


def test_grassmann_point_normalization(capsys, tmp_path):
    # a point file with b_1 != 0: its loop matrix reads b in normal form
    from kdvtau.grassmann import GrassmannPoint, point_to_json as ptj
    from kdvtau.series import LaurentSeries

    a = LaurentSeries.from_dict({0: 1}, 29)
    b = LaurentSeries.from_dict({0: 1, -1: 3, -3: 1}, 29)
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(ptj(GrassmannPoint(a, b))))
    code, out, _ = run(capsys, "grassmann", str(path), "--affine", "2", "2")
    assert code == 0


def test_grassmann_wk_point_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "wk.json"
    path.write_text(json.dumps(point_to_json(wk_point(29))))
    code, out, _ = run(capsys, "grassmann", str(path), "--affine", "8", "8")
    assert code == 0
    custom = json.loads(out)["affine"]
    _, out2, _ = run(capsys, "affine", "--source", "grassmann", "--max-m", "8",
                     "--max-n", "8", "--format", "json")
    builtin = json.loads(out2)
    assert custom["entries"] == builtin["entries"]


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
def test_failing_grassmann_writes_nothing(capsys, tmp_path, output):
    # the point is deep enough for the affine corner but not for the tau: the
    # call fails before the first byte of the document, and makes no file
    path, target = write_example_point(tmp_path), tmp_path / "out.json"
    argv = ["grassmann", path, "--affine", "4", "4", "--tau", "40"] + ["--output", str(target)] * output
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not target.exists()


def test_grassmann_no_task_exits_2(capsys, tmp_path):
    path = write_example_point(tmp_path)
    code, _, err = run(capsys, "grassmann", path)
    assert code == 2


def test_grassmann_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    code, _, err = run(capsys, "grassmann", str(path), "--tau", "4")
    assert code == 2


# ---------------------------------------------------------------------------
# exit-code contract at the parse/load boundary
# ---------------------------------------------------------------------------

GOOD_SERIES = {"head": [], "tail_order": 1, "tail": ["1", "0"]}


@pytest.mark.parametrize("argv,a_series", [
    (["verify", "recursion", "--depth", "-3"], None),
    (["grassmann", "POINT", "--tau", "-1"], None),
    (["verify", "kdv", "--flow", "0"], None),
    (["coeffs", "--kind", "c", "--max", "-2"], None),
    (["coeffs", "--kind", "c", "--max", "\u0663"], None),  # ARABIC-INDIC DIGIT THREE
    (["affine", "--source", "grassmann", "--max-m", "-1", "--max-n", "2"], None),
    (["grassmann", "POINT", "--affine", "-1", "2"], None),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 1, "tail": ["2", "0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": "x", "tail": ["1"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 1, "tail": ["1", "1/0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 1, "tail": ["1", 2]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 1, "tail": ["1", 2.5]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 1, "tail": "12"}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 3.9, "tail": ["1", "0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": True, "tail": ["1", "0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [[-1.5, "1"]], "tail_order": 1, "tail": ["1"]}),
    (["grassmann", "POINT", "--tau", "2"], b"\xff\xfe not utf-8"),
    (["verify", "string", "--point", "POINT"], b"\xff\xfe not utf-8"),
    (["grassmann", "POINT", "--tau", "2"], b"[" * 2000),  # json raises RecursionError
    (["verify", "string", "--point", "POINT"], b"[" * 2000),
    (["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 2, "tail": ["1", "0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [[-1, "5"]], "tail_order": 1, "tail": ["1", "0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [[0, "1"]], "tail_order": 1, "tail": ["0", "0"]}),
    (["grassmann", "POINT", "--tau", "2"], {"head": [[2, "1"], [2, "-1"]], "tail_order": 1,
                                            "tail": ["1", "0"]}),
    *((["grassmann", "POINT", "--tau", "2"], {"head": [], "tail_order": 1, "tail": ["1", text]})
      for text in ("1e3", "3.5", "1_0", "\u0663", " 3", "+3")),
    ([], None),
    (["nonsense"], None),
    (["coeffs", "--kind", "c", "--max", "2", "--bogus"], None),
    (["coeffs", "--kind", "c", "--ma", "2"], None),  # no option is read from a prefix of its name
    (["coeffs", "--kind", "c"], None),
    (["coeffs", "--kind", "c", "--max"], None),
    (["grassmann", "POINT", "--affine", "2", "--tau", "2"], None),
    (["intersect", "1,2", "3"], None),
    (["grassmann", "POINT"], None),
    (["grassmann", "POINT", "--affine", "2", "2", "--tau", "2", "--format", "csv"], None),
], ids=["depth", "tau", "flow", "max", "max-non-ascii-digit", "max-m", "affine",
        "constant-term", "tail-order", "zero-denominator",
        "tail-int", "tail-float", "tail-string", "tail-order-float", "tail-order-bool",
        "head-exponent-float", "not-utf8", "verify-not-utf8", "deep-nesting", "verify-deep-nesting",
        "tail-short", "head-exponent-negative", "head-exponent-zero", "head-exponent-repeated",
        "tail-exponent", "tail-decimal", "tail-underscore", "tail-non-ascii-digit",
        "tail-leading-space", "tail-plus", "no-command", "unknown-command", "unknown-option",
        "option-prefix", "missing-option", "missing-value", "option-before-its-values",
        "extra-positional", "nothing-to-do", "csv-with-other-tasks"])
def test_bad_input_exits_2(capsys, tmp_path, argv, a_series):
    if a_series is None:
        path = write_example_point(tmp_path)
    else:
        path = tmp_path / "bad.json"
        if isinstance(a_series, bytes):
            path.write_bytes(a_series)
        else:
            path.write_text(json.dumps({"a": a_series, "b": GOOD_SERIES}))
    code = main([str(path) if arg == "POINT" else arg for arg in argv])  # usage errors return 2 too
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err
    if a_series is not None:
        assert "error: malformed point file" in captured.err
    else:  # a usage error: the command's usage line, then what is wrong
        assert captured.err.startswith("usage: kdvtau") and "\nkdvtau: error: " in captured.err


def bad_series(**fields):
    return {"a": {**GOOD_SERIES, **fields}, "b": GOOD_SERIES}


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "expected an object with fields a and b, got list"),
    ({"a": GOOD_SERIES}, "missing field b"),
    ({"a": "1", "b": GOOD_SERIES}, "a: expected an object with fields head, tail_order and tail, got str"),
    ({"a": {"head": [], "tail": ["1", "0"]}, "b": GOOD_SERIES}, "missing field a.tail_order"),
    (bad_series(tail_order="x"), "a.tail_order: expected an integer, got 'x'"),
    (bad_series(tail="12"), "a.tail: expected a list of \"p/q\" strings, got '12'"),
    (bad_series(tail=["1"]), "a.tail has 1 entries, tail_order 1 needs 2"),
    (bad_series(tail=["1", "1/0"]), "a.tail[1]: zero denominator in '1/0'"),
    (bad_series(tail=["1", "1e3"]), "a.tail[1]: not a rational of the form p/q: '1e3'"),
    ({"a": GOOD_SERIES, "b": {**GOOD_SERIES, "tail": ["1", 2]}}, "b.tail[1]: expected a \"p/q\" string, got 2"),
    (bad_series(head={}), "a.head: expected a list of [exponent, \"p/q\"] pairs, got {}"),
    (bad_series(head=[[2]]), "a.head[0]: expected an [exponent, \"p/q\"] pair, got [2]"),
    (bad_series(head=[[-1.5, "1"]]), "a.head[0]: expected an integer, got -1.5"),
    (bad_series(head=[[2, "0"], [2, "0"]]), "a.head[1]: exponent 2 is not positive or is repeated"),
    (bad_series(head=[[2, "1/00"]]), "a.head[0]: zero denominator in '1/00'"),
    (bad_series(head=[[2, "1"]]), "a must be a pure tail series"),
], ids=["not-an-object", "missing-b", "series-not-an-object", "missing-tail-order", "tail-order",
        "tail-string", "tail-short", "zero-denominator", "tail-exponent", "b-tail-int", "head-object",
        "head-pair", "head-exponent-float", "head-exponent-repeated", "head-zero-denominator",
        "head-nonzero"])
def test_point_file_errors_name_the_field(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "grassmann", str(path), "--tau", "2")
    assert code == 2 and out == ""
    assert err == f"error: malformed point file {path}: {message}\n"


def cut_point(doc: dict, order: int) -> dict:
    """The point file `doc` with both tails cut to lam^-order."""
    return {name: {"head": [], "tail_order": order, "tail": doc[name]["tail"][: order + 1]} for name in "ab"}


def test_tau_reads_a_point_only_as_deep_as_its_triangle(capsys, tmp_path):
    # tau degree 12 reads Z_{k,l}, k + l <= 5, on G_0..G_6: a through lam^-12
    # and b through lam^-13, where the square k, l <= 5 needed lam^-23
    deep = seeded_point_json(7, 30, True, False)
    outputs = {}
    for order in (30, 13, 12):
        path = tmp_path / f"point{order}.json"
        path.write_text(json.dumps(cut_point(deep, order)))
        outputs[order] = run(capsys, "grassmann", str(path), "--tau", "12")
    assert outputs[30][0] == 0 and outputs[30][1]
    assert outputs[13] == outputs[30]
    assert outputs[12] == (2, "", "error: b is only valid through lam^-12, need lam^-13\n")


def test_too_shallow_point_file_fails_before_parsing_its_numbers(capsys, tmp_path, monkeypatch):
    # a 10^6-digit coefficient at lam^-1 of a tail too short for the request:
    # the window check fails before any coefficient past the constant term is
    # parsed (the str -> int conversion of that number takes seconds)
    from kdvtau import series

    parsed = []
    parse = series.parse_rational
    monkeypatch.setattr(series, "parse_rational", lambda text: parsed.append(len(text)) or parse(text))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(bad_series(tail=["1", "7" * 10**6])))
    start = time.perf_counter()
    code, out, err = run(capsys, "grassmann", str(path), "--affine", "0", "0")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == "error: a is only valid through lam^-1, need lam^-2\n"
    assert parsed and max(parsed) == 1


@pytest.mark.parametrize("fields,literal,message", [
    ({"tail_order": "N"}, "7" * 300_000,
     "a.tail_order: expected an integer, got a literal of 300000 characters (at most 20 are read)"),
    ({"head": [["N", "1"]]}, "1" * 21,
     "a.head[0]: expected an integer, got a literal of 21 characters (at most 20 are read)"),
    ({"head": [["N", "1"]]}, "1" * 20, "a must be a pure tail series"),  # the longest literal read
], ids=["tail-order-300000", "head-exponent-21", "head-exponent-20"])
def test_long_integer_literal_is_refused_unconverted(capsys, tmp_path, fields, literal, message):
    # converting a JSON integer of n digits takes time quadratic in n (3.25 s at
    # 300,000 digits), and the digits would be printed twice in the error
    path = tmp_path / "long.json"
    path.write_text(json.dumps(bad_series(**fields)).replace('"N"', literal))
    start = time.perf_counter()
    code, out, err = run(capsys, "grassmann", str(path), "--tau", "2")
    assert time.perf_counter() - start < 0.2
    assert code == 2 and out == ""
    assert err == f"error: malformed point file {path}: {message}\n"


def test_point_file_rational_is_reduced(capsys, tmp_path):
    outputs = []
    for text in ("2/4", "1/2"):
        path = tmp_path / "point.json"
        a = {"head": [], "tail_order": 5, "tail": ["1", text, "0", "0", "0", "0"]}
        b = {"head": [], "tail_order": 5, "tail": ["1", "0", "3", "0", "0", "0"]}
        path.write_text(json.dumps({"a": a, "b": b}))
        code, out, _ = run(capsys, "grassmann", str(path), "--affine", "1", "1")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# one table and one tau per grassmann call
# ---------------------------------------------------------------------------


def test_theta_export_builds_the_full_tau(capsys, tmp_path, monkeypatch):
    # the initial data reads t only, but a theta export of the same tau reads
    # the even theta: one tau, walked on every part
    import kdvtau.tau as tau

    path = tmp_path / "point.json"
    path.write_text(json.dumps(seeded_point_json(5, 21, True, False)))
    built = []
    build = tau.tau_truncated
    monkeypatch.setattr(tau, "tau_truncated", lambda *a: built.append(build(*a)) or built[-1])
    code, out, _ = run(capsys, "grassmann", str(path), "--tau", "10", "--tau-vars", "theta",
                       "--initial-data", "8")
    assert code == 0
    assert [(t.degree, t.parts) for t in built] == [(10, None)]
    assert any(var % 2 == 0 for mon, _ in json.loads(out)["tau"]["terms"] for var, _ in mon)
    code, _, _ = run(capsys, "grassmann", str(path), "--tau", "10", "--initial-data", "8")
    assert code == 0 and built[-1].parts == range(1, 11, 2)


@pytest.mark.parametrize("tau_vars", ["t", "theta"])
@pytest.mark.parametrize("degree,n", [(6, 2), (6, 4), (5, 5)])  # N + 2 <, =, > D
def test_grassmann_combined_call_matches_separate_calls(capsys, tmp_path, monkeypatch,
                                                        tau_vars, degree, n):
    import kdvtau.grassmann as grassmann
    import kdvtau.tau as tau

    path = write_example_point(tmp_path)
    separate = {}
    for task in (["--affine", "7", "3"], ["--tau", str(degree), "--tau-vars", tau_vars],
                 ["--initial-data", str(n)]):
        code, out, _ = run(capsys, "grassmann", path, *task)
        assert code == 0
        separate.update(json.loads(out))

    calls = {"tau": 0, "z": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tau, "tau_truncated", counted("tau", tau.tau_truncated))
    monkeypatch.setattr(grassmann, "z_table_recursive", counted("z", grassmann.z_table_recursive))
    code, out, _ = run(capsys, "grassmann", path, "--affine", "7", "3", "--tau", str(degree),
                       "--tau-vars", tau_vars, "--initial-data", str(n))
    assert code == 0
    assert json.loads(out) == separate
    assert list(json.loads(out)) == ["affine", "tau", "initial_data"]
    assert calls == {"tau": 1, "z": 1}


# ---------------------------------------------------------------------------
# exit-code contract under fuzzing
# ---------------------------------------------------------------------------

# values small enough that every valid call ends in milliseconds, and tokens
# that no option accepts
SMALL = st.integers(0, 5).map(str)
JUNK = st.sampled_from(["-1", "x", "", " 4", "+3", "1.5", "1_0", "\u0663", "--", "--depth", "0,,1", "1/0", "z"])
JSON_JUNK = st.sampled_from(["null", "true", "1.5", "-1", "0", "7", '"x"', '"1/0"', '"2"', "[]", "{}",
                             '[[1, "1"]]', '[["1", "1"]]']).map(json.loads)  # a fresh value per draw


@st.composite
def point_texts(draw):
    """A seeded point file, maybe too shallow, with fields dropped or retyped,
    a tail entry replaced, an over-long integer literal, or its text cut."""
    order = 15 - draw(st.integers(0, 15))  # deep enough for every call, or less
    doc = seeded_point_json(draw(st.integers(1, 3)), order, draw(st.booleans()), draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(["a", "b"]))
        field = draw(st.sampled_from([None, "head", "tail_order", "tail", "tail[]"]))
        drop = draw(st.booleans())
        series = doc.get(name)
        if field is None or not isinstance(series, dict):
            if drop:
                doc.pop(name, None)
            else:
                doc[name] = draw(JSON_JUNK)
        elif field == "tail[]":
            if isinstance(series.get("tail"), list) and series["tail"]:
                series["tail"][draw(st.integers(0, len(series["tail"]) - 1))] = draw(JSON_JUNK)
        elif drop:
            series.pop(field, None)
        else:
            series[field] = draw(JSON_JUNK)
    text = json.dumps(doc)
    if draw(st.integers(0, 3)) == 0:
        text = text.replace('"tail_order": ', '"tail_order": ' + "9" * draw(st.integers(1, 60)), 1)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def argvs(draw, point: str, out: str):
    """argv for one subcommand with small values and optional flags, and in
    one call of two a token replaced by junk, dropped, or junk added."""
    command = draw(st.sampled_from(["intersect", "verify", "grassmann", "affine", "coeffs"]))

    def opt(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    points = st.sampled_from([point, point, point, point + ".missing"])
    outputs = st.sampled_from([out, str(Path(out).parent), str(Path(out).parent / "no" / "dir")])
    if command == "coeffs":
        argv = [command, "--kind", draw(st.sampled_from(["c", "q", "b"])), "--max", draw(SMALL)]
    elif command == "affine":
        argv = [command, "--source", draw(st.sampled_from(["grassmann", "zhou"])),
                "--max-m", draw(SMALL), "--max-n", draw(SMALL),
                *opt("--format", st.sampled_from(["csv", "json"])), *opt("--output", outputs)]
    elif command == "intersect":
        argv = [command, ",".join(draw(st.lists(SMALL, min_size=1, max_size=4)))]
    elif command == "verify":
        suite = draw(st.sampled_from(["string", "kdv", *sorted(SUITE_DEFAULT_DEPTH), "all"]))
        argv = [command, suite, *opt("--depth", SMALL), *opt("--flow", SMALL)]
        if suite in ("string", "kdv") or draw(st.integers(0, 7)) == 0:
            argv += opt("--point", points)
    else:
        argv = [command, draw(points),
                *(["--affine", draw(SMALL), draw(SMALL)] if draw(st.booleans()) else []),
                *opt("--tau", SMALL), *opt("--tau-vars", st.sampled_from(["t", "theta"])),
                *opt("--initial-data", SMALL), *opt("--format", st.sampled_from(["csv", "json"])),
                *opt("--output", outputs)]
    edit = draw(st.sampled_from([None, None, None, None, "replace", "replace", "drop", "add"]))
    at = draw(st.integers(0, len(argv) - 1))
    if edit == "replace":
        argv[at] = draw(JUNK)
    elif edit == "drop":
        del argv[at]
    elif edit == "add":
        argv.insert(at + draw(st.integers(0, 1)), draw(JUNK))
    return argv


def run_quietly(argv: list[str], folder: Path) -> tuple[int, str]:
    """main(argv) run in `folder` (a junk token may become an output path),
    with its output captured; a SystemExit escaping main gives its code."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # main returns its codes; an exit here still has to be 0, 1 or 2
        code = exc.code
    finally:
        os.chdir(home)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_drawn_call_keeps_the_exit_code_contract(tmp_path_factory, data):
    # 0 pass, 1 verification failure, 2 usage or input error; an exception
    # escaping main fails this test with its traceback
    folder = tmp_path_factory.mktemp("fuzz")
    point, out = folder / "point.json", folder / "out.txt"
    point.write_text(data.draw(point_texts()), encoding="utf-8")
    argv = data.draw(argvs(str(point), str(out)))
    code, err = run_quietly(argv, folder)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
