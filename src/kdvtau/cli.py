"""Command-line front end.

Subcommands:

    coeffs     print the c / q / b coefficient sequences
    affine     export an affine-coordinate table (CSV or JSON)
    intersect  one psi-class intersection number from its insertion indices
    verify     run an identity-verification suite (exit 1 on failure)
    grassmann  load a custom point file and derive table / tau / initial data

Exit codes are the machine contract: 0 pass, 1 verification failure,
2 usage or input error.  All rational output is "p/q" in lowest terms.
Every Z table comes from the recursion on a loop matrix of depth n
(`grassmann.z_table_recursive`), of the order its reader needs: K + L + 1
for the corner k <= K, l <= L of an export or a suite, (D - 1)//2 + 1 for a
tau of degree D (`tau.table_order`).  The recursion computes and checks the
whole triangle Z_{k,l}, k + l < n; a tau or a suite keeps it, and an export
keeps only the K x L corner it writes, so every row is checked either way.
The suites read the Witten-Kontsevich tables of `grassmann.wk_z_table`;
`intersect` passes only the spec, and `tau.correlator` sizes its own table.
`grassmann` builds one table, of the largest order its tasks need, on a
point file read only that deep.  `verify` prints its report lines once
every suite has run, so a suite that raises leaves stdout empty.
`affine` and `grassmann --affine` write their table row by row from integer
pairs (`write_affine`), once everything that can fail has run, so no copy
of the corner or of the output is held.  A write that fails, a closed pipe
on stdout included, is an output error: "error: ..." on stderr, exit 2.

The arguments of the subcommands are one table, `COMMANDS`: `parse_args`
reads argv by it and `--help` prints it.  Options are spelled out in full,
as "--name value" or "--name=value".  A usage error prints the command's
usage line and "kdvtau: error: ..." on stderr, and `main` returns 2.  The
parser is not argparse, which imports gettext and locale: 5-7 ms of each
call, where an `intersect` computes for 2-5 ms.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import grassmann as gr
from . import spin3, tau as tau_mod, zhou
from .errors import ExactComputationError
from .exactnum import format_ratio, format_rational
from .report import VerificationReport
from .schur import graded_poly_to_json

SUITE_DEFAULT_DEPTH = {
    "cq-identity": 30,
    "kac-schwarz": 30,
    "recursion": 20,
    "symmetry": 30,
    "genfun": 15,
    "zhou-match": 30,
    "string": 12,
    "kdv": 12,
    "rmatrix": 12,
    "vmatrix": 3,
    "thm2": 3,
}
POINT_SUITES = ("string", "kdv")  # the suites that read a --point file


def _z_table(point: gr.GrassmannPoint | None, order: int) -> gr.ZTable:
    """Z_{k,l}, k + l < order, of `point` (None: the Witten-Kontsevich point)."""
    return gr.wk_z_table(order) if point is None else gr.z_table_recursive(gr.build_G(point, order))


INT_LITERAL_CHARS = 20  # no tail order or head exponent of a usable point is longer


class _LongInt:
    """An integer literal too long to convert (it takes quadratic time); no field check accepts it."""

    def __init__(self, text: str) -> None:
        self.size = len(text)

    def __repr__(self) -> str:
        return f"a literal of {self.size} characters (at most {INT_LITERAL_CHARS} are read)"


def _load_point(path: str, order: int) -> gr.GrassmannPoint:
    """The point in the file at `path`, read only as far as the Z table of
    `order` needs (`grassmann.point_from_json`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:  # UnicodeDecodeError, JSONDecodeError: ValueErrors; deep nesting: RecursionError
            doc = json.load(fh, parse_int=lambda t: int(t) if len(t) <= INT_LITERAL_CHARS else _LongInt(t))
            return gr.point_from_json(doc, order)
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            raise ExactComputationError(f"malformed point file {path}: {exc}") from exc


class UsageError(Exception):
    """A command line that names no valid call: `main` prints it under the
    command's usage line and returns 2."""


def _int_at_least(low: int):
    """Reader of an integer >= low in ASCII digits; anything else (a sign,
    space, underscore, another script's digits) is a usage error (exit 2)."""

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit() and int(text) >= low):
            raise ValueError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


_count = _int_at_least(0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args: SimpleNamespace) -> int:
    fn = {"c": gr.wk_c_coeff, "q": gr.wk_q_coeff, "b": zhou.b_seq}[args.kind]
    for k in range(args.max + 1):
        print(f"{k}\t{format_rational(fn(k))}")
    return 0


def write_affine(stream, max_m: int, max_n: int, source: str, fmt: str, read, end: str = "\n") -> None:
    """Write A_{m,n}, m <= max_m, n <= max_n, to `stream` as the `fmt` export,
    then `end`, one row m per write.  Each entry is read as the integer pair
    read(m, n) = (p, q), q > 0, and reduced once (`format_ratio`).  The CSV
    heads its columns with n and writes zeros; the JSON object lists the
    nonzero [m, n, "p/q"] in order."""
    if fmt == "csv":
        stream.write("," + ",".join(map(str, range(max_n + 1))))
        for m in range(max_m + 1):
            stream.write(f"\n{m}," + ",".join(format_ratio(*read(m, n)) for n in range(max_n + 1)))
        stream.write(end)
        return
    stream.write(f'{{"max_m":{max_m},"max_n":{max_n},"source":"{source}","entries":[')
    sep = ""
    for m in range(max_m + 1):
        row = ",".join(f'[{m},{n},"{format_ratio(p, q)}"]'
                       for n in range(max_n + 1) for p, q in [read(m, n)] if p)
        if row:
            stream.write(sep + row)
            sep = ","
    stream.write("]}" + end)


def cmd_affine(args: SimpleNamespace) -> int:
    if args.source == "grassmann":
        K, L = args.max_m // 2, args.max_n // 2
        read = gr.z_table_recursive(gr.wk_G(K + L + 1), K, L).affine
    else:
        read = zhou._B_int
    return _emit(args.output,
                 lambda out: write_affine(out, args.max_m, args.max_n, args.source, args.format, read))


def cmd_intersect(args: SimpleNamespace) -> int:
    try:
        spec = tau_mod.CorrelatorSpec.of([_count(part) for part in args.spec.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse spec {args.spec!r}; expected 'k1,k2,...'") from None
    if not spec.is_valid:
        print("dimension constraint violated: value is 0", file=sys.stderr)
    value = tau_mod.correlator(spec)  # 0 for an invalid spec
    print(json.dumps({"spec": list(spec.exponents), "genus": spec.genus, "value": format_rational(value)}))
    return 0


def _run_suite(
    suite: str, depth: int, flow: int, point: gr.GrassmannPoint | None, memo: dict
) -> list[VerificationReport]:
    if suite == "cq-identity":
        return [gr.verify_cq_identity(depth)]
    if suite == "kac-schwarz":
        return [gr.verify_kac_schwarz(depth)]
    if suite == "recursion":
        # the recursion is checked on the closed-formula table: on the table it
        # built itself it would hold by construction
        table = gr.z_table_direct(gr.wk_G(2 * depth + 1), depth, depth)
        return [
            gr.verify_z_equivalence(table),
            gr.verify_z_recursion_identity(table),
            gr.verify_z_generating_series(table, depth // 2),
            zhou.verify_two_step_recursion(2 * depth),
        ]
    if suite == "symmetry":
        half = max(depth // 2, 1)
        return [zhou.verify_b_symmetry(depth, depth), gr.verify_symmetry(gr.wk_z_table(2 * half + 1), half)]
    if suite == "genfun":
        return [gr.verify_generating_function(gr.wk_z_table(2 * depth + 1), depth)]
    if suite == "zhou-match":
        # spans 0..2 (depth // 2) + 1 >= depth; the verifier reads 0..depth
        return [zhou.verify_zhou_match(gr.wk_z_table(2 * (depth // 2) + 1), depth, depth)]
    if suite in POINT_SUITES:
        t = memo.get((point, depth))
        if t is None:
            table = _z_table(point, tau_mod.table_order(depth))
            # the suites read tau in t only, which has no even theta
            t = memo[point, depth] = tau_mod.tau_truncated(table, depth, range(1, depth + 1, 2))
        if suite == "kdv":
            return [tau_mod.verify_kdv_flow(t, flow)]
        reports = [tau_mod.verify_string_equation(t)]
        if point is None:
            reports.append(tau_mod.verify_string_recursion(t))
            reports.append(tau_mod.verify_dimension_filter(t))
        return reports
    if suite == "rmatrix":
        return [spin3.verify_R_from_G(depth)]
    if suite == "vmatrix":
        return [spin3.verify_v_relations(depth)]
    if suite == "thm2":
        # reads Z_{k,l}, k, l <= 3 depth + 2
        return [spin3.verify_thm2(gr.wk_z_table(6 * depth + 5), depth, depth)]
    raise ValueError(f"unknown suite {suite!r}")


def cmd_verify(args: SimpleNamespace) -> int:
    point = None
    if args.point:
        if args.suite not in POINT_SUITES:
            raise UsageError("--point applies only to the string and kdv suites")
        depth = args.depth if args.depth is not None else SUITE_DEFAULT_DEPTH[args.suite]
        point = _load_point(args.point, tau_mod.table_order(depth))
    if args.suite == "all":
        runs = [(suite, None) for suite in SUITE_DEFAULT_DEPTH if suite != "kdv"]
        runs += [("kdv", 1), ("kdv", 2)]
    else:
        runs = [(args.suite, args.flow)]
    memo: dict = {}  # tau per (point, depth), shared by the string and kdv suites
    reports = []
    for suite, flow in runs:
        depth = args.depth if args.depth is not None else SUITE_DEFAULT_DEPTH[suite]
        reports += _run_suite(suite, depth, flow if flow is not None else args.flow, point, memo)
    # printed once every suite has run: a suite that raises leaves stdout empty
    for rep in reports:
        print(rep.line())
    return 1 if any(not rep.skipped and not rep.passed for rep in reports) else 0


def cmd_grassmann(args: SimpleNamespace) -> int:
    degrees = []  # tau degrees the tasks need
    if args.tau is not None:
        degrees.append(args.tau)
    if args.initial_data is not None:
        degrees.append(args.initial_data + 2)
    if args.affine is None and not degrees:
        raise UsageError("nothing to do: pass --affine/--tau/--initial-data")
    if args.affine is not None and args.format == "csv" and degrees:
        raise UsageError("csv format is only available when --affine is the sole task")
    # one Z table and one tau, each as deep as the deepest task needs; the
    # tasks read corners of the table and truncations of the tau.  A tau reads
    # the triangle; an export alone keeps only the corner it writes
    orders = [tau_mod.table_order(max(degrees))] if degrees else []
    corner = ()
    if args.affine is not None:
        K, L = args.affine[0] // 2, args.affine[1] // 2
        orders.append(K + L + 1)
        if not degrees:
            corner = (K, L)
    G = gr.build_G(_load_point(args.pointfile, max(orders)), max(orders))
    table = gr.z_table_recursive(G, *corner)
    doc: dict = {}
    t = None
    if degrees:
        # only a theta export reads the even theta; t and the initial data do not
        D, theta = max(degrees), args.tau is not None and args.tau_vars == "theta"
        t = tau_mod.tau_truncated(table, D, None if theta else range(1, D + 1, 2))
    if args.tau is not None:
        tau_t = t.truncate(args.tau)
        poly = tau_mod.to_t_variables(tau_t) if args.tau_vars == "t" else tau_t.theta_poly()
        doc["tau"] = graded_poly_to_json(poly)
    if args.initial_data is not None:
        values = tau_mod.initial_data(t.truncate(args.initial_data + 2), args.initial_data)
        doc["initial_data"] = [format_rational(v) for v in values]
    # everything that can fail has run: the affine export streams first
    text = json.dumps(doc, indent=None, separators=(",", ":")) + "\n"
    if args.affine is None:
        return _emit(args.output, lambda out: out.write(text))
    read = table.affine
    if args.format == "csv":  # --affine is the sole task
        return _emit(args.output, lambda out: write_affine(out, *args.affine, "custom", "csv", read))

    def write(out) -> None:
        out.write('{"affine":')
        write_affine(out, *args.affine, "custom", "json", read, "," + text[1:] if doc else "}\n")

    return _emit(args.output, write)


def _emit(output: str | None, write) -> int:
    """Call write(stream) on the --output file, or else on sys.stdout as it is
    bound now, so that a stream put in its place is written through."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# the command line: one table, read by `parse_args` and shown by `--help`
# ---------------------------------------------------------------------------


class Arg:
    """A positional (keyed by its name) or an option (keyed "--name") of a
    subcommand.  `kind` reads each value: a function of the text that raises
    ValueError, or the tuple of the accepted choices.  An option takes
    `nargs` values, named `metavar` in the usage line."""

    __slots__ = ("help", "kind", "default", "nargs", "required", "metavar")

    def __init__(self, help: str, kind=str, default=None, nargs: int = 1, required: bool = False,
                 metavar: str | None = None) -> None:
        self.help, self.kind, self.default, self.nargs = help, kind, default, nargs
        self.required, self.metavar = required, metavar

    def read(self, name: str, text: str):
        try:
            if not isinstance(self.kind, tuple):
                return self.kind(text)
            if text in self.kind:
                return text
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(self.kind)})")
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None


SUITES = (*sorted(SUITE_DEFAULT_DEPTH), "all")
FORMAT = Arg("output format", ("csv", "json"), default="json")
OUTPUT = Arg("file to write instead of stdout")

COMMANDS = {  # command: (handler, help, {positional or option: Arg})
    "coeffs": (cmd_coeffs, "print a coefficient sequence", {
        "--kind": Arg("c_k, q_k or Zhou's b_k", ("c", "q", "b"), required=True),
        "--max": Arg("last index k", _count, required=True),
    }),
    "affine": (cmd_affine, "export an affine-coordinate table", {
        "--source": Arg("the Grassmannian route or Zhou's closed form", ("grassmann", "zhou"), required=True),
        "--max-m": Arg("largest m of A_{m,n}", _count, required=True),
        "--max-n": Arg("largest n of A_{m,n}", _count, required=True),
        "--format": FORMAT,
        "--output": OUTPUT,
    }),
    "intersect": (cmd_intersect, "one intersection number", {
        "spec": Arg("comma-separated insertion indices, e.g. 0,0,0"),
    }),
    "verify": (cmd_verify, "run a verification suite", {
        "suite": Arg("one of " + ", ".join(SUITES), SUITES),
        "--depth": Arg("depth of the check (default: the suite's own)", _count),
        "--flow": Arg("the flow the kdv suite checks", _int_at_least(1), default=1),
        "--point": Arg("JSON point file checked by the string and kdv suites "
                       "(any other suite, all included, exits 2)"),
    }),
    "grassmann": (cmd_grassmann, "derive data from a point file", {
        "pointfile": Arg("JSON point file"),
        "--affine": Arg("export A_{m,n} for m <= MAX_M, n <= MAX_N", _count, nargs=2, metavar="MAX_M MAX_N"),
        "--tau": Arg("export tau through this degree", _count, metavar="DEGREE"),
        "--tau-vars": Arg("variables of the tau export", ("theta", "t"), default="t"),
        "--initial-data": Arg("export u(x) through x^N", _count, metavar="N"),
        "--format": Arg("output format; csv only when --affine is the sole task", FORMAT.kind, default="json"),
        "--output": OUTPUT,
    }),
}


def _is_option(token: str) -> bool:
    return token == "-h" or token.startswith("--")


def parse_args(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command argv names and its arguments, read by its COMMANDS entry:
    "--name value" or "--name=value", positionals in order, "--" ends the
    options.  Arguments None ask for help (command None: the overview).
    Raises UsageError."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv or argv[0] not in COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}){got}")
    command, tokens = argv[0], argv[1:]
    table = COMMANDS[command][2]
    values = {name: arg.default for name, arg in table.items()}
    waiting = [name for name in table if not name.startswith("--")]  # positionals not yet read
    i, options = 0, True
    while i < len(tokens):
        token, i = tokens[i], i + 1
        if not (options and _is_option(token)):
            if not waiting:
                raise UsageError(f"unexpected argument {token!r}")
            name = waiting.pop(0)
            values[name] = table[name].read(name, token)
        elif token == "--":
            options = False
        elif token in ("-h", "--help"):
            return command, None
        else:
            name, inline, text = token.partition("=")
            if name not in table:
                raise UsageError(f"unknown option {name}")
            arg = table[name]
            texts = [text] if inline else tokens[i:i + arg.nargs]
            if len(texts) != arg.nargs or not inline and any(map(_is_option, texts)):
                raise UsageError(f"argument {name}: expected {arg.nargs} value{'s' * (arg.nargs > 1)}")
            i += 0 if inline else arg.nargs
            read = [arg.read(name, text) for text in texts]
            values[name] = read if arg.nargs > 1 else read[0]
    missing = waiting + [name for name, arg in table.items() if arg.required and values[name] is None]
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    return command, SimpleNamespace(**{name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def _shown(name: str, arg: Arg) -> str:
    """One entry of a COMMANDS table as the usage line shows it."""
    if not name.startswith("--"):
        return name
    if isinstance(arg.kind, tuple):
        value = "{" + ",".join(arg.kind) + "}"
    else:
        value = arg.metavar or name[2:].replace("-", "_").upper()
    return f"{name} {value}" if arg.required else f"[{name} {value}]"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: kdvtau {" + ",".join(COMMANDS) + "} ..."
    return " ".join([f"usage: kdvtau {command}", *(_shown(n, a) for n, a in COMMANDS[command][2].items())])


def _help(command: str | None) -> str:
    """The usage line, then each command (command None) or each argument of `command`."""
    if command is None:
        text = ("Exact Grassmannian data, tau functions and intersection numbers for the KdV hierarchy.\n"
                "'kdvtau COMMAND --help' lists the arguments of COMMAND.")
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, text, table = COMMANDS[command]
        rows = [(_shown(n, a).strip("[]"), a.help + (f" (default: {a.default})" if a.default else ""))
                for n, a in table.items()]
    rows.append(("-h, --help", "show this help"))
    width = max(len(row[0]) for row in rows) + 2
    return "\n".join([_usage(command), "", text, "", *(f"  {a:<{width}}{b}" for a, b in rows)])


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7, which has no limit
        sys.set_int_max_str_digits(0)  # exact values print and parse at any size
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, args = parse_args(argv)
        if args is None:
            print(_help(command))
            code = 0
        else:
            code = COMMANDS[command][0](args)
        sys.stdout.flush()  # a reader gone from stdout fails here, not in the flush at exit
        return code
    except UsageError as exc:
        command = argv[0] if argv and argv[0] in COMMANDS else None
        print(f"{_usage(command)}\nkdvtau: error: {exc}", file=sys.stderr)
        return 2
    except (ExactComputationError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader is gone: what stdout buffers goes nowhere at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
