"""Command-line front end.

Subcommands:

    coeffs     print the c / q / b coefficient sequences
    affine     export an affine-coordinate table (CSV or JSON)
    intersect  one psi-class intersection number from its insertion indices
    verify     run an identity-verification suite (exit 1 on failure)
    grassmann  load a custom point file and derive table / tau / initial data

Exit codes are the machine contract: 0 pass, 1 verification failure,
2 usage or input error.  All rational output is "p/q" in lowest terms.
The suites read the Witten-Kontsevich Z tables of `grassmann.wk_z_table`;
`intersect` passes only the spec, and `tau.correlator` sizes its own table.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import grassmann as gr
from . import spin3, tau as tau_mod, zhou
from .errors import ExactComputationError
from .exactnum import format_rational
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


def _z_tables(point: gr.GrassmannPoint | None, *shapes: tuple[int, int]) -> list[gr.ZTable]:
    """Z_{k,l} for k <= K, l <= L of `point` (None: the Witten-Kontsevich
    point), one table per (K, L) in `shapes`, all from one recursion run."""
    depth = _loop_depth(shapes)
    G = gr.wk_G(depth) if point is None else gr.build_G(gr.normalize_point(point), depth)
    return gr.z_tables_recursive(G, list(shapes))


def _loop_depth(shapes: list[tuple[int, int]]) -> int:
    """The depth of the loop matrix whose Z table `_z_tables` builds for `shapes`."""
    return max(K + L for K, L in shapes) + 1


def _tau_shape(degree: int) -> tuple[int, int]:
    """The Z table a tau of `degree` reads (`tau.tau_truncated`): A_{m,n} for
    m, n < degree and no more, so that its top grade E_{2 half + 1}, the
    scale of the Giambelli minors, is the least one."""
    half = max(degree - 1, 0) // 2
    return half, half


INT_LITERAL_CHARS = 20  # no tail order or head exponent of a usable point is longer


class _LongInt:
    """An integer literal too long to convert (it takes quadratic time); no field check accepts it."""

    def __init__(self, text: str) -> None:
        self.size = len(text)

    def __repr__(self) -> str:
        return f"a literal of {self.size} characters (at most {INT_LITERAL_CHARS} are read)"


def _load_point(path: str, shapes: list[tuple[int, int]]) -> gr.GrassmannPoint:
    """The point in the file at `path`, read only as far as the tables of
    `shapes` need (`grassmann.point_from_json`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:  # UnicodeDecodeError, JSONDecodeError: ValueErrors; deep nesting: RecursionError
            doc = json.load(fh, parse_int=lambda t: int(t) if len(t) <= INT_LITERAL_CHARS else _LongInt(t))
            return gr.point_from_json(doc, _loop_depth(shapes))
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            raise ExactComputationError(f"malformed point file {path}: {exc}") from exc


def _int_at_least(low: int):
    """argparse type for an integer >= low in ASCII digits; anything else (a
    sign, space, underscore, another script's digits) is a usage error (exit 2)."""

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


_count = _int_at_least(0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace) -> int:
    fn = {"c": gr.wk_c_coeff, "q": gr.wk_q_coeff, "b": zhou.b_seq}[args.kind]
    for k in range(args.max + 1):
        print(f"{k}\t{format_rational(fn(k))}")
    return 0


def cmd_affine(args: argparse.Namespace) -> int:
    if args.source == "grassmann":
        (z,) = _z_tables(None, (args.max_m // 2, args.max_n // 2))
        table = z.to_affine_table(args.max_m, args.max_n, "grassmann")
    else:
        table = zhou.zhou_affine_table(args.max_m, args.max_n)
    if args.format == "csv":
        text = table.to_csv_text()
    else:
        text = json.dumps(table.to_json_dict(), indent=None, separators=(",", ":")) + "\n"
    return _emit(args.output, text)


def cmd_intersect(args: argparse.Namespace) -> int:
    try:
        spec = tau_mod.CorrelatorSpec.of([_count(part) for part in args.spec.split(",")])
    except argparse.ArgumentTypeError:
        print(f"cannot parse spec {args.spec!r}; expected 'k1,k2,...'", file=sys.stderr)
        return 2
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
        return [zhou.verify_b_symmetry(depth, depth), gr.verify_symmetry(gr.wk_z_table(half), half)]
    if suite == "genfun":
        return [gr.verify_generating_function(gr.wk_z_table(depth), depth)]
    if suite == "zhou-match":
        # spans 0..2 (depth // 2) + 1 >= depth; the verifier reads 0..depth
        return [zhou.verify_zhou_match(gr.wk_z_table(depth // 2), depth, depth)]
    if suite in POINT_SUITES:
        t = memo.get((point, depth))
        if t is None:
            (table,) = _z_tables(point, _tau_shape(depth))
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
        return [spin3.verify_thm2(gr.wk_z_table(3 * depth + 2), depth, depth)]
    raise ValueError(f"unknown suite {suite!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    point = None
    if args.point:
        if args.suite not in POINT_SUITES:
            print("error: --point applies only to the string and kdv suites", file=sys.stderr)
            return 2
        depth = args.depth if args.depth is not None else SUITE_DEFAULT_DEPTH[args.suite]
        point = _load_point(args.point, [_tau_shape(depth)])
    if args.suite == "all":
        runs = [(suite, None) for suite in SUITE_DEFAULT_DEPTH if suite != "kdv"]
        runs += [("kdv", 1), ("kdv", 2)]
    else:
        runs = [(args.suite, args.flow)]
    any_fail = False
    memo: dict = {}  # tau per (point, depth), shared by the string and kdv suites
    for suite, flow in runs:
        depth = args.depth if args.depth is not None else SUITE_DEFAULT_DEPTH[suite]
        reports = _run_suite(suite, depth, flow if flow is not None else args.flow, point, memo)
        for rep in reports:
            print(rep.line())
            if not rep.skipped and not rep.passed:
                any_fail = True
    return 1 if any_fail else 0


def cmd_grassmann(args: argparse.Namespace) -> int:
    degrees = []  # tau degrees the tasks need
    if args.tau is not None:
        degrees.append(args.tau)
    if args.initial_data is not None:
        degrees.append(args.initial_data + 2)
    if args.affine is None and not degrees:
        print("nothing to do: pass --affine/--tau/--initial-data", file=sys.stderr)
        return 2
    if args.affine is not None and args.format == "csv" and degrees:
        print("csv format is only available when --affine is the sole task", file=sys.stderr)
        return 2
    # one Z table and one tau, each as deep as the deepest task needs; the
    # tasks read corners of the table and truncations of the tau
    shapes = [(args.affine[0] // 2, args.affine[1] // 2)] if args.affine is not None else []
    if degrees:
        shapes.append(_tau_shape(max(degrees)))
    tables = _z_tables(_load_point(args.pointfile, shapes), *shapes)
    doc: dict = {}
    if args.affine is not None:
        export = tables[0].to_affine_table(*args.affine, "custom")
        if args.format == "csv":
            return _emit(args.output, export.to_csv_text())
        doc["affine"] = export.to_json_dict()
    t = None
    if degrees:
        # only a theta export reads the even theta; t and the initial data do not
        D, theta = max(degrees), args.tau is not None and args.tau_vars == "theta"
        t = tau_mod.tau_truncated(tables[-1], D, None if theta else range(1, D + 1, 2))
    if args.tau is not None:
        tau_t = t.truncate(args.tau)
        poly = tau_mod.to_t_variables(tau_t) if args.tau_vars == "t" else tau_t.theta_poly()
        doc["tau"] = graded_poly_to_json(poly)
    if args.initial_data is not None:
        values = tau_mod.initial_data(t.truncate(args.initial_data + 2), args.initial_data)
        doc["initial_data"] = [format_rational(v) for v in values]
    return _emit(args.output, json.dumps(doc, indent=None, separators=(",", ":")) + "\n")


def _emit(output: str | None, text: str) -> int:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvtau",
        description="Exact Grassmannian data, tau functions and intersection numbers for the KdV hierarchy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print a coefficient sequence")
    p.add_argument("--kind", choices=["c", "q", "b"], required=True)
    p.add_argument("--max", type=_count, required=True)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("affine", help="export an affine-coordinate table")
    p.add_argument("--source", choices=["grassmann", "zhou"], required=True)
    p.add_argument("--max-m", type=_count, required=True)
    p.add_argument("--max-n", type=_count, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_affine)

    p = sub.add_parser("intersect", help="one intersection number")
    p.add_argument("spec", help="comma-separated insertion indices, e.g. 0,0,0")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITE_DEFAULT_DEPTH) + ["all"])
    p.add_argument("--depth", type=_count, default=None)
    p.add_argument("--flow", type=_int_at_least(1), default=1)
    p.add_argument("--point", default=None,
                   help="JSON point file checked by the string and kdv suites "
                        "(any other suite, all included, exits 2)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grassmann", help="derive data from a point file")
    p.add_argument("pointfile")
    p.add_argument("--affine", type=_count, nargs=2, metavar=("MAX_M", "MAX_N"))
    p.add_argument("--tau", type=_count, default=None, metavar="DEGREE")
    p.add_argument("--tau-vars", choices=["theta", "t"], default="t")
    p.add_argument("--initial-data", type=_count, default=None, metavar="N")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_grassmann)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7, which has no limit
        sys.set_int_max_str_digits(0)  # exact values print and parse at any size
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExactComputationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
