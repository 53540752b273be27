"""Run one kdvtau CLI call with a span recorded around each layer's public functions.

    python3 replay.py SPANS_JSON ARG...

ARG... are the arguments of `kdvtau` (as for `python -m kdvtau.cli`).  The
child imports kdvtau, rebinds every module-level name of the functions
below to a recording wrapper (src/ is not edited), and calls the CLI's own
`main`, so the same public functions run in the same order.  A nested call
opens a child span, so a layer's self time leaves out the inner layers it
calls.  Spans stay in memory and go to SPANS_JSON when the call ends,
together with the sizes of the objects each layer produced.  The Z tables
built by `z_table_direct` are built once more afterwards by
`z_table_recursive`, untraced, as the reference route.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.enabled = True
        self.calls: dict[str, int] = {}
        self.results: dict[str, list] = {}

    def wrap(self, name: str, fn, keep=None, span: bool = True):
        """Wrapper for fn; keep(args, result) picks what to keep for the size stats."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[name] = self.calls.get(name, 0) + 1
            if not span:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                self.spans.append([name, clock(), 0.0, self.stack[-1] if self.stack else -1])
                self.stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[idx][2] = clock()
                    self.stack.pop()
            if keep is not None:
                self.results.setdefault(name, []).append(keep(args, result))
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out


def rebind(original, replacement) -> None:
    """Point every kdvtau module-level name bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "kdvtau" or modname.startswith("kdvtau."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def num_bits(values) -> int:
    return max((abs(v.numerator).bit_length() for v in values), default=0)


def install(tracer: Tracer, cli) -> None:
    from kdvtau import grassmann, schur, series, spin3, tau, zhou

    def fn(mod, attr, name, keep=None, span=True):
        rebind(getattr(mod, attr), tracer.wrap(name, getattr(mod, attr), keep, span))

    fn(schur, "schur_poly", "schur.schur_poly", lambda a, r: (a[0], len(r.terms)))
    fn(schur, "giambelli_coeff", "schur.giambelli", lambda a, r: r != 0)
    fn(schur, "partitions_up_to", "schur.partitions", lambda a, r: len(r), span=False)
    fn(tau, "tau_truncated", "tau.assemble", lambda a, r: r.poly)
    fn(tau, "to_t_variables", "tau.to_t", lambda a, r: r)
    fn(tau, "free_energy", "tau.free_energy", lambda a, r: r)
    fn(tau, "intersection_number", "tau.correlator")
    fn(tau, "initial_data", "tau.initial_data")
    for attr in ("wk_point", "wk_c_coeff", "wk_q_coeff"):
        fn(grassmann, attr, "grassmann.coeffs")
    for attr in ("build_G", "wk_G"):
        fn(grassmann, attr, "grassmann.loop_matrix")
    fn(grassmann, "z_table_direct", "grassmann.z_direct", lambda a, r: a)
    for attr in ("matrix_series_inverse", "series_inverse"):
        fn(series, attr, "series.inverse")
    fn(zhou, "zhou_affine_table", "zhou.table", lambda a, r: r)
    to_affine = grassmann.ZTable.to_affine_table
    grassmann.ZTable.to_affine_table = tracer.wrap("grassmann.to_affine", to_affine, lambda a, r: r)

    verifiers = {"verify_R_from_G": "verify_rmatrix", "verify_v_relations": "verify_vmatrix",
                 "verify_thm2": "verify_thm2"}
    for mod in (grassmann, zhou, tau, spin3):
        short = mod.__name__.rsplit(".", 1)[1]
        for attr in getattr(mod, "__all__", dir(mod)):
            if attr.startswith("verify_"):
                fn(mod, attr, f"{short}.{verifiers.get(attr, attr)}")

    # serialization: table/poly to JSON text, json.dumps and stdout writes in the CLI
    for cls, attr in ((grassmann.AffineTable, "to_json_dict"), (grassmann.AffineTable, "to_csv_text")):
        setattr(cls, attr, tracer.wrap("cli.serialize", getattr(cls, attr)))
    fn(schur, "graded_poly_to_json", "cli.serialize")

    class Json:
        def __getattr__(self, attr):
            return getattr(json, attr)

    cli.json = Json()
    cli.json.dumps = tracer.wrap("cli.serialize", json.dumps)

    class Out:
        def __init__(self, stream):
            self.stream = stream
            self.write = tracer.wrap("cli.serialize", stream.write)

        def __getattr__(self, attr):
            return getattr(self.stream, attr)

    sys.stdout = Out(sys.stdout)


def stats(tracer: Tracer) -> dict:
    """Sizes of what the layers produced, computed after the call has ended."""
    res = tracer.results
    polys = res.get("tau.assemble", []) + res.get("tau.to_t", []) + res.get("tau.free_energy", [])
    tables = res.get("grassmann.to_affine", []) + res.get("zhou.table", [])
    giambelli = res.get("schur.giambelli", [])
    return {
        "schur.schur_terms": sum(dict(res.get("schur.schur_poly", [])).values()),
        "schur.partitions": sum(res.get("schur.partitions", [])),
        "schur.giambelli_calls": len(giambelli),
        "schur.giambelli_nonzero": sum(giambelli),
        "tau.terms": sum(len(p.terms) for p in res.get("tau.assemble", [])),
        "tau.F_terms": sum(len(p.terms) for p in res.get("tau.free_energy", [])),
        "grassmann.table_nonzero": sum(len(t.entries) for t in res.get("grassmann.to_affine", [])),
        "zhou.entries": sum(len(t.entries) for t in res.get("zhou.table", [])),
        "exactnum.max_num_bits": max(
            [num_bits(p.terms.values()) for p in polys] + [num_bits(t.entries.values()) for t in tables],
            default=0,
        ),
    }


def main(spans_path: str, argv: list[str]) -> int:
    t0 = clock()
    import kdvtau.cli as cli

    import_s = clock() - t0
    tracer = Tracer()
    install(tracer, cli)
    start = clock()
    try:
        code = tracer.wrap("cli.op", cli.main)(argv)
    finally:
        sys.stdout.flush()
        end = clock()
        tracer.enabled = False
        from kdvtau import grassmann

        t = clock()
        for G, K, L in tracer.results.get("grassmann.z_direct", []):
            grassmann.z_table_recursive(G, K, L)
        z_recursive_s = clock() - t
        doc = {
            "import_s": import_s,
            "op_s": end - start,
            "self_s": tracer.self_times(),
            "calls": tracer.calls,
            "counts": stats(tracer),
            "z_recursive_s": z_recursive_s,
            "spans": tracer.spans,
        }
        doc["post_s"] = clock() - end
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
