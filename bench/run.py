"""kdvtau benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src.  One
client runs one op at a time: each op is a fresh `python -m kdvtau.cli ...`
child started after the previous one exits, timed from spawn to exit, with
its max-RSS taken from wait4.  Rounds (passes over the workload's seeded op
list) repeat while the next round is expected to end within --seconds; the
first always runs.  Every output is checked by bench/oracles.py, which
shares no code with kdvtau.  Each run works in a fresh directory under
.bench_work/ that is the children's cwd, HOME, XDG_CACHE_HOME, TMPDIR and
bytecode cache, and is removed at the end.

Children are started by bench/launcher.py, a small process, so that their
max-RSS is their own.  After every op a second launcher times reference(),
a fixed stdlib-only mix of exact-arithmetic work, for 15% of the op's time
(once at least), and the end-to-end times are scaled by REF_S / (the median
reference time of the run): they read as seconds at a fixed host speed.
The raw times are printed beside them.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
rounds with rounds replayed through bench/replay.py and reports per-layer
self times and sizes.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from workloads import WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
REPLAY = os.path.join(HERE, "replay.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no op starts after this many seconds of measuring
SETUP_FIRST = 3  # import samples before the first op; one more follows every untraced op
# A round figure for launcher.reference(), which took 0.14-0.25 s on a 2.1 GHz Xeon VM
# core with Python 3.11.  The single-core speed of a shared host drifts by tens of
# percent between minutes; the reference mix drifts with it, so scaled times drift much
# less.  Within a run the speed also jumps from second to second, which one sample
# cannot follow, so the whole run is scaled by one factor from the median of its
# samples.  The launcher samples in proportion to op time, so the samples are spread
# over the run the way the measured work is.
REF_S = 0.2

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

TIMES = [
    "schur.schur_poly", "schur.giambelli",
    "tau.assemble", "tau.to_t", "tau.free_energy", "tau.correlator", "tau.initial_data",
    "grassmann.coeffs", "grassmann.loop_matrix", "grassmann.z_direct", "grassmann.to_affine",
    "series.inverse", "zhou.table",
    "spin3.verify_rmatrix", "spin3.verify_vmatrix", "spin3.verify_thm2",
    "grassmann.verify_cq_identity", "grassmann.verify_kac_schwarz",
    "grassmann.verify_z_equivalence", "grassmann.verify_z_recursion_identity",
    "grassmann.verify_z_generating_series", "grassmann.verify_symmetry",
    "grassmann.verify_generating_function",
    "zhou.verify_two_step_recursion", "zhou.verify_b_symmetry", "zhou.verify_zhou_match",
    "tau.verify_string_equation", "tau.verify_string_recursion",
    "tau.verify_dimension_filter", "tau.verify_kdv_flow",
    "cli.serialize",
]
PER_LAYER = {f"{name}_s": "s" for name in TIMES}
PER_LAYER.update({
    "grassmann.z_recursive_s": "s",
    "cli.import_s": "s",
    "cli.other_s": "s",
    "schur.schur_terms": "count",
    "schur.partitions": "count",
    "schur.giambelli_nonzero_ratio": "ratio",
    "tau.assemble_calls": "count",
    "tau.terms": "count",
    "tau.F_terms": "count",
    "grassmann.table_nonzero": "count",
    "series.inverse_calls": "count",
    "zhou.entries": "count",
    "exactnum.max_num_bits": "bits",
    "cli.out_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
})


class Sandbox:
    """Fresh per-run directories and the environment every child gets."""

    def __init__(self, root: str, src: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=root)
        for sub in ("cwd", "home", "cache", "tmp", "pycache", "out"):
            os.mkdir(os.path.join(self.dir, sub))
        self.cwd = os.path.join(self.dir, "cwd")
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(
            PYTHONPATH=src,
            HOME=os.path.join(self.dir, "home"),
            XDG_CACHE_HOME=os.path.join(self.dir, "cache"),
            TMPDIR=os.path.join(self.dir, "tmp"),
            PYTHONPYCACHEPREFIX=os.path.join(self.dir, "pycache"),
        )
        self.env = env

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Result(NamedTuple):
    rc: int
    seconds: float
    maxrss_kb: int
    out: bytes
    timed_out: bool


class Launcher:
    """run.py's end of one launcher.py process (see there why children start from it)."""

    def __init__(self, box: Sandbox) -> None:
        self.box = box
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], cwd=box.dir, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.answer()

    def answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"launcher.py exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, cmd: list[str], name: str, timeout: float) -> Result:
        """Run one child to completion; time it from spawn to exit."""
        out_path = self.box.path("out", name + ".out")
        pid = self.ask({"argv": cmd, "env": self.box.env, "cwd": self.box.cwd, "out": out_path,
                        "err": self.box.path("out", name + ".err")})["pid"]
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # exited meanwhile
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            done = self.answer()
        finally:
            timer.cancel()
            timer.join()
        with open(out_path, "rb") as fh:
            data = fh.read()
        return Result(done["rc"], done["seconds"], done["maxrss_kb"], data, killed.is_set())

    def probe(self, seconds: float) -> list[float]:
        """reference() times for REF_SHARE of `seconds` of op time, one at least."""
        return self.ask({"probe": seconds})["refs"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def op_p50(kinds: list[list[float]]) -> float:
    """Median over op kinds of each kind's median latency.

    A round holds one op of each kind, and kinds differ in cost by design
    (degree, table size), so the median of all ops would sit at the edge
    between two kinds, on the extremes of their samples.
    """
    return median([median(times) for times in kinds])


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, root: str) -> None:
        self.name = workload
        self.make_round = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.seconds = seconds
        self.trace = trace
        self.box = Sandbox(os.path.join(root, ".bench_work"), os.path.join(root, "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.spans: list[dict] = []
        self.setup: list[float] = []
        self.refs: list[float] = []
        self.spawner = Launcher(self.box)  # starts every child
        self.prober = Launcher(self.box)  # times reference()

    def close(self) -> None:
        """Stop both launchers (they exit at end of input) and remove the run directory."""
        self.spawner.close()
        self.prober.close()
        self.box.close()

    def setup_sample(self) -> float:
        """One fresh interpreter that imports the CLI and exits."""
        r = self.spawner.run([sys.executable, "-c", "import kdvtau.cli"], "setup", OP_TIMEOUT_S)
        if r.rc != 0:
            raise SystemExit(f"cannot import kdvtau.cli (exit {r.rc}); see {self.box.path('out')}")
        return r.seconds

    def run_round(self, ops: list[Op], traced: bool, deadline: float) -> tuple[float, list[Result]]:
        """Run ops one after another; return the round's wall time and results.

        A traced op's wall time leaves out the replay's untraced post-processing.
        """
        wall = 0.0
        results = []
        done: dict[str, bytes] = {}
        for op in ops:
            name = op.key + ("-traced" if traced else "")
            if traced:
                cmd = [sys.executable, REPLAY, self.box.path("out", name + ".spans.json"), *op.argv]
            else:
                cmd = [sys.executable, "-m", "kdvtau.cli", *op.argv]
            timeout = min(OP_TIMEOUT_S, max(deadline - time.perf_counter(), 1.0))
            r = self.spawner.run(cmd, name, timeout)
            self.refs += self.prober.probe(r.seconds)
            results.append(r)
            done[op.key] = r.out
            self.attempted += 1
            if r.timed_out:
                reason = f"timed out after {timeout:.0f} s"
            else:
                try:
                    reason = op.check(r.rc, r.out, done)
                except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
                    reason = f"unreadable output: {exc!r}"
            if reason:
                self.failures.append(f"{name} ({' '.join(op.argv)}): {reason}")
            post = self.collect_spans(op, name, r) if traced else 0.0
            wall += r.seconds - post
            if not self.trace:  # spread the set-up samples over the run
                self.setup.append(self.setup_sample())
        return wall, results

    def collect_spans(self, op: Op, name: str, r: Result) -> float:
        """Keep the replay child's spans and sizes, tagged with op id and round.

        Returns the seconds the child spent after the traced call (post_s).
        """
        path = self.box.path("out", name + ".spans.json")
        if not os.path.exists(path):
            self.failures.append(f"{name}: no trace written")
            return 0.0
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["op"] = op.key
        doc["round"] = self.rounds
        doc["out_bytes"] = len(r.out)
        self.spans.append(doc)
        return doc["post_s"]

    def measure(self) -> dict:
        """Rounds until the next one would end past --seconds; the first always runs."""
        start = time.perf_counter()
        deadline = start + RUN_LIMIT_S
        walls: list[float] = []
        traced_walls: list[float] = []
        kinds: dict[str, list[Result]] = {}  # op key without its round tag -> one result per round
        peak_kb = 0
        while True:
            ops = self.make_round(self.rng, self.box.cwd, f"r{self.rounds}")
            t0 = time.perf_counter()
            wall, results = self.run_round(ops, False, deadline)
            walls.append(wall)
            for op, r in zip(ops, results):
                kinds.setdefault(op.key.split("-", 1)[1], []).append(r)
            peak_kb = max([peak_kb] + [r.maxrss_kb for r in results])
            if self.trace:
                traced_walls.append(self.run_round(ops, True, deadline)[0])
            self.rounds += 1
            now = time.perf_counter()
            if now + (now - t0) > min(start + self.seconds, deadline):
                break
        return {"walls": walls, "traced_walls": traced_walls, "kinds": kinds, "peak_kb": peak_kb}

    def layer_metrics(self, m: dict) -> dict:
        """Per-layer figures for one traced round (medians over traced rounds)."""
        per_round: dict[int, list[dict]] = {}
        for doc in self.spans:
            per_round.setdefault(doc["round"], []).append(doc)
        rows = []
        for docs in per_round.values():
            row = {k: 0.0 for k in PER_LAYER}
            calls: dict[str, int] = {}
            for doc in docs:
                for name, t in doc["self_s"].items():
                    key = "cli.other_s" if name == "cli.op" else f"{name}_s"
                    row[key] += t
                for name, n in doc["calls"].items():
                    calls[name] = calls.get(name, 0) + n
                for name, v in doc["counts"].items():
                    if name == "exactnum.max_num_bits":
                        row[name] = max(row[name], v)
                    elif name in row:
                        row[name] += v
                row["grassmann.z_recursive_s"] += doc["z_recursive_s"]
                row["cli.out_bytes"] += doc["out_bytes"]
            n_ops = len(docs)
            row["cli.import_s"] = median([doc["import_s"] for doc in docs])
            g_calls = sum(doc["counts"]["schur.giambelli_calls"] for doc in docs)
            g_nonzero = sum(doc["counts"]["schur.giambelli_nonzero"] for doc in docs)
            row["schur.giambelli_nonzero_ratio"] = g_nonzero / g_calls if g_calls else 0.0
            row["tau.assemble_calls"] = calls.get("tau.assemble", 0) / n_ops
            row["series.inverse_calls"] = calls.get("series.inverse", 0) / n_ops
            layers = sum(t for name, t in row.items() if name in PER_LAYER and name.endswith("_s")
                         and name not in ("cli.other_s", "cli.import_s", "grassmann.z_recursive_s"))
            op_time = sum(doc["op_s"] for doc in docs)
            row["trace.layer_share"] = layers / op_time if op_time else 0.0
            rows.append(row)
        out = {k: median([row[k] for row in rows]) for k in PER_LAYER}
        out["trace.overhead_ratio"] = median(m["traced_walls"]) / median(m["walls"])
        return out

    def run(self) -> dict:
        self.prober.probe(0)  # the first call warms up; not counted
        self.setup_sample()  # compiles the bytecode; not counted
        if not self.trace:
            self.setup = [self.setup_sample() for _ in range(SETUP_FIRST)]
        m = self.measure()
        if self.trace:
            layers = self.layer_metrics(m)
            metrics = {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}
        else:
            speed = REF_S / median(self.refs)
            values = {
                "setup_s": median(self.setup) * speed,
                "wall_s": median(m["walls"]) * speed,
                "op_p50_s": op_p50([[r.seconds for r in rs] for rs in m["kinds"].values()]) * speed,
                "peak_rss_mb": m["peak_kb"] * 1024 / 1e6,
            }
            metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        self.report(m, metrics)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def report(self, m: dict, metrics: dict) -> None:
        ops = [r for rs in m["kinds"].values() for r in rs]
        n = len(ops)
        print(f"workload {self.name}: {self.rounds} round(s), {self.attempted} ops attempted, "
              f"{len(self.failures)} failed, error_rate {len(self.failures) / max(self.attempted, 1):.4f}")
        for line in self.failures:
            print(f"  FAIL {line}")
        refs = sorted(self.refs)
        print(f"  host speed REF_S / reference time: {REF_S / median(refs):.4f} from the median of "
              f"{len(refs)} samples (single samples {REF_S / refs[-1]:.3f} to {REF_S / refs[0]:.3f}); "
              "end-to-end times below are scaled by it")
        if self.setup:
            print(f"  setup_s: median of {len(self.setup)} fresh `import kdvtau.cli` interpreters, "
                  f"spread over the run (raw {median(self.setup):.6g} s)")
        if self.trace:
            print(f"  round walls untraced {m['walls']} s, traced {m['traced_walls']} s")
            for doc in self.spans:
                if doc["round"] == 0:
                    top, t = max(doc["self_s"].items(), key=lambda kv: kv[1])
                    print(f"  traced op {doc['op']}: {doc['op_s']:.3f} s in the CLI, "
                          f"top layer {top} {t / doc['op_s']:.0%}")
        else:
            raw_p50 = op_p50([[r.seconds for r in rs] for rs in m["kinds"].values()])
            print(f"  wall_s: median over {len(m['walls'])} round(s) of the op list "
                  f"(raw {median(m['walls']):.6g} s); op_p50_s: median over {len(m['kinds'])} op kinds "
                  f"of each kind's median, n={n} ops (raw {raw_p50:.6g} s); "
                  "peak_rss_mb: largest child max-RSS")
        tail = [p for p in (90, 99, 99.9) if n * (100 - p) / 100 >= 10]
        if tail and not self.trace:
            q = statistics.quantiles([r.seconds for r in ops], n=1000, method="inclusive")
            p = tail[-1]
            print(f"  op_p{p}_s = {q[int(p * 10) - 1] * REF_S / median(self.refs):.6f} s (n={n})")
        elif not self.trace:
            print(f"  no tail percentile: n={n} leaves fewer than 10 samples beyond p90")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")

    def write_trace(self, root: str, seed: int) -> None:
        """Every span with its op id, written once the run is over."""
        spans = [
            {"op": doc["op"], "name": name, "start": start, "end": end, "parent": parent}
            for doc in self.spans
            for name, start, end, parent in doc["spans"]
        ]
        path = os.path.join(root, ".bench_work", f"trace-{self.name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        print(f"  spans: {len(spans)} written to {os.path.relpath(path, root)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kdvtau", "cli.py")):
        print("error: src/kdvtau/cli.py not found; run from the root of a kdvtau checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), root)
    try:
        result = bench.run()
        if bench.trace:
            bench.write_trace(root, args.seed)
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
