#!/usr/bin/env python3
"""qmet benchmark: hull-stability, gh-search and delta-cli.

    python3 perfbench/run.py --workload hull-stability --seed 1 --seconds 25 --trace 0

Run from the root of a qmet source tree; qmet is imported from ./src.  One
client, one thread, closed loop: the next operation starts when the previous
one returns.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the same operations run again under
spans and the per-layer metrics are reported instead.  Without --workload,
every workload runs in a process of its own.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import NullTracer, Tracer, duration, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 40            # the tail percentile needs ten operations beyond it
TAIL_PERCENTILE = 75
SETUP_REPEATS = 5
LAYERS = ("space", "pairs", "hull", "gh", "coarse", "io", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("hull-stability", "gh-search", "delta-cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--panel-seed", type=int, default=None,
                   help="panel of gh-search and delta-cli (default: the fixed panel)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny rounds and no minimum operation count, for tests")
    return p.parse_args(argv)


def import_program():
    """Import qmet from this tree's src/, never from anywhere else."""
    if not (SRC / "qmet" / "__init__.py").is_file():
        sys.exit(f"error: no qmet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmet

    if Path(qmet.__file__).resolve().parent != (SRC / "qmet").resolve():
        sys.exit(f"error: imported qmet from {qmet.__file__}, not {SRC}")


def run_all(args) -> int:
    """Each workload in a process of its own; prints each result line."""
    status = 0
    for name in ("hull-stability", "gh-search", "delta-cli"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        if args.panel_seed is not None:
            cmd += ["--panel-seed", str(args.panel_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        print(json.dumps({"workload": name, "exit": proc.returncode, **json.loads(last[0])}))
        status = status or proc.returncode
    return status


class Run:
    """Drives one workload: rounds of operations, checks between rounds."""

    def __init__(self, workload: str):
        import workloads

        self.wl = workloads
        self.build, self.op_fn, self.replay_fn = workloads.WORKLOADS[workload]
        self.check = workloads.Checker(workload, SRC / "qmet" / "schemas" / "delta.schema.json")
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.latencies: list[float] = []

    def call(self, op, tr):
        try:
            return self.op_fn(op, tr)
        except Exception as err:  # a crash counts as a failed operation
            return err

    def record(self, op, out):
        self.attempted += 1
        bad = self.check(op, out)
        if bad:
            self.failures.append((op.id, bad))

    def correct(self) -> bool:
        return all(r.startswith(self.wl.KNOWN_FAULT) for _, bad in self.failures for r in bad)


def anchor(ops):
    """The operation used for the warm-up and the layer probe: the same panel
    entry whatever order the seed gives a round, so that neither depends on
    the order (a probe on a 12-point pair would search for seconds)."""
    return min(ops, key=lambda op: op.id)


def measure(run: Run, ops, seconds: float, min_ops: int) -> dict:
    null = NullTracer()
    latencies = []
    timed = 0.0
    while True:
        outs = []
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            out = run.call(op, null)
            latencies.append(time.perf_counter() - t0)
            outs.append(out)
        timed += time.perf_counter() - t_round
        for op, out in zip(ops, outs):
            run.record(op, out)
        if timed >= seconds and len(latencies) >= min_ops:
            break
    run.latencies = latencies
    return {
        "ops_per_s": (len(latencies) / timed, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (float(np.percentile(latencies, TAIL_PERCENTILE)), "s"),
    }


def measure_traced(run: Run, ops, seconds: float, spans_path: Path) -> dict:
    null, tr = NullTracer(), Tracer()
    overheads = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            t0 = time.perf_counter()
            run.call(op, null)
            untraced = time.perf_counter() - t0
            tr.begin_op(op.id)
            with tr.span("op") as rec:
                out = run.call(op, tr)
            overheads.append(rec["end"] - rec["start"] - untraced)
            if not isinstance(out, BaseException):
                with tr.span("replay"):
                    run.replay_fn(op, out, tr)
            run.record(op, out)
        tr.begin_op(f"probe{rounds}")
        with tr.span("probe"):
            run.wl.probe(anchor(ops), tr)
        rounds += 1
    tr.write(spans_path)
    return layer_metrics(tr.spans, overheads)


def layer_metrics(spans, overheads) -> dict:
    """Per-layer metrics from spans.  A metric uses the spans of the
    workload's own operations and replays; probe spans count only for names
    the workload produced none of."""
    root = []
    for s in spans:
        r = s
        while r["parent"] is not None:
            r = spans[r["parent"]]
        root.append(r["name"])

    def pick(name, pred=lambda s: True):
        own = [s for s, r in zip(spans, root) if s["name"] == name and r != "probe" and pred(s)]
        return own or [s for s, r in zip(spans, root) if s["name"] == name and pred(s)]

    def med(name, pred=lambda s: True):
        return statistics.median(duration(s) for s in pick(name, pred))

    def paired(a, b, pred_b=lambda s: True):
        """Median of duration(a) - duration(b) over operations holding both."""
        first = {}
        for s in spans:
            if s["name"] == a and s["op"] not in first:
                first[s["op"]] = [s, None]
        for s in spans:
            if s["name"] == b and pred_b(s) and s["op"] in first and first[s["op"]][1] is None:
                first[s["op"]][1] = s
        diffs = [duration(x) - duration(y) for x, y in first.values() if y is not None]
        return statistics.median(diffs)

    proj = pick("pairs.project_arrays", lambda s: s["rows"] > 1)
    nets = pick("hull.sample_hull")
    gh = pick("gh.gh_exact")
    st = self_times(spans)
    m = {
        "space.validate_s": (med("space.validate"), "s"),
        "space.triangle_closure_s": (med("space.triangle_closure"), "s"),
        "pairs.project_rows_per_s": (sum(s["rows"] for s in proj) / sum(map(duration, proj)), "1/s"),
        "pairs.project_call_s": (med("pairs.project_arrays", lambda s: s["rows"] == 1), "s"),
        "pairs.max_residual": (max(s["residual"] for s in pick("pairs.project_arrays")), "1"),
        "hull.sample_hull_s": (med("hull.sample_hull"), "s"),
        "hull.hull_as_qspace_s": (med("hull.hull_as_qspace"), "s"),
        "hull.net_gh_upper_s": (med("hull.net_gh_upper"), "s"),
        "hull.accept_ratio": (sum(s["kept"] - s["n"] for s in nets) / sum(s["k"] for s in nets), "1"),
        "gh.search_s": (med("gh.gh_exact"), "s"),
        "gh.nodes_per_search": (sum(s["nodes"] for s in gh) / len(gh), "count"),
        "gh.nodes_per_s": (sum(s["nodes"] for s in gh) / sum(map(duration, gh)), "1/s"),
        "coarse.estimate_delta_s": (med("coarse.estimate_delta"), "s"),
        "coarse.ascent_s": (paired("coarse.estimate_delta", "hull.sample_hull",
                                   lambda s: s.get("ref") == "delta"), "s"),
        "io.parse_space_s": (med("io.parse_space"), "s"),
        "cli.overhead_s": (paired("cli.dispatch", "coarse.estimate_delta"), "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (st.get(layer, 0.0) / len(overheads), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    import_program()
    t_import = time.perf_counter() - T_START

    run = Run(args.workload)
    panel_seed = run.wl.PANEL_SEED if args.panel_seed is None else args.panel_seed
    tag = f"{args.workload}-seed{args.seed}-panel{panel_seed}-trace{args.trace}"
    workdir = OUT / "inputs" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = run.build(args.seed, panel_seed, workdir, args.smoke)
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    run.call(anchor(ops), NullTracer())   # warm-up, not timed as an operation
    t_warm = time.perf_counter() - t0
    setup_s = t_import + statistics.median(builds) + t_warm

    if args.trace:
        metrics = measure_traced(run, ops, args.seconds, OUT / f"spans-{tag}.json")
    else:
        metrics = measure(run, ops, args.seconds, 1 if args.smoke else MIN_OPS)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    result = {
        "correct": run.correct(),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, panel_seed=panel_seed,
                  setup_parts={"import_s": t_import, "builds_s": builds, "warm_up_s": t_warm},
                  failures=sorted({(op, r) for op, bad in run.failures for r in bad}),
                  latencies=run.latencies)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    for op_id, reason in detail["failures"]:
        print(f"failed: {op_id}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
