"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from spans the benchmark records around each call into a layer, and the
lines before the JSON hold a self-time table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (every workload reports each) and their units.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "structure_bytes": "bytes",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "qerror_gmean": "ratio",
}

#: Per-layer metrics derived from span durations: metric -> span name.  The
#: value is the median, over the set-ups or rounds that ran the span, of the
#: span's total time in one of them.
SPAN_METRICS = {
    "datasets.generate_s": "datasets.generate",
    "sets.labels_s": "sets.labels",
    "sets.negatives_s": "sets.negatives",
    "core.card_fit_s": "core.card_fit",
    "core.index_fit_s": "core.index_fit",
    "core.bloom_fit_s": "core.bloom_fit",
    "core.pickle_s": "core.pickle",
    "infer.freeze_s": "infer.freeze",
    "serve.pool_start_s": "serve.pool_start",
    "cli.train_s": "cli.train",
    "cli.serve_start_s": "cli.serve_start",
}

#: Every per-layer metric and its unit; a layer a workload does not run
#: reports 0.
PER_LAYER = {
    "datasets.generate_s": "s",
    "sets.labels_s": "s",
    "sets.negatives_s": "s",
    "sets.exact_ms": "ms",
    "core.card_fit_s": "s",
    "core.index_fit_s": "s",
    "core.bloom_fit_s": "s",
    "core.epoch_s": "s",
    "core.outliers": "count",
    "core.card_bytes": "bytes",
    "core.index_bytes": "bytes",
    "core.bloom_bytes": "bytes",
    "core.pickle_s": "s",
    "core.aux_hits": "count",
    "core.lookup_ms": "ms",
    "core.sets_scanned": "sets/lookup",
    "infer.freeze_s": "s",
    "infer.estimate_ms": "ms",
    "serve.pool_start_s": "s",
    "serve.worker_batch_mean": "queries",
    "serve.worker_p50_ms": "ms",
    "serve.cache_hit_rate": "ratio",
    "serve.cache_invalidations": "1/write",
    "serve.write_p50_ms": "ms",
    "serve.server_p50_ms": "ms",
    "serve.batch_mean": "queries",
    "serve.batch_wait_ms": "ms",
    "serve.model_forward_ms": "ms",
    "reliability.exact_fallbacks": "1/query",
    "reliability.short_circuits": "1/query",
    "reliability.fallback_ms": "ms",
    "cli.train_s": "s",
    "cli.serve_start_s": "s",
    "self.datasets_s": "s",
    "self.sets_s": "s",
    "self.core_s": "s",
    "self.infer_s": "s",
    "self.serve_s": "s",
    "self.reliability_s": "s",
    "self.cli_s": "s",
    "self.bench_s": "s",
    "unexplained_s": "s",
    "wall_s": "s",
    "trace_overhead_pct": "%",
}

WORKLOAD_NAMES = ("build", "pool-hot-rw", "tcp-index-cold")

#: A run must end within 180 s; past this the run aborts, tears down and
#: exits without a result.
WATCHDOG_S = 170


class Interrupted(Exception):
    """The watchdog fired or the run was asked to stop; tear down and exit."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt one answer before the checks (for selftest.py)",
    )
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, workdir: Path):
    if name == "build":
        from workload_build import BuildWorkload

        return BuildWorkload(seed)
    if name == "pool-hot-rw":
        from workload_pool import PoolWorkload

        return PoolWorkload(seed)
    from workload_tcp import TcpWorkload

    return TcpWorkload(seed, ROOT, workdir)


def span_metrics(spans) -> dict[str, float]:
    """Per-phase totals of the spans named in :data:`SPAN_METRICS`."""
    from harness import median

    by_id = {span[0]: span for span in spans}

    def phase_of(span):
        parent = span[1]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor[2].startswith("run."):
                return ancestor[0]
            parent = ancestor[1]
        return None

    wanted = set(SPAN_METRICS.values())
    totals: dict[str, dict] = {}
    for span in spans:
        if span[2] in wanted:
            per_phase = totals.setdefault(span[2], {})
            phase = phase_of(span)
            per_phase[phase] = per_phase.get(phase, 0.0) + span[5] - span[4]
    return {
        metric: median(totals[name].values())
        for metric, name in SPAN_METRICS.items()
        if name in totals
    }


def stop_helper_processes() -> None:
    """Stop and reap the helper processes ``multiprocessing`` starts on demand.

    The pool's shared-memory segments start a resource tracker process; it
    would otherwise outlive this run until it read end-of-file on its pipe.
    Stopping it closes that pipe and waits for the process to end.
    """
    for module_name, attribute in (
        ("multiprocessing.resource_tracker", "_resource_tracker"),
        ("multiprocessing.forkserver", "_forkserver"),
    ):
        module = sys.modules.get(module_name)
        helper = getattr(module, attribute, None)
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread per process, inherited by the CLI subprocesses and the
    # pool's workers: on a shared 2-core host multi-threaded OpenBLAS stalled
    # 200 GEMMs of 200x200 for about 1 s in 2 of 20 trials (0.05 s otherwise).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import LAYERS, SpanTracer, median, self_times

    def interrupt(signum, _frame):
        raise Interrupted(f"stopped by {signal.Signals(signum).name}")

    signal.signal(signal.SIGALRM, interrupt)
    signal.signal(signal.SIGTERM, interrupt)
    signal.alarm(WATCHDOG_S)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = SpanTracer(args.trace == 1)
    workload = make_workload(args.workload, args.seed, workdir)
    report: list[str] = []
    try:
        with tracer.span("run") as root:
            setup_s = []
            for repeat in range(workload.setup_repeats):
                if repeat:
                    workload.teardown()
                began = time.perf_counter()
                with tracer.span("run.setup"):
                    workload.setup(tracer)
                setup_s.append(time.perf_counter() - began)
            # Keep the set-up's objects (oracle, inputs, structures) out of
            # the cyclic collector's scans during the measurement.
            gc.collect()
            gc.freeze()
            with tracer.span("run.measure"):
                measured = workload.measure(tracer, args.seconds, args.inject_fault)
            with tracer.span("run.check"):
                violations = workload.check(measured, tracer)
                if args.trace:
                    layer_values = workload.layers(measured, tracer)
        attempted, failed = workload.attempted(measured)
        if args.trace:
            # The same measurement untraced, for the tracing overhead.
            quiet = SpanTracer(False)
            untraced = workload.measure(quiet, args.seconds, args.inject_fault)
            violations += workload.check(untraced, quiet)
            more_attempted, more_failed = workload.attempted(untraced)
            traced_p50 = workload.end_to_end(measured)["latency_p50_ms"]
            untraced_p50 = workload.end_to_end(untraced)["latency_p50_ms"]
            attempted += more_attempted
            failed += more_failed
        else:
            e2e = workload.end_to_end(measured)
    finally:
        signal.alarm(0)
        workload.teardown()
        stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for violation in violations[:20]:
        print(f"violation: {violation}")
    if len(violations) > 20:
        print(f"... {len(violations) - 20} more violations")

    if args.trace:
        layer_self, unexplained, wall = self_times(tracer.spans, root.span_id)
        values = {name: 0.0 for name in PER_LAYER}
        values.update(span_metrics(tracer.spans))
        values.update(layer_values)
        for layer in LAYERS:
            values[f"self.{layer}_s"] = layer_self.get(layer, 0.0)
        values["unexplained_s"] = unexplained
        values["wall_s"] = wall
        values["trace_overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        report.append(f"{args.workload}: self time by layer over {wall:.3f} s wall "
                      f"({len(tracer.spans)} spans in {trace_path.relative_to(ROOT)})")
        for layer in LAYERS:
            share = layer_self.get(layer, 0.0)
            report.append(f"  {layer:12s} {share:10.4f} s  {100 * share / wall:6.2f} %")
        report.append(f"  {'unexplained':12s} {unexplained:10.4f} s  {100 * unexplained / wall:6.2f} %")
        report.append(f"  tracing overhead {values['trace_overhead_pct']:+.2f} % on the median "
                      f"latency ({traced_p50:.3f} ms traced, {untraced_p50:.3f} ms untraced)")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        e2e["setup_s"] = median(setup_s)
        report.append(f"{args.workload}: seed {args.seed}, {len(setup_s)} set-ups, "
                      f"{attempted} operations, {failed} failed")
        for name, unit in END_TO_END.items():
            report.append(f"  {name:16s} {e2e[name]:14.4f} {unit}")
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for line in report:
        print(line)
    print(json.dumps({
        "correct": not violations,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
