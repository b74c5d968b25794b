"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {timing,characterize,serve}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  ``--trace 0`` reports the end-to-end
metrics, measured with no tracing installed; ``--trace 1`` is a separate
run that wraps each layer's public functions and reports per-layer
counts and busy times, plus the tracing overhead.  See README.md for
what every metric means on every workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from layertrace import Tracer, clock, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("timing", "characterize", "serve")
#: fresh processes timed per run for ``setup_s`` (the median is reported)
SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "inst_per_s": "1/s", "cell_p50_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "frac"}

PER_LAYER = {
    "isa.runs": "count", "isa.insts": "count", "isa.busy_s": "s",
    "isa.assembles": "count", "isa.assemble_s": "s",
    "columnar.table_requests": "count", "columnar.tables_built": "count",
    "columnar.table_hit_frac": "frac", "columnar.materialize_s": "s",
    "dependence.queries": "count", "dependence.busy_s": "s",
    "core.engines": "count", "core.observes": "count", "core.busy_s": "s",
    "pipeline.machines": "count", "pipeline.feeds": "count",
    "pipeline.busy_s": "s",
    "memsys.accesses": "count", "memsys.busy_s": "s",
    "predictors.branch_observes": "count", "predictors.busy_s": "s",
    "experiments.run_one_s": "s", "experiments.render_s": "s",
    "harness.cells": "count", "harness.retries": "count",
    "harness.dispatch_s": "s", "harness.store_put_s": "s",
    "harness.store_bytes": "bytes",
    "serve.records": "count", "serve.predicted_frac": "frac",
    "serve.parse_s": "s", "serve.observe_s": "s",
    "serve.shed.queue-full": "count", "serve.shed.deadline": "count",
    "loadgen.sent": "count", "loadgen.late_p99_ms": "ms",
    "loadgen.p50_ms": "ms", "loadgen.p99_ms": "ms",
    "loadgen.shed_frac": "frac",
    "trace.traced_s": "s", "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def setup_probe(args, work: Path) -> None:
    """The set-up a run does before its first unit of work, alone."""
    if args.workload == "serve":
        import servebench

        servebench.Records(args.seed)
        return
    import sweeps
    from repro.harness.store import ResultStore

    sweeps.setup(args.workload, args.seed)
    ResultStore(Path(tempfile.mkdtemp(prefix="store-", dir=work)))


def measure_setup(args, work: Path) -> float:
    """Median of fresh-process set-up times (for serve: client and
    server started together, until both are ready)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = clock()
        probe = subprocess.Popen(command)
        server = None
        try:
            if args.workload == "serve":
                import servebench

                server = servebench.Server(work)
            status = probe.wait()
            times.append(clock() - start)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            if server is not None:
                server.stop()
        if status != 0:
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def layer_metrics(merged: dict, extra: dict) -> dict:
    """The per-layer metric values from merged trace records."""
    calls, self_s, time_s = merged["calls"], merged["self_s"], merged["time_s"]
    requests = calls.get("columnar.table_requests", 0)
    built = calls.get("columnar.tables_built", 0)
    values = {
        "isa.runs": calls.get("isa.runs", 0),
        "isa.insts": calls.get("isa.insts", 0),
        "isa.busy_s": self_s.get("isa", 0.0),
        "isa.assembles": calls.get("isa.assembles", 0),
        "isa.assemble_s": time_s.get("isa.assembles", 0.0),
        "columnar.table_requests": requests,
        "columnar.tables_built": built,
        "columnar.table_hit_frac": 1 - built / requests if requests else 0.0,
        "columnar.materialize_s": self_s.get("columnar", 0.0),
        "dependence.queries": calls.get("dependence.queries", 0),
        "dependence.busy_s": self_s.get("dependence", 0.0),
        "core.engines": calls.get("core.engines", 0),
        "core.observes": calls.get("core.observes", 0),
        "core.busy_s": self_s.get("core", 0.0),
        "pipeline.machines": calls.get("pipeline.machines", 0),
        "pipeline.feeds": calls.get("pipeline.feeds", 0),
        "pipeline.busy_s": self_s.get("pipeline", 0.0),
        "memsys.accesses": calls.get("memsys.accesses", 0),
        "memsys.busy_s": self_s.get("memsys", 0.0),
        "predictors.branch_observes": calls.get(
            "predictors.branch_observes", 0),
        "predictors.busy_s": self_s.get("predictors", 0.0),
        "experiments.run_one_s": time_s.get("experiments.run_one", 0.0),
        "experiments.render_s": time_s.get("experiments.render", 0.0),
        "harness.dispatch_s": self_s.get("harness", 0.0),
        "harness.store_put_s": time_s.get("harness.store_put", 0.0),
        "serve.parse_s": self_s.get("serve.parse", 0.0),
        "serve.observe_s": time_s.get("serve.observe", 0.0),
    }
    values.update(extra)
    return {name: values.get(name, 0) for name in PER_LAYER}


def run_batch(args, work: Path) -> tuple:
    import sweeps

    if not args.trace:
        setup_s = measure_setup(args, work)
        plan = sweeps.setup(args.workload, args.seed)
        results = []
        start = clock()
        while not results or clock() - start < args.seconds:
            results.append(sweeps.sweep(plan, work))
        figures, attempted, failed = sweeps.summarize(plan, results)
        metrics = {"setup_s": setup_s,
                   "inst_per_s": figures["inst_per_s"],
                   "cell_p50_s": figures["cell_p50_s"],
                   "peak_rss_mb": peak_rss_mb(),
                   "ok_frac": 1 - failed / attempted}
        notes = {"cells": figures["cells"], "sweeps": len(results),
                 "failed_cells": [c for r in results for c in r.failed]}
        return metrics, attempted, failed, notes

    import layers

    tracer = Tracer()
    child_dir = work / "trace"
    child_dir.mkdir()
    layers.install(tracer, str(child_dir))
    plan = sweeps.setup(args.workload, args.seed)
    tracer.uninstall()
    untraced = sweeps.sweep(plan, work)
    layers.install(tracer, str(child_dir))
    traced = sweeps.sweep(plan, work)
    tracer.uninstall()
    merged = merge(tracer.snapshot(), child_dir)
    _, attempted, failed = sweeps.summarize(plan, [untraced, traced])
    extra = {"harness.cells": len(plan.cells),
             "harness.retries": traced.retries,
             "harness.store_bytes": traced.store_bytes,
             "trace.traced_s": traced.wall_s,
             "trace.untraced_s": untraced.wall_s,
             "trace.overhead_s": traced.wall_s - untraced.wall_s}
    return layer_metrics(merged, extra), attempted, failed, {}


def run_serve(args, work: Path) -> tuple:
    import servebench as sb
    from repro.serve.loadgen import percentile

    if not args.trace:
        setup_s = measure_setup(args, work)
        records = sb.Records(args.seed)
        server = sb.Server(work)
        try:
            third = args.seconds / 3
            before = server.cpu_s()
            nominal = sb.run_step(server.port, records, sb.NOMINAL_RATE,
                                  third)
            cpu_s = server.cpu_s() - before
            cells, closed = sb.run_cells(server.port, records, third)
            best, steps = sb.climb(server.port, records,
                                   third / sb.CLIMB_STEPS)
            steps += [closed, nominal]
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        attempted = sum(step.sent + step.refused for step in steps)
        failed = sum(step.failed + step.refused for step in steps)
        metrics = {"setup_s": setup_s,
                   "inst_per_s": nominal.predicted / cpu_s,
                   "cell_p50_s": statistics.median(cells),
                   "peak_rss_mb": rss,
                   "ok_frac": 1 - failed / attempted}
        notes = {
            "cells": len(cells),
            "nominal_samples": len(nominal.latencies),
            "p50_ms": percentile(nominal.latencies, 0.5) * 1000.0,
            "p99_ms": nominal.p99_ms,
            "late_p99_ms": percentile(nominal.late, 0.99) * 1000.0,
            "predicted_per_s": (best.predicted / best.duration
                                if best is not None else 0.0),
            "ladder": [(step.rate, step.passed) for step in steps[:-2]]}
        return metrics, attempted, failed, notes

    import layers

    tracer = Tracer()
    layers.install(tracer)
    records = sb.Records(args.seed)
    tracer.uninstall()
    trace_dir = work / "trace"
    trace_dir.mkdir()
    step_s = args.seconds / 4
    runs = {}
    for traced in (False, True):
        server = sb.Server(work, trace_dir if traced else None)
        try:
            before = server.cpu_s()
            steps = [sb.run_step(server.port, records, rate, step_s)
                     for rate in (sb.NOMINAL_RATE, sb.OVERLOAD_RATE)]
            cpu = server.cpu_s() - before
        finally:
            report = server.stop()
        runs[traced] = (steps, cpu, report)
    (nominal, overload), untraced_cpu, _ = runs[False]
    _, traced_cpu, report = runs[True]
    merged = merge(tracer.snapshot(), trace_dir)
    stats = report["stats"]
    all_steps = runs[False][0] + runs[True][0]
    attempted = sum(step.sent + step.refused for step in all_steps)
    failed = sum(step.failed + step.refused for step in all_steps)
    extra = {
        "serve.records": stats["records"],
        "serve.predicted_frac": stats["predicted"] / stats["records"],
        "serve.shed.queue-full": stats["degraded"]["queue-full"],
        "serve.shed.deadline": stats["degraded"]["deadline"],
        "loadgen.sent": nominal.sent + overload.sent,
        "loadgen.late_p99_ms": percentile(
            nominal.late + overload.late, 0.99) * 1000.0,
        "loadgen.p50_ms": percentile(nominal.latencies, 0.5) * 1000.0,
        "loadgen.p99_ms": nominal.p99_ms,
        "loadgen.shed_frac": overload.degraded_total / overload.sent,
        "trace.traced_s": traced_cpu,
        "trace.untraced_s": untraced_cpu,
        "trace.overhead_s": traced_cpu - untraced_cpu,
    }
    return layer_metrics(merged, extra), attempted, failed, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        if args.setup_probe:
            setup_probe(args, work)
            return 0
        runner = run_serve if args.workload == "serve" else run_batch
        metrics, attempted, failed, notes = runner(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if notes:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          **notes}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
