#!/usr/bin/env python3
"""Pinned benchmark for subforest: simulation replicates and the CLI lifecycle.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sim-honest --seed 1 --seconds 30 --trace 0

Workloads: sim-honest, sim-cart, cli-lifecycle (see BENCHMARK.json for why
each exists). With ``--trace 0`` the run measures the end-to-end metrics;
with ``--trace 1`` it wraps the library's public functions in spans, runs
serially, writes the spans to ``perfbench/out/`` and reports per-layer
metrics. Human-readable lines (machine stamp, metrics with units, tail
percentiles, error rate) go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` of the same checkout; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> unit; BENCHMARK.json's end_to_end list mirrors this table
E2E_METRICS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "train_s.p50": "s",
    "predict_s.p50": "s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "subforest").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    from workloads import nproc

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def tail(samples: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return "n=0"
    xs = sorted(samples)
    text = f"n={n} min={xs[0]:.4f} p50={statistics.median(xs):.4f} max={xs[-1]:.4f}"
    if n > 20:  # with 20 or fewer samples no percentile above the median has 10 beyond it
        text += f" p{100.0 * (n - 10) / n:.0f}={xs[n - 11]:.4f}"
    else:
        text += " (no percentile above p50 has 10 samples beyond it)"
    return text


def e2e_metrics(run) -> dict:
    def p50(xs):
        return statistics.median(xs) if xs else float("nan")

    return {
        "setup_s": p50(run.setup_s),
        "op_s.p50": p50(run.op_s),
        "ops_per_s": run.ops_done / run.loop_s if run.loop_s else float("nan"),
        "train_s.p50": p50(run.train_s),
        "predict_s.p50": p50(run.predict_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import layers
    import tracing
    import workloads

    info = stamp(workload, seed, int(seconds), trace)
    print("stamp " + json.dumps(info, sort_keys=True), flush=True)
    tracer = None
    span_cost = 0.0
    if trace:
        span_cost = tracing.wrapper_cost_s()
        tracer = tracing.Tracer()
        workloads.install_spans(tracer)
    if workload in workloads.SIM_SIZES:
        wl = workloads.SimWorkload(workload, seed, str(SRC), sizes)
    else:
        wl = workloads.CliWorkload(workload, seed, str(SRC), str(OUT / "work"), sizes)
    try:
        run = wl.run(seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    if trace:
        parallel = run.extra.get("parallel_train_s") if wl.workers > 1 else None
        values = layers.layer_metrics(tracer, run.extra.get("ops", {}), wl.workers, parallel, span_cost,
                                      run.untraced_op_s)
        units = {k: u for k, (u, _) in layers.LAYER_METRICS.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(trace_path, info)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(f"untraced op_s: {tail(run.untraced_op_s)}")
    else:
        values = e2e_metrics(run)
        units = E2E_METRICS
        print(f"setup_s: {tail(run.setup_s)}")
        print(f"op_s: {tail(run.op_s)}")
        print(f"train_s: {tail(run.train_s)}")
        print(f"predict_s: {tail(run.predict_s)}")
    for name in sorted(values):
        print(f"{name:40s} {values[name]:.6g} {units[name]}")
    error_rate = run.failed / run.attempted
    print(f"error_rate {error_rate:.4g} ({run.failed} failed of {run.attempted}: "
          f"{run.ops_done + run.ops_failed} operations, {len(run.checks)} checks)")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sim-honest", "sim-cart", "cli-lifecycle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subforest" / "__init__.py").is_file():
        print(f"error: no subforest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
