"""Per-layer metrics of a traced run, named after the library's modules.

Times are medians over the run's traced operations of each operation's total time
in a span (a replicate on ``sim-*``, a train+predict lifecycle on
``cli-lifecycle``; ``dataset.sample_s`` on ``cli-lifecycle`` comes from the
set-up repetitions that generate the data). Counts labelled ``-computed`` are
derived by the benchmark from the arrays the calls returned, not recorded by
the library. A span whose function was not called reads 0.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracing import Tracer

# name -> (unit, better); BENCHMARK.json's per_layer list mirrors this table
LAYER_METRICS = {
    "dataset.sample_s": ("s", "lower"),
    "dataset.load_csv_s": ("s", "lower"),
    "sampling.draw_s": ("s", "lower"),
    "sampling.partition_s": ("s", "lower"),
    "sampling.calls": ("count", "lower"),
    "tree.fit_s": ("s", "lower"),
    "tree.fit_s_per_tree.p50": ("s", "lower"),
    "tree.nodes": ("count", "lower"),
    "tree.max_depth": ("count", "lower"),
    "tree.us_per_node": ("us", "lower"),
    "tree.splits": ("count", "lower"),
    "tree.splits_from_random": ("count", "lower"),
    "forest.train_s": ("s", "lower"),
    "forest.train.unattributed_s": ("s", "lower"),
    "forest.train.parallel_efficiency": ("ratio", "higher"),
    "forest.pack_s": ("s", "lower"),
    "forest.traverse_s": ("s", "lower"),
    "forest.node_visits": ("count-computed", "lower"),
    "jackknife.variance_estimates_s": ("s", "lower"),
    "jackknife.variance_estimates.self_s": ("s", "lower"),
    "jackknife.interval_s": ("s", "lower"),
    "jackknife.counts_bytes": ("B-computed", "lower"),
    "jackknife.flops": ("flop-computed", "lower"),
    "jackknife.negative_corrected": ("count", "lower"),
    "jackknife.correction_over_plugin": ("ratio", "lower"),
    "model_io.save_s": ("s", "lower"),
    "model_io.load_s": ("s", "lower"),
    "model_io.bytes": ("B", "lower"),
    "experiments.report_s": ("s", "lower"),
    "cli.train.unattributed_s": ("s", "lower"),
    "cli.predict.unattributed_s": ("s", "lower"),
    "trace.op_s.p50": ("s", "lower"),
    "trace.untraced_op_s.p50": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.overhead_share.calibrated": ("ratio", "lower"),
}

_SPAN_TOTALS = {
    "dataset.sample_s": "dataset.sample",
    "dataset.load_csv_s": "dataset.load_csv",
    "sampling.draw_s": "sampling.draw",
    "sampling.partition_s": "sampling.partition",
    "tree.fit_s": "tree.fit",
    "forest.train_s": "forest.train",
    "jackknife.variance_estimates_s": "jackknife.variance_estimates",
    "jackknife.interval_s": "jackknife.interval",
    "model_io.save_s": "model_io.save",
    "model_io.load_s": "model_io.load",
    "experiments.report_s": "experiments.report",
}

_DERIVED = (
    "tree.nodes", "tree.max_depth", "tree.splits", "tree.splits_from_random", "forest.node_visits",
    "jackknife.counts_bytes", "jackknife.flops", "jackknife.negative_corrected",
    "jackknife.correction_over_plugin", "model_io.bytes",
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, per_op: dict, workers: int, parallel_train_s: float | None,
                  span_cost_s: float, untraced_op_s: list) -> dict:
    """name -> value for every entry of LAYER_METRICS.

    ``per_op`` maps op id to the counts derived after that op; ``workers`` and
    ``parallel_train_s`` describe the untraced fan-out train (None when the
    workload trains serially, in which case the traced train is the wall).
    ``span_cost_s`` is the calibrated cost of one span and ``untraced_op_s``
    the times of the ops the traced run ran untraced, interleaved with the
    traced ones.
    """
    out = {name: _median(sum(d for d, _ in v) for v in tracer.by_op(span).values())
           for name, span in _SPAN_TOTALS.items()}
    own = tracer.self_times()

    def self_median(span: str) -> float:
        return _median(own[i] for v in tracer.by_op(span).values() for _, i in v)

    out["forest.train.unattributed_s"] = self_median("forest.train")
    out["jackknife.variance_estimates.self_s"] = self_median("jackknife.variance_estimates")
    out["cli.train.unattributed_s"] = self_median("cli.train")
    out["cli.predict.unattributed_s"] = self_median("cli.predict")

    draws, parts, fits = (tracer.by_op(s) for s in ("sampling.draw", "sampling.partition", "tree.fit"))
    ops = sorted({sp[4] for sp in tracer.spans if isinstance(sp[4], int)})
    out["sampling.calls"] = _median(len(draws.get(op, ())) + len(parts.get(op, ())) for op in ops)
    out["tree.fit_s_per_tree.p50"] = _median(d for v in fits.values() for d, _ in v)

    for name in _DERIVED:
        out[name] = _median(c[name] for c in per_op.values() if name in c)
    fit_per_node = [
        sum(d for d, _ in fits[op]) / per_op[op]["tree.nodes"] * 1e6
        for op in ops if op in fits and per_op.get(op, {}).get("tree.nodes")
    ]
    out["tree.us_per_node"] = _median(fit_per_node)

    # serial traced work over the worker-seconds the untraced fan-out train spent
    serial = _median(
        sum(d for spans in (draws, parts, fits) for d, _ in spans.get(op, ())) for op in ops
    )
    wall = parallel_train_s if parallel_train_s is not None else out["forest.train_s"]
    out["forest.train.parallel_efficiency"] = serial / (workers * wall) if wall else 0.0

    # the first traversal after a train or load packs the forest, the second reuses the pack
    cold_warm = [
        (v[0][0], v[1][0]) for v in tracer.by_op("forest.predict_per_tree").values() if len(v) >= 2
    ]
    out["forest.pack_s"] = _median(c - w for c, w in cold_warm)
    out["forest.traverse_s"] = _median(w for _, w in cold_warm)

    # measured: traced against untraced ops of the same serial run; a model:
    # the calibrated cost of one span times the spans per op, over the op time
    op_spans = tracer.by_op("op")
    out["trace.op_s.p50"] = _median(v[0][0] for v in op_spans.values())
    out["trace.untraced_op_s.p50"] = _median(untraced_op_s)
    untraced = out["trace.untraced_op_s.p50"]
    out["trace.overhead_share"] = out["trace.op_s.p50"] / untraced - 1.0 if untraced else 0.0
    span_counts = Counter(sp[4] for sp in tracer.spans)
    out["trace.overhead_share.calibrated"] = _median(
        span_cost_s * span_counts[op] / v[0][0] for op, v in op_spans.items() if v[0][0] > 0
    )
    return out
