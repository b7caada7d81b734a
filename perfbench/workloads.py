"""The three workloads: simulation replicates (honest, CART) and the CLI lifecycle.

Every workload is one process driving the library in a closed loop with a
single caller: the next operation starts when the previous one returns.
Inputs come only from the workload seed. Each run records per-operation
phase timings and the outcome of its correctness checks; ``layers.py`` turns
a traced run into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from subforest import cli, dataset, experiments, forest, jackknife, model_io, rng, sampling, tree
from subforest.dataset import SyntheticSpec
from subforest.experiments import ExperimentSpec, SyntheticSource
from subforest.forest import ForestConfig
from subforest.tree import TreeConfig

from tracing import Tracer

SETUP_REPEATS = 5
MIN_OPS = 2  # the (K, R) reports need R >= 2


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(cores: int | None = None) -> int:
    """Workers for any fan-out: two, capped at the core count."""
    return max(1, min(2, cores if cores is not None else nproc()))


@dataclass(frozen=True)
class SimSizes:
    kind: str
    d: int
    n: int
    b: int
    k: int
    mode: str
    max_rmse_share: float  # accuracy check limit on RMSE(mean yhat, mu) / sd(mu); typical: 0.25 honest, 0.5 CART
    check_b: int = 20  # forest size of the bit-exactness check against simulate_predictions


@dataclass(frozen=True)
class CliSizes:
    n: int = 1000
    b: int = 2000
    k: int = 1000
    check_b: int = 200  # forest size of the thread-count and reload checks in set-up


SIM_SIZES = {
    "sim-honest": SimSizes("cosine", 2, 1000, 1000, 50, tree.HONEST, max_rmse_share=0.5),
    "sim-cart": SimSizes("xor", 5, 1000, 1000, 25, tree.CART, max_rmse_share=0.8),
}
CLI_SIZES = {"cli-lifecycle": CliSizes()}
WORKLOADS = (*SIM_SIZES, *CLI_SIZES)


@dataclass
class RunRecord:
    """What one run measured: phase timings per op plus check outcomes."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    predict_s: list = field(default_factory=list)
    loop_s: float = 0.0  # wall time of the op loop plus report building
    ops_done: int = 0
    ops_failed: int = 0
    untraced_op_s: list = field(default_factory=list)  # traced run: the interleaved untraced ops
    checks: dict = field(default_factory=dict)  # name -> passed
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)  # per-op derived counts for the traced run

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks[name] = bool(passed)
        print(f"check {name}: {'ok' if passed else 'FAILED'} {detail}".rstrip(), flush=True)

    @property
    def attempted(self) -> int:
        return self.ops_done + self.ops_failed + len(self.checks)

    @property
    def failed(self) -> int:
        return self.ops_failed + sum(not ok for ok in self.checks.values())


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus its largest reaped child when it fans out, in MiB.

    The two peaks need not be simultaneous, and a forked pool worker's peak
    includes the pages it shares with the parent, so the sum over-counts the
    interpreter and numpy baseline; it tracks changes, not a true joint peak.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def import_time_s(src_dir: str) -> float:
    """Seconds a fresh interpreter spends importing the package.

    numpy is imported first and not timed: loading its shared libraries swings
    by a third between minutes on a shared machine, and the package does not
    control it.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; t = time.perf_counter(); "
        "import subforest.cli; print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src_dir], capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def paused(tracer: Tracer | None):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def closed_loop(run: RunRecord, seconds: float, op, tracer: Tracer | None, after=None) -> None:
    """Call ``op(i)`` back to back until the next call would overrun ``seconds``.

    ``after(i)`` runs outside the op's timing after each traced op, for the
    traced run's bookkeeping.
    """
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if i >= MIN_OPS:
            typical = statistics.median(run.op_s) if run.op_s else 0.0
            if elapsed + typical > seconds:
                break
        gc.collect()  # every op starts without the previous op's garbage
        # the traced run leaves every other op untraced, to measure its own overhead
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.op = i if traced else None
        t0 = perf_counter()
        try:
            with span(tracer, "op") if traced else paused(tracer):
                op(i)
        except Exception:  # an op failure is counted, the run goes on
            traceback.print_exc()
            run.ops_failed += 1
            if run.ops_failed > 3 * (run.ops_done + 1):
                break
        else:
            run.op_s.append(perf_counter() - t0)
            if tracer is not None and not traced:
                run.untraced_op_s.append(run.op_s[-1])
            run.ops_done += 1
        if after is not None and traced:
            after(i)
        i += 1
    if tracer is not None:
        tracer.op = None
    run.loop_s = perf_counter() - start


# ------------------------------------------------------------------ simulation


class SimWorkload:
    """Replicate loop of ``experiments.simulate_predictions``, one timed op per replicate."""

    def __init__(self, name: str, seed: int, src_dir: str, sizes: SimSizes | None = None):
        self.name = name
        self.seed = seed
        self.src_dir = src_dir
        self.sizes = sizes or SIM_SIZES[name]
        self.workers = 1  # replicates run serially (n_jobs=1)

    def inputs(self):
        z = self.sizes
        source = SyntheticSource(SyntheticSpec(z.kind, z.d))
        fcfg = ForestConfig(b=z.b, tree=TreeConfig(mode=z.mode))
        test_x = source.sample_test_points(rng.stream(self.seed, rng.TEST_POINTS), z.k)
        return source, fcfg, test_x, source.true_mean(test_x)

    def replicate(self, source, fcfg, test_x, r, run: RunRecord | None = None):
        """Same steps and streams as ``experiments._replicate``."""
        ts = source.sample_training(rng.stream(self.seed, rng.DATASET, r), self.sizes.n)
        fcfg_r = replace(fcfg, seed=int(rng.derive_key(self.seed, rng.REPLICATE, r)[0]))
        t1 = perf_counter()
        fm = forest.train(ts, fcfg_r)
        t2 = perf_counter()
        yhat = forest.predict_batch(fm, test_x)
        ests = jackknife.variance_estimates(fm, test_x)
        t3 = perf_counter()
        if run is not None:
            run.train_s.append(t2 - t1)
            run.predict_s.append(t3 - t2)
        return (
            yhat,
            np.array([e.corrected for e in ests]),
            np.array([e.truncated for e in ests]),
            np.array([e.plugin for e in ests]),
        )

    def run(self, seconds: float, tracer: Tracer | None) -> RunRecord:
        run = RunRecord()
        for i in range(SETUP_REPEATS):
            t_import = import_time_s(self.src_dir)
            if tracer is not None:
                tracer.op = f"setup-{i}"
            t0 = perf_counter()
            source, fcfg, test_x, mu = self.inputs()
            run.setup_s.append(t_import + perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        with paused(tracer):
            self._check_matches_library(run, source, fcfg, test_x)

        cols: list = []

        def op(r):
            cols.append(self.replicate(source, fcfg, test_x, r, run))

        def after(r):
            run.extra.setdefault("ops", {})[r] = _derived_counts(tracer, test_x)

        closed_loop(run, seconds, op, tracer, after if tracer is not None else None)
        if len(cols) < MIN_OPS:
            run.check("sim.replicates_completed", False, f"{len(cols)} of at least {MIN_OPS}")
            return run
        pred, corrected, truncated, plugin = (np.column_stack([c[j] for c in cols]) for j in range(4))
        if tracer is not None:
            tracer.op = "report"
        t0 = perf_counter()
        experiments.metrics_report(pred, corrected)
        experiments.normality_report(pred)
        experiments.coverage_report(pred, truncated, corrected < 0.0, (0.90, 0.95), mu)
        run.loop_s += perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        run.peak_rss_mb = peak_rss_mb(self.workers > 1)

        run.check("sim.finite", np.isfinite(pred).all() and np.isfinite(corrected).all())
        # loose accuracy: the forest must explain most of mu's variation over the test points
        err = float(np.sqrt(np.mean((pred.mean(axis=1) - mu) ** 2)))
        limit = self.sizes.max_rmse_share * float(np.std(mu))
        run.check("sim.accuracy", err < limit, f"rmse={err:.3f} limit={limit:.3f}")
        return run

    def _check_matches_library(self, run: RunRecord, source, fcfg, test_x) -> None:
        """The benchmark's replicate loop equals simulate_predictions bit-for-bit."""
        small = replace(fcfg, b=self.sizes.check_b)
        spec = ExperimentSpec(source=source, n=self.sizes.n, k_test=self.sizes.k, r_replicates=2, forest=small, seed=self.seed)
        ref = experiments.simulate_predictions(spec)
        mine = [self.replicate(source, small, test_x, r) for r in range(2)]
        same = np.array_equal(ref.test_x, test_x) and all(
            np.array_equal(np.column_stack([m[j] for m in mine]), want)
            for j, want in enumerate((ref.predictions, ref.vij_corrected, ref.vij_truncated, ref.vij_plugin))
        )
        run.check("sim.matches_simulate_predictions", same)


# ------------------------------------------------------------------ CLI lifecycle


class CliWorkload:
    """``subforest train`` then ``subforest predict``, in-process, on fresh files."""

    def __init__(self, name: str, seed: int, src_dir: str, work_root: str, sizes: CliSizes | None = None, cores: int | None = None):
        self.name = name
        self.seed = seed
        self.src_dir = src_dir
        self.work_root = work_root
        self.sizes = sizes or CLI_SIZES[name]
        self.workers = worker_count(cores)

    def write_inputs(self, work: str):
        z = self.sizes
        ts = dataset.gen_synthetic(SyntheticSpec("cosine", 2), z.n, self.seed)
        train_csv = os.path.join(work, "train.csv")
        dataset.save_csv(ts, train_csv)
        query = rng.stream(self.seed, rng.TEST_POINTS).random((z.k, ts.d))
        query_csv = os.path.join(work, "query.csv")
        with open(query_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(ts.d)])
            writer.writerows([repr(float(v)) for v in row] for row in query)
        return train_csv, query_csv, query

    def _main(self, argv: list) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"subforest {argv[0]} exited {rc}")

    def train_argv(self, train_csv: str, out: str, b: int, threads: int) -> list:
        return ["train", "--data", train_csv, "--mode", "honest", "--b", str(b), "--seed", str(self.seed),
                "--threads", str(threads), "--out", out]

    def run(self, seconds: float, tracer: Tracer | None) -> RunRecord:
        os.makedirs(self.work_root, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_root)
        try:
            return self._run(work, seconds, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run(self, work: str, seconds: float, tracer: Tracer | None) -> RunRecord:
        run = RunRecord()
        for i in range(SETUP_REPEATS):
            t_import = import_time_s(self.src_dir)
            if tracer is not None:
                tracer.op = f"setup-{i}"
            t0 = perf_counter()
            train_csv, query_csv, query = self.write_inputs(work)
            run.setup_s.append(t_import + perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        with paused(tracer):
            self._check_small_model(run, work, train_csv, query)

        # the traced run is serial, its untraced ops too, so every span lands in
        # this process and traced and untraced op times compare like for like
        threads = 1 if tracer is not None else self.workers
        model = os.path.join(work, "model.json")
        preds = os.path.join(work, "predictions.csv")

        def op(i):
            t0 = perf_counter()
            with span(tracer, "cli.train"):
                self._main(self.train_argv(train_csv, model, self.sizes.b, threads))
            t1 = perf_counter()
            with span(tracer, "cli.predict"):
                self._main(["predict", "--model", model, "--data", query_csv, "--level", "0.95", "--out", preds])
            t2 = perf_counter()
            run.train_s.append(t1 - t0)
            run.predict_s.append(t2 - t1)

        def after(i):
            counts = _derived_counts(tracer, query)
            counts["model_io.bytes"] = os.path.getsize(model)
            run.extra.setdefault("ops", {})[i] = counts

        closed_loop(run, seconds, op, tracer, after if tracer is not None else None)
        run.peak_rss_mb = peak_rss_mb(self.workers > 1)

        with paused(tracer):
            served = self._check_outputs(run, query, model, preds)
            if tracer is not None and self.workers > 1 and served is not None:
                run.extra["parallel_train_s"] = self.parallel_train_s(train_csv, served.config)
        return run

    def _check_small_model(self, run: RunRecord, work: str, train_csv: str, query) -> None:
        """At a small B: model bytes do not depend on the thread count, and the
        reloaded model predicts bit-exactly like the in-memory forest."""
        paths = [os.path.join(work, f"threads{t}.json") for t in (1, self.workers)]
        for t, path in zip((1, self.workers), paths):
            self._main(self.train_argv(train_csv, path, self.sizes.check_b, t))
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            run.check("cli.model_bytes_thread_invariant", a.read() == b.read())
        loaded, _ = model_io.load_model(paths[1])
        in_memory = forest.train(dataset.load_csv(train_csv), loaded.config)
        run.check(
            "cli.reload_bit_exact",
            np.array_equal(forest.predict_per_tree(loaded, query), forest.predict_per_tree(in_memory, query)),
        )

    def parallel_train_s(self, train_csv: str, config: ForestConfig) -> float:
        """Wall time of one untraced fan-out train of the model ``subforest train`` wrote."""
        ts = dataset.load_csv(train_csv)
        t0 = perf_counter()
        forest.train(ts, config, n_jobs=self.workers)
        return perf_counter() - t0

    def _check_outputs(self, run: RunRecord, query, model: str, preds: str):
        """The CLI's CSV equals the library's answers on the model file it read.

        Returns that model, or None when the CLI wrote no predictions.
        """
        if not os.path.exists(preds):
            run.check("cli.csv_matches_library", False, "no predictions written")
            return None
        loaded, _ = model_io.load_model(model)
        yhat = forest.predict_batch(loaded, query)
        ests = jackknife.variance_estimates(loaded, query)
        want = []
        for y, e in zip(yhat, ests):
            ci = jackknife.interval(float(y), e, 0.95)
            want.append([float(y), e.plugin, e.corrected, e.truncated, ci.lo, ci.hi, float(ci.degenerate)])
        with open(preds, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        got = np.array([[float(v) for v in r] for r in rows[1:]])
        run.check("cli.csv_matches_library", got.shape == (len(want), 7) and np.array_equal(got, np.array(want)))
        return loaded


# ------------------------------------------------------------------ traced-run helpers


def _tree_depth(t) -> int:
    """Depth of the deepest leaf of one tree."""
    frontier, depth = np.array([0]), -1
    while frontier.size:
        inner = frontier[t.feature[frontier] >= 0]
        frontier = np.concatenate([t.left[inner], t.right[inner]])
        depth += 1
    return depth


def _leaf_depth_total(fm, xs) -> int:
    """Sum over (tree, point) pairs of the depth of the leaf the point lands in."""
    total = 0
    rows = np.arange(xs.shape[0])
    for t in fm.trees:
        cur = np.zeros(xs.shape[0], dtype=np.int64)
        while True:
            feat = t.feature[cur]
            live = feat >= 0
            if not live.any():
                break
            total += int(live.sum())
            c = cur[live]
            go_left = xs[rows[live], feat[live]] <= t.threshold[c]
            cur[live] = np.where(go_left, t.left[c], t.right[c])
    return total


def _derived_counts(tracer: Tracer, xs) -> dict:
    """Counts computed from the arrays the op's calls returned."""
    fm = tracer.kept.pop("forest.train", None)
    loaded = tracer.kept.pop("model_io.load", None)
    ests = tracer.kept.pop("jackknife.variance_estimates", None)
    out: dict = {}
    served = loaded[0] if loaded is not None else fm
    try:
        if fm is not None:
            out["tree.nodes"] = sum(t.feature.size for t in fm.trees)
            out["tree.splits"] = sum(int(np.count_nonzero(t.feature >= 0)) for t in fm.trees)
            out["tree.splits_from_random"] = sum(int(np.count_nonzero(t.from_random & (t.feature >= 0))) for t in fm.trees)
            out["tree.max_depth"] = max(_tree_depth(t) for t in fm.trees)
        if served is not None:
            out["forest.node_visits"] = _leaf_depth_total(served, np.atleast_2d(xs))
        if ests is not None and served is not None:
            b, n, k = served.subsample_indices.shape[0], served.n, len(ests)
            out["jackknife.counts_bytes"] = b * n * (np.dtype(np.uint8).itemsize + np.dtype(np.float64).itemsize)
            out["jackknife.flops"] = 2 * b * n * k
    except AttributeError as e:  # a later forest representation: report what is derivable
        print(f"derived counts unavailable: {e}", file=sys.stderr)
    if ests is not None:
        out["jackknife.negative_corrected"] = sum(e.corrected < 0.0 for e in ests)
        plugin = sum(e.plugin for e in ests)
        out["jackknife.correction_over_plugin"] = sum(e.correction for e in ests) / plugin if plugin else 0.0
    return out


def install_spans(tracer: Tracer) -> None:
    """Wrap each module's public functions under every name they are imported as."""
    tracer.keep = {"forest.train", "model_io.load", "jackknife.variance_estimates"}
    targets = [
        ("dataset.sample", [(dataset, "sample_synthetic"), (experiments, "sample_synthetic")]),
        ("dataset.load_csv", [(dataset, "load_csv"), (cli, "load_csv")]),
        ("sampling.draw", [(sampling, "draw_subsample"), (forest, "draw_subsample")]),
        ("sampling.partition", [(sampling, "honesty_partition"), (forest, "honesty_partition")]),
        ("tree.fit", [(tree, "fit_honest"), (tree, "fit_greedy_cart")]),
        ("forest.train", [(forest, "train"), (experiments, "train"), (cli, "train")]),
        ("forest.predict_per_tree", [(forest, "predict_per_tree"), (jackknife, "predict_per_tree")]),
        ("forest.predict_batch", [(forest, "predict_batch"), (experiments, "predict_batch"), (cli, "predict_batch")]),
        ("jackknife.variance_estimates", [(jackknife, "variance_estimates"), (experiments, "variance_estimates"), (cli, "variance_estimates")]),
        ("jackknife.interval", [(jackknife, "interval"), (cli, "interval")]),
        ("model_io.save", [(model_io, "save_model"), (cli, "save_model")]),
        ("model_io.load", [(model_io, "load_model"), (cli, "load_model")]),
        ("experiments.report", [(experiments, "metrics_report"), (experiments, "normality_report"), (experiments, "coverage_report")]),
    ]
    for name, sites in targets:
        for module, attr in sites:
            tracer.wrap(module, attr, name)
