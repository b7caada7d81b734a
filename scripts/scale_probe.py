#!/usr/bin/env python3
"""Time and size one train / save / load / predict-with-variance run at a chosen scale.

    PYTHONPATH=src python scripts/scale_probe.py --n 5000 --b 25000 --k 200 --threads 2

First ``import_s``: a fresh interpreter's import of ``subforest.cli``,
timed after an untimed ``import numpy``, the start-up every ``subforest``
command pays. Then two stages, each in a fresh interpreter. The first
generates cosine d=2 training data (n rows, seed --seed), trains an honest
forest (s defaults to floor(n^0.7)) and saves the model to a temporary
directory. The second reloads it, times the per-tree (B, K) matrix for K
uniform query points, naming the traversal that ran, and then
``jackknife.predict_with_variance`` (which traverses once more). So the second stage's peak RSS is that of a
process which only loads the model and predicts.

``ru_maxrss`` is read after every stage: it is a process's peak so far, so
each reading bounds that stage and all before it. Next to it, each stage
reports the minor page faults it took (the ``ru_minflt`` delta, training's
pool workers included), which shows allocation churn: pages a stage keeps
getting fresh from the kernel. Human-readable lines (the machine stamp:
nproc, CPU, Python, numpy; the import time; then one line per stage) come first, the last
line is one JSON object. ``--estimates PATH`` also writes ŷ and the plugin,
corrected, truncated and C values to an ``.npz`` file, to compare two
versions of the package on the same run.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

from subforest import dataset, forest, jackknife, model_io, rng
from subforest.dataset import SyntheticSpec
from subforest.forest import ForestConfig


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minflt() -> int:
    """Minor page faults of this process and of its reaped children (the training pool's workers)."""
    return sum(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def mark(out: dict, stage: str, since: int) -> int:
    """Record the peak RSS so far and the minor page faults since ``since`` for ``stage``; return the fault count now."""
    now = minflt()
    out[f"{stage}_peak_mb"] = peak_mb()
    out[f"{stage}_minflt"] = now - since
    return now


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def train_stage(args, model: str) -> dict:
    """Data, train, save."""
    out = {"start_peak_mb": peak_mb()}
    faults = minflt()
    ts = dataset.gen_synthetic(SyntheticSpec("cosine", 2), args.n, args.seed)
    faults = mark(out, "data", faults)
    t0 = time.perf_counter()
    fm = forest.train(ts, ForestConfig(s=args.s, b=args.b, seed=args.seed), n_jobs=args.threads)
    out["train_s"] = time.perf_counter() - t0
    out["s"] = fm.s
    faults = mark(out, "train", faults)
    t0 = time.perf_counter()
    model_io.save_model(model, fm, ts)
    out["save_s"] = time.perf_counter() - t0
    mark(out, "save", faults)
    out["model_mb"] = os.path.getsize(model) / 2**20
    return out


def predict_stage(args, model: str) -> dict:
    """Load, per-tree matrix, predict_with_variance."""
    out = {"start_peak_mb": peak_mb()}
    faults = minflt()
    t0 = time.perf_counter()
    fm, _ = model_io.load_model(model)
    out["load_s"] = time.perf_counter() - t0
    faults = mark(out, "load", faults)
    xs = rng.stream(args.seed, rng.TEST_POINTS).random((args.k, fm.d))
    t0 = time.perf_counter()
    per_tree = forest.predict_per_tree(fm, xs)
    out["per_tree_s"] = time.perf_counter() - t0
    out["traversal"] = forest._traversal(fm, args.k).__name__.lstrip("_")
    out["max_leaves"] = int(np.add.reduceat(fm.feature < 0, fm.roots).max())
    del per_tree
    faults = mark(out, "per_tree", faults)
    t0 = time.perf_counter()
    yhat, est = jackknife.predict_with_variance(fm, xs)
    out["predict_with_variance_s"] = time.perf_counter() - t0
    mark(out, "predict_with_variance", faults)
    if args.estimates:
        np.savez(args.estimates, yhat=yhat, c=est.c, plugin=est.plugin, corrected=est.corrected,
                 truncated=est.truncated)
    return out


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import ``subforest.cli`` once numpy is loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dataset.__file__)))
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; t = time.perf_counter(); "
            "import subforest.cli; print(repr(time.perf_counter() - t))")
    return float(subprocess.run([sys.executable, "-c", code, src], check=True, stdout=subprocess.PIPE, text=True).stdout)


def run_stage(stage: str, model: str) -> dict:
    """One stage in a fresh interpreter, started from this small one.

    A child's ``ru_maxrss`` starts at its parent's peak, so this process
    trains and loads nothing itself: the predict stage's reading is then that
    of a process which only loads the model and predicts.
    """
    cmd = [sys.executable, os.path.abspath(__file__), *sys.argv[1:], "--stage", stage, "--model", model]
    child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(child.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--b", type=int, required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--s", type=int, default=None, help="subsample size (default floor(n^0.7))")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--estimates", default=None, help="write ŷ and the estimates to this .npz file")
    ap.add_argument("--stage", choices=["train", "predict"], help=argparse.SUPPRESS)
    ap.add_argument("--model", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.stage:
        stage = train_stage if args.stage == "train" else predict_stage
        print(json.dumps(stage(args, args.model)))
        return 0

    machine = {"nproc": forest.usable_cores(), "cpu": cpu_model(),
               "python": platform.python_version(), "numpy": np.__version__}
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']} python={machine['python']} numpy={machine['numpy']}")
    rec = {"n": args.n, "b": args.b, "k": args.k, "threads": args.threads, "seed": args.seed,
           "import_s": import_seconds()}
    print(f"import: subforest.cli in {rec['import_s'] * 1000:.1f} ms (fresh interpreter, numpy already loaded)")
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.bin")
        trained = run_stage("train", model)
        predicted = run_stage("predict", model)
    rec["s"] = trained.pop("s")
    rec.update({f"train.{k}": v for k, v in trained.items()})
    rec.update({f"predict.{k}": v for k, v in predicted.items()})
    print(f"data: peak {trained['data_peak_mb']:.0f} MB, {trained['data_minflt']} minor faults")
    print(f"train: s={rec['s']} {trained['train_s']:.2f} s, peak {trained['train_peak_mb']:.0f} MB, "
          f"{trained['train_minflt']} minor faults")
    print(f"save: {trained['model_mb']:.0f} MB file in {trained['save_s']:.2f} s, peak {trained['save_peak_mb']:.0f} MB, "
          f"{trained['save_minflt']} minor faults")
    print(f"load: {predicted['load_s']:.2f} s, peak {predicted['load_peak_mb']:.0f} MB "
          f"(a fresh process, {predicted['start_peak_mb']:.0f} MB after imports), {predicted['load_minflt']} minor faults")
    print(f"per-tree matrix: {predicted['traversal']} (max {predicted['max_leaves']} leaves), "
          f"{predicted['per_tree_s']:.3f} s, peak {predicted['per_tree_peak_mb']:.0f} MB, "
          f"{predicted['per_tree_minflt']} minor faults")
    print(f"predict_with_variance: {predicted['predict_with_variance_s']:.2f} s, "
          f"peak {predicted['predict_with_variance_peak_mb']:.0f} MB, {predicted['predict_with_variance_minflt']} minor faults")
    print(json.dumps({"machine": machine, **rec}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
