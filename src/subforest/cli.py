"""Command-line surface.

Commands: gen, train, predict, simulate {metrics, normality, coverage,
bias-grid, bootstrap}, oracle-check. Every option can also come from a JSON
config file (--config); explicit flags override file values, and the fully
resolved configuration is echoed into every output file next to the tool
version. Exit codes: 0 success, 1 usage or configuration error, 2 oracle or
acceptance assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__, rng
from .dataset import (
    ARITY,
    SyntheticSpec,
    TrainingSet,
    gen_synthetic,
    load_csv,
)
from .experiments import (
    ExperimentSpec,
    SyntheticSource,
    coverage_report,
    metrics_report,
    normality_report,
    parametric_bootstrap_source,
    run_bias_grid,
    simulate_predictions,
)
from .forest import ForestConfig, WorkerError, train
from .jackknife import interval, predict_with_variance, v_ij
from .model_io import load_model, save_model
from .oracle import (
    FiniteSupportDistribution,
    LabelSum,
    SubsampleMax,
    SubsampleMean,
    anova_bound_check,
    enumerate_subsamples,
    exact_vij,
    hajek_projection_stats,
)
from .tree import TreeConfig

TOOL = f"subforest {__version__}"
THREADS_ENV = "SUBFOREST_THREADS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override --config file values, which override defaults."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            resolved[key] = v
    return resolved


def _preamble(command: str, cfg: dict) -> list[str]:
    lines = [f"# tool={TOOL}", f"# command={command}"]
    for k in sorted(cfg):
        if k == "out":  # the artifact's own location is not run configuration
            continue
        lines.append(f"# {k}={cfg[k]}")
    return lines


def _forest_config(cfg: dict) -> ForestConfig:
    return ForestConfig(
        s=cfg.get("s"),
        b=cfg.get("b"),
        s_exponent=cfg.get("s_exponent", 0.7),
        seed=cfg["seed"],
        tree=TreeConfig(
            gamma=cfg.get("gamma", 0.10),
            delta=cfg.get("delta", 0.5),
            mode=cfg.get("mode", "honest"),
            max_leaf_size=cfg.get("max_leaf_size", 5),
        ),
    )


def _write_json(path, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------- gen

_GEN_DEFAULTS = {"kind": "cosine", "d": None, "n": 100, "seed": 0, "noise_sd": 1.0, "out": None}


def _cmd_gen(args) -> int:
    cfg = _merge_config(args, _GEN_DEFAULTS)
    if cfg["out"] is None:
        raise ValueError("gen: --out is required")
    if cfg["d"] is None:
        cfg["d"] = ARITY[cfg["kind"]] if cfg["kind"] in ARITY else None
    spec = SyntheticSpec(cfg["kind"], cfg["d"], cfg["noise_sd"])
    ts = gen_synthetic(spec, cfg["n"], cfg["seed"])
    with open(cfg["out"], "w", newline="") as fh:
        for line in _preamble("gen", cfg):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(ts.d)] + ["y"])
        for i in range(ts.n):
            writer.writerow([repr(float(v)) for v in ts.x[i]] + [repr(float(ts.y[i]))])
    print(f"wrote {ts.n} rows ({ts.d} features) to {cfg['out']}")
    return 0


# ---------------------------------------------------------------- train

_TRAIN_DEFAULTS = {
    "data": None, "target": None, "mode": "honest", "s": None, "b": None,
    "s_exponent": 0.7, "gamma": 0.10, "delta": 0.5, "max_leaf_size": 5,
    "seed": 0, "threads": None, "out": None,
}


def _cmd_train(args) -> int:
    cfg = _merge_config(args, _TRAIN_DEFAULTS)
    if cfg["data"] is None or cfg["out"] is None:
        raise ValueError("train: --data and --out are required")
    threads = cfg["threads"] if cfg["threads"] is not None else _default_threads()
    ts = load_csv(cfg["data"], target_column=cfg["target"])
    fcfg = _forest_config(cfg)
    start = time.perf_counter()
    fm = train(ts, fcfg, n_jobs=threads)
    wall = time.perf_counter() - start
    save_model(cfg["out"], fm, ts)
    print(
        f"trained {fm.config.tree.mode} forest: n={fm.n} d={ts.d} s={fm.s} b={fm.b} "
        f"wall={wall:.2f}s -> {cfg['out']}"
    )
    return 0


# ---------------------------------------------------------------- predict

_PREDICT_DEFAULTS = {"model": None, "data": None, "level": 0.95, "out": None}


def _load_query(path, feature_names, d) -> np.ndarray:
    """Feature-only CSV matching the model's columns (by name when known)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if row and row[0].lstrip().startswith("#"):
                continue
            header = [h.strip() for h in row]
            break
        if header is None:
            raise ValueError(f"{path}: empty file")
        rows = [row for row in reader if row and any(c.strip() for c in row)]
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")
    if feature_names:
        missing = [c for c in feature_names if c not in header]
        if missing:
            raise ValueError(f"{path}: missing feature columns {missing}")
        cols = [header.index(c) for c in feature_names]
    else:
        if len(header) < d:
            raise ValueError(f"{path}: expected at least {d} feature columns, got {len(header)}")
        cols = list(range(d))
    out = np.empty((len(rows), len(cols)))
    for r, row in enumerate(rows):
        row_no = r + 2
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
        for j, c in enumerate(cols):
            try:
                out[r, j] = float(row[c])
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column {header[c]!r}: not numeric: {row[c]!r}"
                ) from None
    return out


def _cmd_predict(args) -> int:
    cfg = _merge_config(args, _PREDICT_DEFAULTS)
    if cfg["model"] is None or cfg["data"] is None or cfg["out"] is None:
        raise ValueError("predict: --model, --data, and --out are required")
    fm, meta = load_model(cfg["model"])
    if fm.b < 2:
        raise ValueError("variance estimation requires a model with B >= 2 trees")
    xs = _load_query(cfg["data"], meta.get("feature_names"), fm.d)
    yhat, ests = predict_with_variance(fm, xs)
    level = cfg["level"]
    with open(cfg["out"], "w", newline="") as fh:
        for line in _preamble("predict", {**cfg, "model_tool": meta["tool"], "b": fm.b, "s": fm.s}):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["y_hat", "vij_plugin", "vij_corrected", "vij_truncated",
             "interval_lo", "interval_hi", "degenerate"]
        )
        for i, est in enumerate(ests):
            ci = interval(float(yhat[i]), est, level)
            writer.writerow(
                [repr(float(yhat[i])), repr(est.plugin), repr(est.corrected),
                 repr(est.truncated), repr(ci.lo), repr(ci.hi), int(ci.degenerate)]
            )
    print(f"wrote {xs.shape[0]} prediction records to {cfg['out']}")
    return 0


# ---------------------------------------------------------------- simulate

_SIM_COMMON = {
    "kind": "cosine", "d": None, "n": 200, "k": 25, "r": 50, "s": None, "b": 1000,
    "s_exponent": 0.7, "mode": "cart", "gamma": 0.10, "delta": 0.5, "max_leaf_size": 5,
    "noise_sd": 1.0, "seed": 0, "threads": None, "out": None,
}


def _experiment_spec(cfg: dict) -> ExperimentSpec:
    if cfg["d"] is None:
        cfg["d"] = ARITY[cfg["kind"]]
    source = SyntheticSource(SyntheticSpec(cfg["kind"], cfg["d"], cfg["noise_sd"]))
    threads = cfg["threads"] if cfg["threads"] is not None else _default_threads()
    fcfg = _forest_config(cfg)
    cfg["s"], cfg["b"] = fcfg.resolve(cfg["n"])  # echo resolved sizes, not the rule
    cfg["threads"] = threads
    return ExperimentSpec(
        source=source,
        n=cfg["n"],
        k_test=cfg["k"],
        r_replicates=cfg["r"],
        forest=fcfg,
        seed=cfg["seed"],
        n_jobs=threads,
    )


def _write_metrics_csv(path, command, cfg, kind, d, n, rep) -> None:
    with open(path, "w", newline="") as fh:
        for line in _preamble(command, cfg):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["Distr", "d", "n", "rel_bias2", "rel_var", "rel_mse",
             "abs_bias2", "abs_var", "abs_mse"]
        )
        writer.writerow(
            [kind, d, n, repr(rep.rel_bias2), repr(rep.rel_variance), repr(rep.rel_mse),
             repr(rep.abs_bias2), repr(rep.abs_variance), repr(rep.abs_mse)]
        )


def _cmd_sim_metrics(args) -> int:
    cfg = _merge_config(args, _SIM_COMMON)
    if cfg["out"] is None:
        raise ValueError("simulate metrics: --out is required")
    spec = _experiment_spec(cfg)
    sim = simulate_predictions(spec)
    rep = metrics_report(sim.predictions, sim.vij_corrected)
    _write_metrics_csv(cfg["out"], "simulate-metrics", cfg, cfg["kind"], cfg["d"], cfg["n"], rep)
    print(f"rel_mse={rep.rel_mse:.4f} abs_mse={rep.abs_mse:.3e} -> {cfg['out']}")
    return 0


_SIM_NORMALITY = {**_SIM_COMMON, "mode": "honest", "alpha": 0.01, "r": 100}


def _cmd_sim_normality(args) -> int:
    cfg = _merge_config(args, _SIM_NORMALITY)
    if cfg["out"] is None:
        raise ValueError("simulate normality: --out is required")
    spec = _experiment_spec(cfg)
    if spec.r_replicates < 50:
        raise ValueError("normality checks need at least 50 replicates")
    sim = simulate_predictions(spec)
    rep = normality_report(sim.predictions, cfg["alpha"])
    _write_json(cfg["out"], {
        "tool": TOOL,
        "command": "simulate-normality",
        "config": cfg,
        "ks_stats": rep.ks_stats.tolist(),
        "p_values": rep.p_values.tolist(),
        "degenerate": rep.degenerate.astype(int).tolist(),
        "alpha": rep.alpha,
        "pass_fraction": rep.pass_fraction,
    })
    print(f"KS pass fraction = {rep.pass_fraction:.3f} at alpha={cfg['alpha']}")
    return 0


_SIM_COVERAGE = {**_SIM_COMMON, "mode": "honest", "levels": "0.95", "r": 100}


def _cmd_sim_coverage(args) -> int:
    cfg = _merge_config(args, _SIM_COVERAGE)
    if cfg["out"] is None:
        raise ValueError("simulate coverage: --out is required")
    levels = tuple(float(v) for v in str(cfg["levels"]).split(","))
    spec = _experiment_spec(cfg)
    if spec.r_replicates < 50:
        raise ValueError("coverage checks need at least 50 replicates")
    sim = simulate_predictions(spec)
    rep = coverage_report(sim.predictions, sim.vij_truncated, sim.degenerate, levels, sim.true_means)
    _write_json(cfg["out"], {
        "tool": TOOL,
        "command": "simulate-coverage",
        "config": cfg,
        "levels": list(rep.levels),
        "coverage_of_mean": list(rep.coverage_of_mean),
        "coverage_of_true": list(rep.coverage_of_true) if rep.coverage_of_true else None,
        "n_pairs": rep.n_pairs,
        "degenerate_pairs": rep.degenerate_pairs,
    })
    print(f"coverage of E[y_hat] at {levels}: {rep.coverage_of_mean}")
    return 0


_SIM_GRID = {
    "n": 10000, "s": 100, "mode": "cart", "resolution": 5, "r": 20, "b": 200,
    "p": 0.01, "seed": 0, "threads": None, "out": None,
}


def _cmd_sim_bias_grid(args) -> int:
    cfg = _merge_config(args, _SIM_GRID)
    if cfg["out"] is None:
        raise ValueError("simulate bias-grid: --out is required")
    threads = cfg["threads"] if cfg["threads"] is not None else _default_threads()
    cfg["threads"] = threads
    grid = run_bias_grid(
        n=cfg["n"], s=cfg["s"], mode=cfg["mode"], grid_resolution=cfg["resolution"],
        r_replicates=cfg["r"], b=cfg["b"], seed=cfg["seed"], p=cfg["p"], n_jobs=threads,
    )
    with open(cfg["out"], "w", newline="") as fh:
        for line in _preamble("simulate-bias-grid", cfg):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        for i in range(grid.resolution):
            writer.writerow([repr(float(v)) for v in grid.cell_means[i]])
    corner = grid.cell_means[0, 0]
    center = grid.cell_means[grid.resolution // 2, grid.resolution // 2]
    print(f"corner cell mean {corner:.5f}, center cell mean {center:.5f} -> {cfg['out']}")
    return 0


_SIM_BOOTSTRAP = {
    "data": None, "target": None, "n": None, "k": 25, "r": 50, "s": None, "b": 1000,
    "s_exponent": 0.7, "mode": "cart", "gamma": 0.10, "delta": 0.5, "max_leaf_size": 5,
    "seed": 0, "threads": None, "out": None,
}


def _cmd_sim_bootstrap(args) -> int:
    cfg = _merge_config(args, _SIM_BOOTSTRAP)
    if cfg["data"] is None or cfg["out"] is None:
        raise ValueError("simulate bootstrap: --data and --out are required")
    threads = cfg["threads"] if cfg["threads"] is not None else _default_threads()
    ts = load_csv(cfg["data"], target_column=cfg["target"])
    n = cfg["n"] if cfg["n"] is not None else ts.n
    fcfg = _forest_config(cfg)
    source = parametric_bootstrap_source(ts, fcfg, n_jobs=threads)
    cfg["n"], cfg["threads"] = n, threads
    cfg["s"], cfg["b"] = fcfg.resolve(n)  # echo resolved sizes for the replicates
    spec = ExperimentSpec(
        source=source, n=n, k_test=cfg["k"], r_replicates=cfg["r"],
        forest=fcfg, seed=cfg["seed"], n_jobs=threads,
    )
    sim = simulate_predictions(spec)
    rep = metrics_report(sim.predictions, sim.vij_corrected)
    _write_metrics_csv(cfg["out"], "simulate-bootstrap", cfg, os.path.basename(cfg["data"]), ts.d, n, rep)
    print(f"rel_mse={rep.rel_mse:.4f} abs_mse={rep.abs_mse:.3e} -> {cfg['out']}")
    return 0


# ---------------------------------------------------------------- oracle-check

_ORACLE_DEFAULTS = {
    "learner": "mean", "n": 6, "s": 2, "labels": None, "probs": None,
    "mc_b": 100000, "seed": 0, "out": None,
}

_LEARNERS = {"mean": SubsampleMean, "max": SubsampleMax, "sum": LabelSum}


def _cmd_oracle_check(args) -> int:
    cfg = _merge_config(args, _ORACLE_DEFAULTS)
    learner = _LEARNERS[cfg["learner"]]()
    n, s = cfg["n"], cfg["s"]
    labels = cfg["labels"] if cfg["labels"] is not None else list(range(1, n + 1))
    labels = [float(v) for v in labels]

    # exact V_IJ on the fixed labels vs a bias-corrected Monte Carlo run
    ts = TrainingSet(np.arange(n, dtype=np.float64).reshape(-1, 1) / n, np.asarray(labels))
    exact = exact_vij(ts, learner, s)
    subsets, values = enumerate_subsamples(ts, learner, s)
    counts_table = np.zeros((subsets.shape[0], n), dtype=np.uint8)
    counts_table[np.arange(subsets.shape[0])[:, None], subsets] = 1
    gen = rng.stream(cfg["seed"], rng.SUBSAMPLE)
    ids = gen.integers(0, subsets.shape[0], size=cfg["mc_b"])
    mc = v_ij(values[ids], counts_table[ids], s, n)

    # Hajek projection and ANOVA bound on the label support (uniform atoms)
    support = sorted(set(labels))
    dist = FiniteSupportDistribution(
        np.asarray(support, dtype=np.float64).reshape(-1, 1),
        np.asarray(support, dtype=np.float64),
        np.full(len(support), 1.0 / len(support)),
    )
    hajek = hajek_projection_stats(dist, learner, s)
    anova = anova_bound_check(dist, learner, n, s)

    doc = {
        "tool": TOOL,
        "command": "oracle-check",
        "config": cfg,
        "exact_vij": exact,
        "mc_vij_corrected": mc.corrected,
        "mc_vij_plugin": mc.plugin,
        "mc_relative_error": abs(mc.corrected - exact) / exact if exact else 0.0,
        "hajek_variance": hajek.hajek_variance,
        "base_variance": hajek.base_variance,
        "incrementality_ratio": hajek.ratio,
        "anova_lhs": anova.anova_lhs,
        "anova_rhs": anova.anova_rhs,
    }
    _write_json(cfg["out"], doc)
    return 0


# ---------------------------------------------------------------- parser

def _add_config_opt(p):
    p.add_argument("--config", help="JSON config file; flags override its values")


def build_parser() -> _Parser:
    parser = _Parser(prog="subforest", description=__doc__)
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    _add_config_opt(p)
    p.add_argument("--kind", choices=sorted(ARITY))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-sd", dest="noise_sd", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a forest on a CSV dataset")
    _add_config_opt(p)
    p.add_argument("--data")
    p.add_argument("--target")
    p.add_argument("--mode", choices=["honest", "cart"])
    p.add_argument("--s", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--s-exponent", dest="s_exponent", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--max-leaf-size", dest="max_leaf_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict with intervals from a model file")
    _add_config_opt(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--level", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    sim = sub.add_parser("simulate", help="run a simulation experiment")
    simsub = sim.add_subparsers(dest="subcommand", required=True)

    def sim_parser(name, defaults, func, extra=()):
        sp = simsub.add_parser(name)
        _add_config_opt(sp)
        for key in defaults:
            if key == "config":
                continue
            flag = "--" + key.replace("_", "-")
            if key in ("kind",):
                sp.add_argument(flag, choices=sorted(ARITY), dest=key)
            elif key in ("mode",):
                sp.add_argument(flag, choices=["honest", "cart"], dest=key)
            elif key in ("data", "target", "out", "levels"):
                sp.add_argument(flag, dest=key)
            elif key in ("noise_sd", "alpha", "p", "gamma", "delta", "s_exponent"):
                sp.add_argument(flag, type=float, dest=key)
            else:
                sp.add_argument(flag, type=int, dest=key)
        sp.set_defaults(func=func)
        return sp

    sim_parser("metrics", _SIM_COMMON, _cmd_sim_metrics)
    sim_parser("normality", _SIM_NORMALITY, _cmd_sim_normality)
    sim_parser("coverage", _SIM_COVERAGE, _cmd_sim_coverage)
    sim_parser("bias-grid", _SIM_GRID, _cmd_sim_bias_grid)
    sim_parser("bootstrap", _SIM_BOOTSTRAP, _cmd_sim_bootstrap)

    p = sub.add_parser("oracle-check", help="exact enumeration checks; exit 2 on violation")
    _add_config_opt(p)
    p.add_argument("--learner", choices=sorted(_LEARNERS))
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--mc-b", dest="mc_b", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except AssertionError as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError, WorkerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
