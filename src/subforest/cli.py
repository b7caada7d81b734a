"""Command-line surface.

Commands: gen, train, predict, simulate {metrics, normality, coverage,
bias-grid, bootstrap, table1, incrementality}, oracle-check. Every option can
also come from a JSON config file (--config); explicit flags override file
values, and the fully resolved configuration is echoed into every output file
next to the tool version. Each command is a table of defaults, its required
keys and a handler that runs on the one config resolved from them. Exit
codes: 0 success, 1 usage or configuration error, 2 oracle or acceptance
assertion failure.

``train``, ``predict``, ``simulate table1`` and ``simulate incrementality``
also write one stage line to stderr (``_Stages``): each stage's wall seconds,
peak RSS and minor page faults.

Start-up loads only what a command runs: the simulation harness and the
enumeration oracle load inside simulate and oracle-check, and the process
pool on the first fan-out over more than one worker, so predict and
train --threads 1 never load multiprocessing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, rng
from .dataset import (
    ARITY,
    SyntheticSpec,
    TrainingSet,
    csv_columns,
    gen_synthetic,
    load_csv,
    read_csv,
    save_csv,
    write_csv,
)
from .forest import ForestConfig, WorkerError, max_leaves, train, traversal, usable_cores
from .jackknife import interval, v_ij, variance_from_per_tree
from .model_io import load_model, save_model
from .tree import CART, HONEST, TreeConfig

TOOL = f"subforest {__version__}"
THREADS_ENV = "SUBFOREST_THREADS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _threads(value) -> int:
    """Workers: ``value``, else SUBFOREST_THREADS, else the usable cores; never fewer than 1."""
    origin = ""
    if value is None:
        env = os.environ.get(THREADS_ENV)
        if not env:
            return usable_cores()
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        origin = f" (from {THREADS_ENV})"
    if value < 1:
        raise ValueError(f"threads must be >= 1, got {value}{origin}")
    return value


# the value types of keys whose default is unset, which are ints otherwise;
# labels, a list, is set only in a config file and has no flag
_KEY_TYPES = {**dict.fromkeys(["data", "target", "model", "out"], str), "labels": list}


def _key_type(table: dict, key: str) -> type:
    """A key's value type: its default's in ``table``, or by ``_KEY_TYPES`` when that is unset."""
    return _KEY_TYPES.get(key, int) if table[key] is None else type(table[key])


_NUMBER = (int, float)  # a bool is neither
# what a config file's value for each key type must be, and its test
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in _NUMBER),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list of numbers", lambda v: type(v) is list and all(type(x) in _NUMBER for x in v)),
}
# levels, a comma-separated list of numbers, may also be one JSON number
_LEVELS_TYPE = ("a string or a number", lambda v: type(v) in (str, *_NUMBER))


def _merge_config(args: argparse.Namespace) -> dict:
    """The command's config: flags override --config file values, which override its table.

    The file must hold a JSON object. Its value for an int key must be a JSON
    integer (not a bool), for a float key a JSON number, for a string key a
    JSON string and for labels an array of numbers; null stands for a key
    whose default is unset. Then every required key must be set, and threads
    resolves through ``_threads``. The result is a fresh dict.
    """
    resolved = dict(args.table)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file must hold a JSON object, got {file_cfg!r}")
        unknown = set(file_cfg) - set(args.table)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, v in file_cfg.items():
            name, ok = _LEVELS_TYPE if key == "levels" else _JSON_TYPES[_key_type(args.table, key)]
            if not ok(v) and not (v is None and args.table[key] is None):
                raise ValueError(f"config key {key!r} must be {name}, got {v!r}")
        resolved.update(file_cfg)
    for key in args.table:
        v = getattr(args, key, None)
        if v is not None:
            resolved[key] = v
    missing = ["--" + key.replace("_", "-") for key in args.required if resolved[key] is None]
    if missing:
        raise ValueError(f"{args.command}: required but not set: {', '.join(missing)}")
    if "threads" in resolved:
        resolved["threads"] = _threads(resolved["threads"])
    return resolved


def _preamble(command: str, cfg: dict) -> list[str]:
    lines = [f"# tool={TOOL}", f"# command={command}"]
    for k in sorted(cfg):
        if k == "out":  # the artifact's own location is not run configuration
            continue
        lines.append(f"# {k}={cfg[k]}")
    return lines


def _usage() -> tuple[float, int] | None:
    """This process's peak RSS so far in MiB and the minor page faults of it
    and its reaped children (the pool's workers); None without ``resource``."""
    try:
        import resource  # only train and predict load it
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    return peak, sum(resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


class _Stages:
    """A command's stage line: wall seconds and ``_usage`` readings per stage, written to stderr."""

    def __init__(self, command: str):
        self.command, self.parts = command, []
        self.start, self.usage = time.perf_counter(), _usage()

    def done(self, stage: str, note: str = "") -> float:
        """End ``stage``, which began when the previous one ended, and return its wall seconds."""
        now, usage = time.perf_counter(), _usage()
        wall = now - self.start
        part = f"{stage} {wall:.3f} s"
        if usage is not None:
            part += f" peak {usage[0]:.0f} MiB +{usage[1] - self.usage[1]} minflt"
        self.parts.append(part + (f" ({note})" if note else ""))
        self.start, self.usage = now, usage
        return wall

    def write(self) -> None:
        print(f"{self.command} stages: " + "; ".join(self.parts), file=sys.stderr)


# the forest's and its trees' keys with the library's defaults (a default
# instance's fields); every table that trains takes them from here and states
# only the values that differ
_TREE_KEYS = vars(TreeConfig())
_FOREST_KEYS = {k: v for k, v in vars(ForestConfig()).items() if k != "tree"}
_FOREST_DEFAULTS = {**_FOREST_KEYS, **_TREE_KEYS}


def _forest_config(cfg: dict) -> ForestConfig:
    tree = TreeConfig(**{k: cfg[k] for k in _TREE_KEYS})
    return ForestConfig(tree=tree, **{k: cfg[k] for k in _FOREST_KEYS})


def _write_json(path, command: str, cfg: dict, fields: dict) -> None:
    """The ``fields`` with the tool, the command and its resolved config, as sorted JSON."""
    doc = {"tool": TOOL, "command": command, "config": cfg, **fields}
    text = json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------- gen

_GEN_DEFAULTS = {"kind": "cosine", "d": None, "n": 100, "seed": 0, "noise_sd": SyntheticSpec.noise_sd, "out": None}


def _cmd_gen(cfg: dict) -> int:
    spec = SyntheticSpec(cfg["kind"], cfg["d"], cfg["noise_sd"])
    cfg["d"] = spec.d
    ts = gen_synthetic(spec, cfg["n"], cfg["seed"])
    save_csv(ts, cfg["out"], _preamble("gen", cfg))
    print(f"wrote {ts.n} rows ({ts.d} features) to {cfg['out']}")
    return 0


# ---------------------------------------------------------------- train

_TRAIN_DEFAULTS = {"data": None, "target": None, **_FOREST_DEFAULTS, "threads": None, "out": None}


def _cmd_train(cfg: dict) -> int:
    stages = _Stages("train")
    fcfg = _forest_config(cfg)  # refuses a bad forest key before the data loads
    if cfg["b"] is not None and cfg["b"] < 2:
        raise ValueError(f"b must be >= 2: predict's variance estimate needs two trees, got {cfg['b']}")
    ts = load_csv(cfg["data"], target_column=cfg["target"])
    stages.done("data")
    fm = train(ts, fcfg, n_jobs=cfg["threads"])
    wall = stages.done("train", f"{fm.roots.size} trees, {fm.feature.size} nodes, max {max_leaves(fm)} leaves")
    save_model(cfg["out"], fm, ts)
    stages.done("save")
    stages.write()
    print(
        f"trained {fm.config.tree.mode} forest: n={fm.n} d={ts.d} s={fm.s} b={fm.b} "
        f"wall={wall:.2f}s -> {cfg['out']}"
    )
    return 0


# ---------------------------------------------------------------- predict

_PREDICT_DEFAULTS = {"model": None, "data": None, "level": 0.95, "out": None}


def _load_query(path, feature_names, d) -> np.ndarray:
    """Feature-only CSV matching the model's columns (by name when known); nan and inf are read."""
    header, rows, lines = read_csv(path)
    if feature_names:
        missing = [c for c in feature_names if c not in header]
        if missing:
            raise ValueError(f"{path}: missing feature columns {missing}")
        cols = [header.index(c) for c in feature_names]
    else:
        if len(header) < d:
            raise ValueError(f"{path}: expected at least {d} feature columns, got {len(header)}")
        cols = list(range(d))
    return csv_columns(path, header, rows, lines, cols)


def _cmd_predict(cfg: dict) -> int:
    if not 0.0 < cfg["level"] < 1.0:  # before the model loads
        raise ValueError(f"level must be in (0, 1), got {cfg['level']}")
    stages = _Stages("predict")
    fm, meta = load_model(cfg["model"])
    stages.done("load")
    xs = _load_query(cfg["data"], meta.get("feature_names"), fm.d)
    stages.done("data")
    traverse = traversal(fm, xs.shape[0])  # xs is fresh float64 with the model's d columns
    per_tree = traverse(fm, xs)
    stages.done("traverse", f"{traverse.__name__.lstrip('_')} {per_tree.shape[0]}x{per_tree.shape[1]}")
    yhat, est = variance_from_per_tree(fm, per_tree)
    ci = interval(yhat, est, cfg["level"])
    stages.done("ij")
    table = np.column_stack([yhat, est.plugin, est.corrected, est.truncated, ci.lo, ci.hi]).tolist()
    rows = [["y_hat", "vij_plugin", "vij_corrected", "vij_truncated", "interval_lo", "interval_hi", "degenerate"]]
    rows += [[*row, int(flag)] for row, flag in zip(table, ci.degenerate.tolist())]
    write_csv(cfg["out"], _preamble("predict", {**cfg, "model_tool": meta["tool"], "b": fm.b, "s": fm.s}), rows)
    stages.done("write")
    stages.write()
    print(f"wrote {xs.shape[0]} prediction records to {cfg['out']}")
    return 0


# ---------------------------------------------------------------- simulate

_SIM_COMMON = {
    "kind": "cosine", "d": None, "n": 200, "k": 25, "r": 50, **_FOREST_DEFAULTS, "b": 1000, "mode": CART,
    "noise_sd": SyntheticSpec.noise_sd, "threads": None, "out": None,
}


def _experiment_spec(cfg: dict, source=None):
    """The simulation of ``cfg``, drawing from ``source`` or else from cfg's synthetic design."""
    from .experiments import ExperimentSpec, SyntheticSource

    if source is None:
        spec = SyntheticSpec(cfg["kind"], cfg["d"], cfg["noise_sd"])
        cfg["d"] = spec.d
        source = SyntheticSource(spec)
    fcfg = _forest_config(cfg)
    cfg["s"], cfg["b"] = fcfg.resolve(cfg["n"])  # echo resolved sizes, not the rule
    return ExperimentSpec(
        source=source,
        n=cfg["n"],
        k_test=cfg["k"],
        r_replicates=cfg["r"],
        forest=fcfg,
        seed=cfg["seed"],
        n_jobs=cfg["threads"],
    )


def _write_metrics_csv(path, command, cfg, rows) -> None:
    """One metrics row per (Distr, d, n, report) of ``rows``."""
    write_csv(path, _preamble(command, cfg), [
        ["Distr", "d", "n", "rel_bias2", "rel_var", "rel_mse", "abs_bias2", "abs_var", "abs_mse"],
        *([kind, d, n, rep.rel_bias2, rep.rel_variance, rep.rel_mse, rep.abs_bias2, rep.abs_variance, rep.abs_mse]
          for kind, d, n, rep in rows),
    ])


def _cmd_sim_metrics(cfg: dict) -> int:
    from .experiments import run_metrics

    rep = run_metrics(_experiment_spec(cfg))
    _write_metrics_csv(cfg["out"], "simulate-metrics", cfg, [(cfg["kind"], cfg["d"], cfg["n"], rep)])
    print(f"rel_mse={rep.rel_mse:.4f} abs_mse={rep.abs_mse:.3e} -> {cfg['out']}")
    return 0


_SIM_NORMALITY = {**_SIM_COMMON, "mode": HONEST, "alpha": 0.01, "r": 100}


def _cmd_sim_normality(cfg: dict) -> int:
    from .experiments import run_normality

    rep = run_normality(_experiment_spec(cfg), cfg["alpha"])
    _write_json(cfg["out"], "simulate-normality", cfg, {
        "ks_stats": rep.ks_stats.tolist(),
        "p_values": rep.p_values.tolist(),
        "degenerate": rep.degenerate.astype(int).tolist(),
        "alpha": rep.alpha,
        "pass_fraction": rep.pass_fraction,
    })
    print(f"KS pass fraction = {rep.pass_fraction:.3f} at alpha={cfg['alpha']}")
    return 0


_SIM_COVERAGE = {**_SIM_COMMON, "mode": HONEST, "levels": "0.95", "r": 100}


def _cmd_sim_coverage(cfg: dict) -> int:
    from .experiments import run_coverage

    try:
        levels = tuple(float(v) for v in str(cfg["levels"]).split(","))
    except ValueError:
        raise ValueError(f"levels must be comma-separated numbers, got {cfg['levels']!r}") from None
    rep = run_coverage(_experiment_spec(cfg), levels)
    _write_json(cfg["out"], "simulate-coverage", cfg, {
        "levels": list(rep.levels),
        "coverage_of_mean": list(rep.coverage_of_mean),
        "coverage_of_true": list(rep.coverage_of_true) if rep.coverage_of_true else None,
        "n_pairs": rep.n_pairs,
        "degenerate_pairs": rep.degenerate_pairs,
    })
    print(f"coverage of E[y_hat] at {levels}: {rep.coverage_of_mean}")
    return 0


_SIM_GRID = {
    "n": 10000, "s": 100, "mode": CART, "resolution": 5, "r": 20, "b": 200,
    "p": 0.01, "seed": 0, "threads": None, "out": None,
}


def _cmd_sim_bias_grid(cfg: dict) -> int:
    from .experiments import run_bias_grid

    grid = run_bias_grid(
        n=cfg["n"], s=cfg["s"], mode=cfg["mode"], grid_resolution=cfg["resolution"],
        r_replicates=cfg["r"], b=cfg["b"], seed=cfg["seed"], p=cfg["p"], n_jobs=cfg["threads"],
    )
    write_csv(cfg["out"], _preamble("simulate-bias-grid", cfg), grid.cell_means.tolist())
    corner = grid.cell_means[0, 0]
    center = grid.cell_means[grid.resolution // 2, grid.resolution // 2]
    print(f"corner cell mean {corner:.5f}, center cell mean {center:.5f} -> {cfg['out']}")
    return 0


# simulate metrics' keys with the data file in place of the synthetic design
_SIM_BOOTSTRAP = {
    "data": None, "target": None,
    **{k: v for k, v in _SIM_COMMON.items() if k not in ("kind", "d", "noise_sd")}, "n": None,
}


def _cmd_sim_bootstrap(cfg: dict) -> int:
    from .experiments import parametric_bootstrap_source, run_metrics

    ts = load_csv(cfg["data"], target_column=cfg["target"])
    if cfg["n"] is None:
        cfg["n"] = ts.n
    spec = _experiment_spec(cfg, source=ts)  # checked before the base forest trains; its source follows
    source = parametric_bootstrap_source(ts, spec.forest, n_jobs=cfg["threads"])
    rep = run_metrics(replace(spec, source=source))
    _write_metrics_csv(cfg["out"], "simulate-bootstrap", cfg, [(os.path.basename(cfg["data"]), ts.d, cfg["n"], rep)])
    print(f"rel_mse={rep.rel_mse:.4f} abs_mse={rep.abs_mse:.3e} -> {cfg['out']}")
    return 0


# unset b means B = 5n for each row, ForestConfig's rule: the paper's budget
_SIM_TABLE1 = {"b": None, "r": 50, "k": 25, "mode": CART, "seed": 1234, "threads": None, "out": None}


def _cmd_sim_table1(cfg: dict) -> int:
    import platform

    from .experiments import TABLE1_ROWS, run_metrics

    # every row shares simulate metrics' settings but its design; an unset b is given per row
    stamp = {k: v for k, v in {**_SIM_COMMON, **cfg}.items() if v is not None and k not in ("kind", "n")}
    stamp.update(cores=usable_cores(), python=platform.python_version(), numpy=np.__version__)
    stages, rows = _Stages("simulate table1"), []
    for i, (kind, d, n) in enumerate(TABLE1_ROWS, 1):
        row_cfg = {**_SIM_COMMON, **cfg, "kind": kind, "d": d, "n": n}
        rep = run_metrics(_experiment_spec(row_cfg))
        rows.append((kind, d, n, rep))
        stamp[f"row{i}"] = f"{kind} d={d} n={n} s={row_cfg['s']} b={row_cfg['b']}"
        # rewritten after each row, so a bad path fails on the first and finished rows survive
        _write_metrics_csv(cfg["out"], "simulate-table1", stamp, rows)
        wall = stages.done(f"row{i}", f"{kind} d={d} n={n}")
        print(f"{kind:>6} d={d:<3} n={n:<5} rel_mse={rep.rel_mse:.4f} ({wall:.0f}s)", flush=True)
    stages.write()
    print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 0


# the curve runs serially on TreeConfig()'s honest trees, queried at x in every coordinate
_SIM_INCREMENTALITY = {
    "s_values": "8,16,32", "x": 0.5, "outer": 1000, "inner": 1000, "seed": 0,
    "kind": "linear", "d": None, "noise_sd": SyntheticSpec.noise_sd, "out": None,
}


def _cmd_sim_incrementality(cfg: dict) -> int:
    try:
        s_values = [int(v) for v in cfg["s_values"].split(",")]
    except ValueError:
        raise ValueError(f"s_values must be comma-separated integers, got {cfg['s_values']!r}") from None
    if min(s_values) < 2:  # before any tree is fitted
        raise ValueError(f"every s in s_values must be >= 2, got {min(s_values)}")
    from .experiments import SyntheticSource
    from .oracle import HonestTreeLearner, incrementality_point

    spec = SyntheticSpec(cfg["kind"], cfg["d"], cfg["noise_sd"])
    cfg["d"] = spec.d
    learner, source = HonestTreeLearner(TreeConfig(), [cfg["x"]] * spec.d), SyntheticSource(spec)
    stages, rows = _Stages("simulate incrementality"), [["s", "ratio", "ratio_se", "reference", "method"]]
    for s in s_values:
        p = incrementality_point(learner, source, s, seed=cfg["seed"], outer=cfg["outer"], inner=cfg["inner"])
        rows.append([p.s, p.ratio, p.ratio_se, p.reference, p.method])
        # rewritten after each s, so finished rows survive an interrupt or a later failure
        write_csv(cfg["out"], _preamble("simulate-incrementality", cfg), rows)
        stages.done(f"s={s}")
        print(f"s={p.s:<4} ratio={p.ratio:.4f} +/- {p.ratio_se:.4f} reference={p.reference:.4f}", flush=True)
    stages.write()
    print(f"wrote {len(rows) - 1} rows to {cfg['out']}")
    return 0


# ---------------------------------------------------------------- oracle-check

_ORACLE_DEFAULTS = {
    "learner": "mean", "n": 6, "s": 2, "labels": None, "mc_b": 100000, "seed": 0, "out": None,
}

# learner name -> ``oracle`` class name; the module loads only when the command runs
_LEARNERS = {"mean": "SubsampleMean", "max": "SubsampleMax", "sum": "LabelSum"}


def _cmd_oracle_check(cfg: dict) -> int:
    if cfg["learner"] not in _LEARNERS:
        raise ValueError(f"learner must be one of {sorted(_LEARNERS)}, got {cfg['learner']!r}")
    if cfg["mc_b"] < 2:  # the Monte Carlo variance needs two draws; checked before the enumeration
        raise ValueError(f"mc_b must be >= 2, got {cfg['mc_b']}")
    from . import oracle

    learner = getattr(oracle, _LEARNERS[cfg["learner"]])()
    n, s = cfg["n"], cfg["s"]
    labels = cfg["labels"] if cfg["labels"] is not None else list(range(1, n + 1))
    labels = [float(v) for v in labels]

    # exact V_IJ on the fixed labels vs a bias-corrected Monte Carlo run
    ts = TrainingSet(np.arange(n, dtype=np.float64).reshape(-1, 1) / n, np.asarray(labels))
    subsets, values = oracle.enumerate_subsamples(ts, learner, s)
    exact = oracle.exact_vij(subsets, values, n)
    gen = rng.stream(cfg["seed"], rng.SUBSAMPLE)
    ids = gen.integers(0, subsets.shape[0], size=cfg["mc_b"])
    mc = v_ij(values[ids], subsets[ids], n)

    # Hajek projection and ANOVA bound on the label support (uniform atoms)
    support = sorted(set(labels))
    dist = oracle.FiniteSupportDistribution(
        np.asarray(support, dtype=np.float64).reshape(-1, 1),
        np.asarray(support, dtype=np.float64),
        np.full(len(support), 1.0 / len(support)),
    )
    anova = oracle.anova_bound_check(dist, learner, n, s)

    _write_json(cfg["out"], "oracle-check", cfg, {
        "exact_vij": exact,
        "mc_vij_corrected": mc.corrected,
        "mc_vij_plugin": mc.plugin,
        "mc_relative_error": abs(mc.corrected - exact) / exact if exact else 0.0,
        "hajek_variance": anova.hajek_variance,
        "base_variance": anova.base_variance,
        "incrementality_ratio": anova.incrementality_ratio,
        "anova_lhs": anova.anova_lhs,
        "anova_rhs": anova.anova_rhs,
    })
    return 0


# ---------------------------------------------------------------- parser

def _command(sub, name: str, defaults: dict, required: tuple, func, **kw):
    """A subcommand taking --config and one flag per key of its ``defaults``; ``required`` keys must be set."""
    choices = {"kind": sorted(ARITY), "mode": [HONEST, CART], "learner": sorted(_LEARNERS)}
    p = sub.add_parser(name, **kw)
    p.add_argument("--config", help="JSON config file; flags override its values")
    for key in defaults:
        kind = _key_type(defaults, key)
        if kind is not list:
            p.add_argument("--" + key.replace("_", "-"), dest=key, choices=choices.get(key),
                           type=None if kind is str else kind)
    # none of these names is a config key
    p.set_defaults(func=func, table=defaults, required=required, command=p.prog.partition(" ")[2])
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="subforest", description=(
        "Train subsampled random forests and predict with infinitesimal-jackknife confidence intervals, "
        "or run the simulations and exact enumeration checks of their asymptotic theory. Exit codes: "
        "0 success, 1 usage or configuration error, 2 oracle or acceptance assertion failure."))
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "gen", _GEN_DEFAULTS, ("out",), _cmd_gen, help="generate a synthetic dataset CSV")
    _command(sub, "train", _TRAIN_DEFAULTS, ("data", "out"), _cmd_train, help="train a forest on a CSV dataset")
    _command(sub, "predict", _PREDICT_DEFAULTS, ("model", "data", "out"), _cmd_predict,
             help="predict with intervals from a model file")

    sim = sub.add_parser("simulate", help="run a simulation experiment")
    simsub = sim.add_subparsers(dest="subcommand", required=True)
    _command(simsub, "metrics", _SIM_COMMON, ("out",), _cmd_sim_metrics)
    _command(simsub, "normality", _SIM_NORMALITY, ("out",), _cmd_sim_normality)
    _command(simsub, "coverage", _SIM_COVERAGE, ("out",), _cmd_sim_coverage)
    _command(simsub, "bias-grid", _SIM_GRID, ("out",), _cmd_sim_bias_grid)
    _command(simsub, "bootstrap", _SIM_BOOTSTRAP, ("data", "out"), _cmd_sim_bootstrap)
    _command(simsub, "table1", _SIM_TABLE1, ("out",), _cmd_sim_table1)
    _command(simsub, "incrementality", _SIM_INCREMENTALITY, ("out",), _cmd_sim_incrementality)
    _command(sub, "oracle-check", _ORACLE_DEFAULTS, (), _cmd_oracle_check,
             help="exact enumeration checks; exit 2 on violation")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(_merge_config(args))
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
