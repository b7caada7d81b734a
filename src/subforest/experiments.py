"""Desk-scale simulation harness for the variance estimator.

``simulate_predictions`` draws K test points once, trains R independent
replicate forests, and records the prediction and bias-corrected variance
estimate at every (test point, replicate) pair. The report builders are pure
functions of those matrices, so they double as self-test hooks on synthetic
inputs.

Metric conventions, per test point k over replicates r:

    sigma2_k = Var_r[yhat_kr]                      (ddof=1)
    Bias^2_k = (mean_r Vhat_kr - sigma2_k)^2
    Var_k    = Var_r[Vhat_kr]                      (ddof=1)
    MSE_k    = Bias^2_k + Var_k

Aggregates are means over k. Relative metrics divide by the test-set average
of sigma2^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .dataset import SyntheticSpec, TrainingSet, sample_synthetic, true_mean_batch
from .forest import ForestConfig, ForestModel, fan_out, predict_batch, train
from .jackknife import predict_with_variance
from .normal import ks_normal_pvalue, norm_ppf
from .tree import TreeConfig


class SyntheticSource:
    """Data source backed by one of the synthetic label rules."""

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec

    @property
    def d(self) -> int:
        return self.spec.d

    def sample_training(self, gen: np.random.Generator, n: int) -> TrainingSet:
        return sample_synthetic(self.spec, n, gen)

    def sample_test_points(self, gen: np.random.Generator, k: int) -> np.ndarray:
        return gen.random((k, self.spec.d))

    def true_mean(self, xs: np.ndarray) -> np.ndarray | None:
        return true_mean_batch(self.spec, xs)


class BernoulliSource:
    """X uniform on [0,1]^2, Y ~ Bernoulli(p) independent of X."""

    def __init__(self, p: float = 0.01):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.d = 2

    def sample_training(self, gen: np.random.Generator, n: int) -> TrainingSet:
        x = gen.random((n, 2))
        y = (gen.random(n) < self.p).astype(np.float64)
        return TrainingSet(x, y)

    def sample_test_points(self, gen: np.random.Generator, k: int) -> np.ndarray:
        return gen.random((k, 2))

    def true_mean(self, xs: np.ndarray) -> np.ndarray | None:
        return np.full(np.atleast_2d(xs).shape[0], self.p)


class BootstrapSource:
    """Parametric bootstrap around a fitted forest: X resampled from the
    training features, Y = fitted mean + Gaussian residual noise."""

    def __init__(self, base_x: np.ndarray, fitted: ForestModel, noise_sd: float):
        self.base_x = np.asarray(base_x, dtype=np.float64)
        self.fitted = fitted
        self.noise_sd = float(noise_sd)

    @property
    def d(self) -> int:
        return self.base_x.shape[1]

    def sample_training(self, gen: np.random.Generator, n: int) -> TrainingSet:
        x = self.base_x[gen.integers(0, self.base_x.shape[0], size=n)]
        y = predict_batch(self.fitted, x)
        if self.noise_sd > 0.0:
            y = y + self.noise_sd * gen.standard_normal(n)
        return TrainingSet(x, y)

    def sample_test_points(self, gen: np.random.Generator, k: int) -> np.ndarray:
        return self.base_x[gen.integers(0, self.base_x.shape[0], size=k)]

    def true_mean(self, xs: np.ndarray) -> np.ndarray | None:
        return predict_batch(self.fitted, xs)


def parametric_bootstrap_source(ts: TrainingSet, cfg: ForestConfig, n_jobs: int = 1) -> BootstrapSource:
    """Fit a forest on real data and wrap it as a synthetic data source."""
    fitted = train(ts, cfg, n_jobs=n_jobs)
    residuals = ts.y - predict_batch(fitted, ts.x)
    if np.all(residuals == 0.0):
        warnings.warn("all training residuals are zero; bootstrap noise sd set to 0")
        sd = 0.0
    else:
        sd = float(np.std(residuals, ddof=1))
    return BootstrapSource(ts.x, fitted, sd)


@dataclass(frozen=True)
class ExperimentSpec:
    source: object
    n: int
    k_test: int
    r_replicates: int
    forest: ForestConfig
    seed: int = 0
    n_jobs: int = 1

    def __post_init__(self):
        if self.k_test < 1:
            raise ValueError(f"k_test must be >= 1, got {self.k_test}")
        if self.r_replicates < 2:
            raise ValueError(f"r_replicates must be >= 2, got {self.r_replicates}")
        if self.forest.b is not None and self.forest.b < 2:  # an unset b resolves to 5n
            raise ValueError(f"variance estimates need forest.b >= 2 trees, got {self.forest.b}")


@dataclass(frozen=True)
class SimulationResult:
    test_x: np.ndarray  # (K, d)
    predictions: np.ndarray  # (K, R)
    vij_corrected: np.ndarray  # (K, R)
    vij_truncated: np.ndarray  # (K, R) interval variance, see jackknife.VarianceEstimate
    vij_plugin: np.ndarray  # (K, R)
    degenerate: np.ndarray  # (K, R) bool, corrected < 0
    true_means: np.ndarray | None  # (K,) for sources with a known mean


def _replicate_forest(source, n: int, fcfg: ForestConfig, seed: int, r: int) -> ForestModel:
    """Replicate r's forest: its training set from stream (seed, DATASET, r), its seed from (seed, REPLICATE, r)."""
    ts = source.sample_training(rng.stream(seed, rng.DATASET, r), n)
    return train(ts, replace(fcfg, seed=int(rng.derive_key(seed, rng.REPLICATE, r)[0])))


def _replicate(args) -> tuple:
    source, n, fcfg, seed, r, test_x = args
    yhat, est = predict_with_variance(_replicate_forest(source, n, fcfg, seed, r), test_x)
    return yhat, est.corrected, est.truncated, est.plugin  # not est: its (n, K) C would be pickled back


def _replicate_name(args) -> str:
    return f"replicate {args[4]}"


def simulate_predictions(spec: ExperimentSpec) -> SimulationResult:
    """Predictions and variance estimates for K test points x R replicates."""
    test_x = spec.source.sample_test_points(rng.stream(spec.seed, rng.TEST_POINTS), spec.k_test)
    jobs = [(spec.source, spec.n, spec.forest, spec.seed, r, test_x) for r in range(spec.r_replicates)]
    outs = fan_out(_replicate, jobs, spec.n_jobs, _replicate_name)
    pred = np.column_stack([o[0] for o in outs])
    corrected = np.column_stack([o[1] for o in outs])
    truncated = np.column_stack([o[2] for o in outs])
    plugin = np.column_stack([o[3] for o in outs])
    return SimulationResult(
        test_x=test_x,
        predictions=pred,
        vij_corrected=corrected,
        vij_truncated=truncated,
        vij_plugin=plugin,
        degenerate=corrected < 0.0,
        true_means=spec.source.true_mean(test_x),
    )


@dataclass(frozen=True)
class MetricsReport:
    bias2: np.ndarray  # (K,)
    variance: np.ndarray  # (K,)
    mse: np.ndarray  # (K,)
    sigma2: np.ndarray  # (K,) empirical Var_r of the prediction
    abs_bias2: float
    abs_variance: float
    abs_mse: float
    scale_mean_of_squares: float  # mean_k sigma2_k^2
    rel_bias2: float
    rel_variance: float
    rel_mse: float


def metrics_report(predictions: np.ndarray, vhat: np.ndarray) -> MetricsReport:
    """Accuracy of the variance estimates against the replicate spread."""
    pred = np.atleast_2d(np.asarray(predictions, dtype=np.float64))
    vhat = np.atleast_2d(np.asarray(vhat, dtype=np.float64))
    if pred.shape != vhat.shape or pred.shape[1] < 2:
        raise ValueError(f"need matching (K, R>=2) matrices, got {pred.shape} and {vhat.shape}")
    sigma2 = pred.var(axis=1, ddof=1)
    bias2 = (vhat.mean(axis=1) - sigma2) ** 2
    variance = vhat.var(axis=1, ddof=1)
    mse = bias2 + variance
    scale_sq = float(np.mean(sigma2**2))

    def rel(value: float) -> float:
        if scale_sq == 0.0:
            return 0.0 if value == 0.0 else float("inf")
        return value / scale_sq

    return MetricsReport(
        bias2=bias2,
        variance=variance,
        mse=mse,
        sigma2=sigma2,
        abs_bias2=float(bias2.mean()),
        abs_variance=float(variance.mean()),
        abs_mse=float(mse.mean()),
        scale_mean_of_squares=scale_sq,
        rel_bias2=rel(float(bias2.mean())),
        rel_variance=rel(float(variance.mean())),
        rel_mse=rel(float(mse.mean())),
    )


def run_metrics(spec: ExperimentSpec) -> MetricsReport:
    sim = simulate_predictions(spec)
    return metrics_report(sim.predictions, sim.vij_corrected)


# the (kind, d, n) designs of the synthetic benchmark table, one run_metrics row each
TABLE1_ROWS = (
    ("cosine", 2, 200),
    ("cosine", 2, 1000),
    ("cosine", 10, 200),
    ("xor", 5, 200),
    ("xor", 5, 1000),
    ("and", 20, 200),
)


@dataclass(frozen=True)
class NormalityReport:
    ks_stats: np.ndarray  # (K,), nan for degenerate points
    p_values: np.ndarray  # (K,), nan for degenerate points
    degenerate: np.ndarray  # (K,) bool, zero replicate variance
    alpha: float
    pass_fraction: float  # among non-degenerate points


def normality_report(predictions: np.ndarray, alpha: float = 0.01) -> NormalityReport:
    """KS test of the studentized predictions against the standard normal."""
    pred = np.atleast_2d(np.asarray(predictions, dtype=np.float64))
    k, r = pred.shape
    if r < 2:
        raise ValueError("need at least 2 replicates per test point")
    ks = np.full(k, np.nan)
    pv = np.full(k, np.nan)
    degen = np.zeros(k, dtype=bool)
    for i in range(k):
        sd = pred[i].std(ddof=1)
        if sd == 0.0:
            degen[i] = True
            continue
        z = (pred[i] - pred[i].mean()) / sd
        ks[i], pv[i] = ks_normal_pvalue(z)
    live = ~degen
    frac = float(np.mean(pv[live] >= alpha)) if live.any() else 0.0
    return NormalityReport(ks_stats=ks, p_values=pv, degenerate=degen, alpha=alpha, pass_fraction=frac)


def run_normality(spec: ExperimentSpec, alpha: float = 0.01) -> NormalityReport:
    if spec.r_replicates < 50:
        raise ValueError("normality checks need at least 50 replicates")
    if not 0.0 < alpha < 1.0:  # before any replicate trains
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    sim = simulate_predictions(spec)
    return normality_report(sim.predictions, alpha)


@dataclass(frozen=True)
class CoverageReport:
    levels: tuple[float, ...]
    coverage_of_mean: tuple[float, ...]  # fraction covering the replicate-mean prediction
    coverage_of_true: tuple[float, ...] | None  # fraction covering mu(x), synthetic only
    n_pairs: int
    degenerate_pairs: int  # pairs with negative corrected variance, whose IJ part was truncated to 0


def coverage_report(
    predictions: np.ndarray,
    truncated: np.ndarray,
    degenerate: np.ndarray,
    levels=(0.95,),
    true_means: np.ndarray | None = None,
) -> CoverageReport:
    """Interval coverage of E[yhat] (replicate mean) and optionally mu(x)."""
    pred = np.atleast_2d(np.asarray(predictions, dtype=np.float64))
    trunc = np.atleast_2d(np.asarray(truncated, dtype=np.float64))
    half_unit = np.sqrt(trunc)
    target = pred.mean(axis=1, keepdims=True)
    cov_mean, cov_true = [], []
    for level in levels:
        z = norm_ppf(0.5 * (1.0 + level))
        covered = np.abs(pred - target) <= z * half_unit
        cov_mean.append(float(covered.mean()))
        if true_means is not None:
            mu = np.asarray(true_means, dtype=np.float64)[:, None]
            cov_true.append(float((np.abs(pred - mu) <= z * half_unit).mean()))
    return CoverageReport(
        levels=tuple(levels),
        coverage_of_mean=tuple(cov_mean),
        coverage_of_true=tuple(cov_true) if true_means is not None else None,
        n_pairs=pred.size,
        degenerate_pairs=int(np.count_nonzero(degenerate)),
    )


def run_coverage(spec: ExperimentSpec, levels=(0.95,)) -> CoverageReport:
    if spec.r_replicates < 50:
        raise ValueError("coverage checks need at least 50 replicates")
    for level in levels:  # before any replicate trains
        if not 0.0 < level < 1.0:
            raise ValueError(f"coverage level must be in (0, 1), got {level}")
    sim = simulate_predictions(spec)
    return coverage_report(sim.predictions, sim.vij_truncated, sim.degenerate, levels, sim.true_means)


@dataclass(frozen=True)
class BiasGrid:
    resolution: int
    cell_means: np.ndarray  # (G, G); [i, j] is the cell x1 in [i/G,(i+1)/G), x2 likewise


def _bias_grid_replicate(args) -> np.ndarray:
    source, n, fcfg, seed, r, centers = args
    return predict_batch(_replicate_forest(source, n, fcfg, seed, r), centers)


def run_bias_grid(
    n: int,
    s: int,
    mode: str,
    grid_resolution: int,
    r_replicates: int,
    b: int = 200,
    seed: int = 0,
    p: float = 0.01,
    n_jobs: int = 1,
) -> BiasGrid:
    """Mean prediction per grid cell under the flat Bernoulli label law."""
    if grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2, got {grid_resolution}")
    if r_replicates < 1:
        raise ValueError(f"r_replicates must be >= 1, got {r_replicates}")
    fcfg = ForestConfig(s=s, b=b, tree=TreeConfig(mode=mode), seed=0)
    g = grid_resolution
    centers_1d = (np.arange(g) + 0.5) / g
    cx, cy = np.meshgrid(centers_1d, centers_1d, indexing="ij")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    source = BernoulliSource(p)
    jobs = [(source, n, fcfg, seed, r, centers) for r in range(r_replicates)]
    outs = fan_out(_bias_grid_replicate, jobs, n_jobs, _replicate_name)
    means = np.mean(np.stack(outs, axis=0), axis=0).reshape(g, g)
    return BiasGrid(resolution=g, cell_means=means)
