"""Infinitesimal-jackknife variance of forest predictions, with the finite-B
Monte Carlo bias correction:

    C_i       = (1/B) sum_b (N*_bi - s/n) (T*_b - Tbar)
    plugin    = sum_i C_i^2
    v_hat     = (1/B) sum_b (T*_b - Tbar)^2
    corrected = plugin - s(n-s)/n * v_hat / B
    truncated = (n-1)/n * (n/(n-s))^2 * max(corrected, 0) + v_hat / (B-1)

The centering constant is the exact without-replacement expectation s/n.
``corrected`` estimates sum_i Cov(T, N_i)^2, the B -> infinity target that
exact enumeration checks; it may come out negative at small B and is
preserved as-is.

``truncated`` is the variance intervals use: an estimate of Var(y_hat) for the
B-tree forest itself. Its first term scales the IJ estimate by the
finite-sample factor of Wager & Athey (2018), because sum_i Cov^2 falls short
of the infinite forest's variance by about (1 - s/n)^2; for the subsample
mean the scaled exact value is sum_i (y_i - ybar)^2 / (n(n-1)), the variance
of the full-sample mean. (At s = n every tree sees every row, C is zero and
the term is 0.) Its second term is the Monte Carlo variance of averaging B
i.i.d. trees, Var*(T)/B, estimated without bias by v_hat / (B-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import ForestModel, predict_per_tree
from .normal import norm_ppf


@dataclass(frozen=True)
class VarianceEstimate:
    plugin: float  # sum_i C_i^2, >= 0
    correction: float  # s(n-s)/n * v_hat / B, >= 0
    corrected: float  # plugin - correction, may be negative
    truncated: float  # Var(y_hat) for intervals: scaled max(corrected, 0) + v_hat/(B-1)
    v_hat: float  # (1/B) sum_b (T*_b - Tbar)^2
    c: np.ndarray  # (n,) per-example covariance weights C_i


@dataclass(frozen=True)
class PredictionInterval:
    center: float
    half_width: float
    level: float
    degenerate: bool  # corrected variance was negative

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width


def _check(outputs: np.ndarray, counts: np.ndarray, s: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    outputs = np.asarray(outputs, dtype=np.float64)
    counts = np.asarray(counts)
    if outputs.ndim != 1:
        raise ValueError("tree outputs must be a 1-d vector")
    b = outputs.size
    if b < 2:
        raise ValueError(f"variance estimation needs B >= 2 tree outputs, got {b}")
    if counts.shape != (b, n):
        raise ValueError(f"counts shape {counts.shape} does not match (B={b}, n={n})")
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return outputs, counts


def _finite_sample_scale(n: int, s: int) -> float:
    """(n-1)/n * (n/(n-s))^2; 0 at s = n, where the IJ part is identically zero."""
    return (n - 1) / n * (n / (n - s)) ** 2 if s < n else 0.0


def _estimates(outputs: np.ndarray, counts: np.ndarray, s: int, n: int) -> list[VarianceEstimate]:
    """The IJ kernel: one estimate per column of a (B, K) matrix of tree outputs."""
    b = outputs.shape[0]
    centered = outputs - outputs.mean(axis=0, keepdims=True)
    c_all = (counts - s / n).T.astype(np.float64, copy=False) @ centered / b  # (n, K)
    plugin = np.einsum("ik,ik->k", c_all, c_all)
    v_hat = np.einsum("bk,bk->k", centered, centered) / b
    correction = s * (n - s) / n * v_hat / b
    corrected = plugin - correction
    truncated = _finite_sample_scale(n, s) * np.maximum(corrected, 0.0) + v_hat / (b - 1)
    return [
        VarianceEstimate(
            plugin=float(plugin[k]),
            correction=float(correction[k]),
            corrected=float(corrected[k]),
            truncated=float(truncated[k]),
            v_hat=float(v_hat[k]),
            c=c_all[:, k],
        )
        for k in range(outputs.shape[1])
    ]


def v_ij(outputs, counts, s: int, n: int) -> VarianceEstimate:
    """Plug-in and bias-corrected infinitesimal-jackknife variance estimate."""
    outputs, counts = _check(outputs, counts, s, n)
    return _estimates(outputs[:, None], counts, s, n)[0]


def c_weights(outputs, counts, s: int, n: int) -> np.ndarray:
    """Per-example weights C_i from tree outputs and inclusion counts."""
    return v_ij(outputs, counts, s, n).c


def predict_with_variance(forest: ForestModel, xs) -> tuple[np.ndarray, list[VarianceEstimate]]:
    """Forest predictions for each row of ``xs`` and their estimates, from one traversal.

    The predictions are the column means of the per-tree matrix, the same
    reduction ``forest.predict_batch`` takes, so they agree bit-for-bit.
    """
    if forest.b < 2:
        raise ValueError(f"variance estimation needs B >= 2 tree outputs, got {forest.b}")
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    outputs = predict_per_tree(forest, xs)  # (B, K)
    return outputs.mean(axis=0), _estimates(outputs, forest.counts_matrix(), forest.s, forest.n)


def variance_estimates(forest: ForestModel, xs) -> list[VarianceEstimate]:
    """Batch v_ij for each row of ``xs`` against one fitted forest."""
    return predict_with_variance(forest, xs)[1]


def interval(y_hat: float, estimate: VarianceEstimate, level: float) -> PredictionInterval:
    """Normal-approximation interval for E[y_hat] at the given level."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = norm_ppf(0.5 * (1.0 + level))
    return PredictionInterval(
        center=float(y_hat),
        half_width=z * float(np.sqrt(estimate.truncated)),
        level=level,
        degenerate=estimate.corrected < 0.0,
    )
