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

One kernel computes every estimate, one per column of a (B, K) matrix of
centered tree outputs: the forest's per-tree matrix, which
``predict_with_variance`` centers in place, or the one column of ``v_ij``.
Its result stays batched: one ``VarianceEstimate`` whose fields are (K,)
arrays over the queries and whose C is (n, K), so one ``interval`` call gives
every query's interval. ``est[k]`` is query k's view, with float fields and
the column C[:, k]; ``v_ij`` returns that view of its one column.
The inclusion counts N*_bi are read from one record, the (B, s) sorted
subsample index rows that the forest stores (and that ``v_ij`` takes), so
s is their width. The kernel accumulates
C = (1/B) sum_blocks Ntilde_blk^T @ centered_blk over blocks of at most
``_IJ_BLOCK`` trees, building each block's rows Ntilde = N* - s/n as float64
straight from its index rows, and divides by B in place. So beyond the
(B, K) input and the (n, K) result it holds one (_IJ_BLOCK, n) float64 block
and, past one block, one (n, K) partial product; no (B, n) counts matrix is
formed. At B <= ``_IJ_BLOCK`` this is the single product of the dense
formula on the same values, so the estimates are bit-identical to it; past
that only the order in which the blocks' products are summed differs, which
moves the estimates by rounding (at most 2.2e-15 relative on a cosine d=2
forest at n = 5000, B = 25000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import ForestModel, _sorted_rows, predict_per_tree
from .normal import norm_ppf

# trees per block of N* - s/n rows: bounds the kernel's working set
# independently of B, like forest._PAIR_BLOCK bounds the traversal's
_IJ_BLOCK = 2048


@dataclass(frozen=True)
class VarianceEstimate:
    plugin: np.ndarray | float  # sum_i C_i^2, >= 0
    correction: np.ndarray | float  # s(n-s)/n * v_hat / B, >= 0
    corrected: np.ndarray | float  # plugin - correction, may be negative
    truncated: np.ndarray | float  # Var(y_hat) for intervals: scaled max(corrected, 0) + v_hat/(B-1)
    v_hat: np.ndarray | float  # (1/B) sum_b (T*_b - Tbar)^2
    c: np.ndarray  # (n, K) per-example covariance weights C_i, or (n,) for one query

    def __getitem__(self, k: int) -> VarianceEstimate:
        """Query k's estimate: float fields and its column C[:, k]."""
        return VarianceEstimate(
            float(self.plugin[k]), float(self.correction[k]), float(self.corrected[k]),
            float(self.truncated[k]), float(self.v_hat[k]), self.c[:, k],
        )


@dataclass(frozen=True)
class PredictionInterval:
    center: np.ndarray | float
    half_width: np.ndarray | float
    level: float
    degenerate: np.ndarray | bool  # corrected variance was negative

    @property
    def lo(self) -> np.ndarray | float:
        return self.center - self.half_width

    @property
    def hi(self) -> np.ndarray | float:
        return self.center + self.half_width


def _check(outputs, rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    outputs = np.asarray(outputs, dtype=np.float64)
    rows = np.asarray(rows)
    if outputs.ndim != 1:
        raise ValueError("tree outputs must be a 1-d vector")
    b = outputs.size
    if b < 2:
        raise ValueError(f"variance estimation needs B >= 2 tree outputs, got {b}")
    if rows.ndim != 2 or rows.shape[0] != b or not 1 <= rows.shape[1] <= n or rows.dtype.kind not in "iu":
        raise ValueError(f"subsamples must be B={b} rows of 1 to n={n} integer indices, got {rows.dtype} {rows.shape}")
    if not _sorted_rows(rows, n):
        raise ValueError(f"subsamples must be sorted rows of distinct indices in [0, {n})")
    return outputs, rows


def _finite_sample_scale(n: int, s: int) -> float:
    """(n-1)/n * (n/(n-s))^2; 0 at s = n, where the IJ part is identically zero."""
    return (n - 1) / n * (n / (n - s)) ** 2 if s < n else 0.0


def _tilde_block(rows: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Float64 rows N*_b - s/n of the trees lo..lo+_IJ_BLOCK-1 (clipped to B), from their index rows."""
    idx = rows[lo:lo + _IJ_BLOCK]
    s = rows.shape[1]
    # 1 - s/n at the tree's subsample, -s/n elsewhere
    block = np.full((idx.shape[0], n), -(s / n))
    np.put_along_axis(block, idx, 1 - s / n, axis=1)
    return block


def _estimates(centered: np.ndarray, rows: np.ndarray, n: int) -> VarianceEstimate:
    """The IJ kernel: the estimates of every column of a (B, K) matrix of centered tree outputs.

    ``rows`` holds tree b's sorted subsample indices in row b, (B, s).
    """
    b, s = rows.shape
    c_all = _tilde_block(rows, 0, n).T @ centered[:_IJ_BLOCK]  # (n, K)
    if b > _IJ_BLOCK:
        part = np.empty_like(c_all)
        for lo in range(_IJ_BLOCK, b, _IJ_BLOCK):
            c_all += np.matmul(_tilde_block(rows, lo, n).T, centered[lo:lo + _IJ_BLOCK], out=part)
    c_all /= b
    plugin = np.einsum("ik,ik->k", c_all, c_all)
    v_hat = np.einsum("bk,bk->k", centered, centered) / b
    correction = s * (n - s) / n * v_hat / b
    corrected = plugin - correction
    truncated = _finite_sample_scale(n, s) * np.maximum(corrected, 0.0) + v_hat / (b - 1)
    return VarianceEstimate(plugin, correction, corrected, truncated, v_hat, c_all)


def v_ij(outputs, subsamples, n: int) -> VarianceEstimate:
    """Plug-in and bias-corrected infinitesimal-jackknife variance estimate.

    ``subsamples`` holds tree b's sorted subsample indices in row b, (B, s).
    Reads ``outputs`` and ``subsamples`` without modifying them.
    """
    outputs, rows = _check(outputs, subsamples, n)
    column = outputs[:, None]
    centered = column - column.mean(axis=0, keepdims=True)  # a new array, the caller's stays
    return _estimates(centered, rows, n)[0]


def predict_with_variance(forest: ForestModel, xs) -> tuple[np.ndarray, VarianceEstimate]:
    """Forest predictions for each row of ``xs`` and their estimates as (K,) arrays, from one traversal.

    The predictions are the column means of the per-tree matrix, the same
    reduction ``forest.predict_batch`` takes, so they agree bit-for-bit.
    """
    if forest.b < 2:
        raise ValueError(f"variance estimation needs B >= 2 tree outputs, got {forest.b}")
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    centered = predict_per_tree(forest, xs)  # (B, K), a fresh array
    y_hat = centered.mean(axis=0)
    centered -= y_hat
    return y_hat, _estimates(centered, forest.subsample_indices, forest.n)


def variance_estimates(forest: ForestModel, xs) -> list[VarianceEstimate]:
    """The per-query views ``est[k]`` of ``predict_with_variance``'s estimates, one per row of ``xs``."""
    est = predict_with_variance(forest, xs)[1]
    return [est[k] for k in range(est.c.shape[1])]


def interval(y_hat: np.ndarray | float, estimate: VarianceEstimate, level: float) -> PredictionInterval:
    """Normal-approximation intervals for E[y_hat] at the given level, elementwise over the queries."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = norm_ppf(0.5 * (1.0 + level))
    return PredictionInterval(
        center=y_hat,
        half_width=z * np.sqrt(estimate.truncated),
        level=level,
        degenerate=estimate.corrected < 0.0,
    )
