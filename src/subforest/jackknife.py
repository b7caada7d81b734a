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
``variance_from_per_tree`` centers in place, or the one column of ``v_ij``.
Its result stays batched: one ``VarianceEstimate`` whose fields are (K,)
arrays over the queries and whose C is (n, K), so one ``interval`` call gives
every query's interval. ``est[k]`` is query k's view, with float fields and
the column C[:, k]; ``v_ij`` returns that view of its one column.
The inclusion counts N*_bi are read from one record, the (B, s) sorted
subsample index rows that the forest stores (and that ``v_ij`` takes), so
s is their width.

The kernel accumulates C = (1/B) sum_blocks Ntilde_blk^T @ centered_blk in
two loops. The outer one runs over blocks of at most ``_IJ_BLOCK`` trees, in
tree order; each block's index rows become one (block, n) bool membership
table. The inner one runs over slabs of at most ``_IJ_SLAB`` training rows:
the slab's columns Ntilde = N* - s/n are written as float64 into one
(block, slab) tile, and the slab's GEMM writes straight into its rows of C
(from the second tree block on, into a (slab, K) partial that is then added
to those rows). C is divided by B in place. So beyond the (B, K) input and
the (n, K) result the kernel holds one byte per (tree, training row) of a
block and one (_IJ_BLOCK, _IJ_SLAB) float64 tile: 1/8 of a float64 block
plus 8 MB at most. No (B, n) counts matrix is formed.
Slabs are wide because every GEMM call has a fixed cost: on a 2-vCPU
machine whose scheduler leaves OpenBLAS's worker thread on the caller's
CPU, a 2-thread call waits about 8 ms for it, so 128-row slabs made a
predict at n = 1000, B = 1000, K = 25 about 3.5 times slower.

What stays bit-identical: each C_i is the same dot product over a block's
trees, and the blocks' products are added to C_i in the same order, so
slabbing changes only the shape of each GEMM call. When n fits in one slab
and B in one block, that call is the dense formula's single product on the
same values, so the estimates are bit-identical to it; this covers the
exact oracles and the small-n tests. The tile keeps the transposed layout
of the dense formula's (B, n) block, because OpenBLAS rounds a
non-transposed operand differently. Past one slab, OpenBLAS sums a slab
product of under about 1.2M multiply-adds in another order than the whole
product, with 1 or 2 threads, which moves the estimates by rounding: at
n = 1000 this was seen only at K = 2 with 1000 or more trees in a block,
at most 1.5e-15 relative (128-row slabs: K <= 10; 64-row slabs: K = 50 too).
Past one tree block only the order in which the blocks' products are summed
differs from the dense formula, which moves the estimates by rounding (at
most 2.2e-15 relative on a cosine d=2 forest at n = 5000, B = 25000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import ForestModel, predict_per_tree
from .normal import norm_ppf
from .sampling import sorted_rows

# trees per block: the blocks' products are summed into C in tree order, and
# a block's membership table and tile are this many rows high, whatever B is
_IJ_BLOCK = 2048
# training rows per slab of N* - s/n: the float64 tile is (_IJ_BLOCK, _IJ_SLAB)
# whatever n is. Few slabs per block keep the GEMM calls few, and narrower
# slabs round differently from the whole product at more K (see above)
_IJ_SLAB = 512


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
    if not sorted_rows(rows, n):
        raise ValueError(f"subsamples must be sorted rows of distinct indices in [0, {n})")
    return outputs, rows


def _finite_sample_scale(n: int, s: int) -> float:
    """(n-1)/n * (n/(n-s))^2; 0 at s = n, where the IJ part is identically zero."""
    return (n - 1) / n * (n / (n - s)) ** 2 if s < n else 0.0


def _estimates(centered: np.ndarray, rows: np.ndarray, n: int) -> VarianceEstimate:
    """The IJ kernel: the estimates of every column of a (B, K) matrix of centered tree outputs.

    ``rows`` holds tree b's sorted subsample indices in row b, (B, s).
    """
    b, s = rows.shape
    c_all = np.empty((n, centered.shape[1]))
    member = np.empty((min(b, _IJ_BLOCK), n), dtype=bool)
    tile = np.empty((min(b, _IJ_BLOCK), min(n, _IJ_SLAB)))
    part = np.empty((min(n, _IJ_SLAB), centered.shape[1])) if b > _IJ_BLOCK else None
    for t in range(0, b, _IJ_BLOCK):
        idx, block = rows[t:t + _IJ_BLOCK], centered[t:t + _IJ_BLOCK]
        m = member[:idx.shape[0]]
        m.fill(False)
        np.put_along_axis(m, idx, True, axis=1)
        for lo in range(0, n, _IJ_SLAB):
            hi = min(lo + _IJ_SLAB, n)
            # 1 - s/n at the tree's subsample, -s/n elsewhere
            tilde = np.subtract(m[:, lo:hi], s / n, out=tile[:idx.shape[0], :hi - lo])
            if t == 0:
                np.matmul(tilde.T, block, out=c_all[lo:hi])
            else:
                c_all[lo:hi] += np.matmul(tilde.T, block, out=part[:hi - lo])
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


def variance_from_per_tree(forest: ForestModel, per_tree: np.ndarray) -> tuple[np.ndarray, VarianceEstimate]:
    """Forest predictions and their estimates as (K,) arrays from the forest's (B, K)
    per-tree matrix, which this centers in place: pass a fresh one.

    The predictions are the column means of the per-tree matrix, the same
    reduction ``forest.predict_batch`` takes, so they agree bit-for-bit.
    """
    if forest.b < 2:
        raise ValueError(f"variance estimation needs B >= 2 tree outputs, got {forest.b}")
    if per_tree.ndim != 2 or per_tree.shape[0] != forest.b:
        raise ValueError(f"the per-tree matrix must be (B={forest.b}, K), got {per_tree.shape}")
    y_hat = per_tree.mean(axis=0)
    per_tree -= y_hat
    return y_hat, _estimates(per_tree, forest.subsample_indices, forest.n)


def predict_with_variance(forest: ForestModel, xs) -> tuple[np.ndarray, VarianceEstimate]:
    """Forest predictions for each row of ``xs`` and their estimates as (K,) arrays, from one traversal."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    return variance_from_per_tree(forest, predict_per_tree(forest, xs))


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
