"""The regularity audit of honest forests, and the replay of their honesty partitions.

A forest stores each tree's subsample but not its honesty partition: tree
b's stream ``(seed, TREE, b)`` draws the partition's swap targets right after
the subsample's, in one ``integers(lows, highs)`` call (``forest._fit_block``).
``replayed_prediction`` redraws them for every tree of a trained forest, and
``validate_regularity`` audits a forest against given prediction rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subforest import rng
from subforest.sampling import draw_block, partition_block, prediction_size, sorted_rows
from subforest.tree import HONEST, _balanced

# rows of the (rows, n) bool table one ``row_members`` block builds: few, so
# the table and its index arrays stay small beside the forest
_MEMBER_ROWS = 256


def row_members(rows: np.ndarray, of: np.ndarray, n: int) -> np.ndarray:
    """(B, k) bool: whether ``of[b, j]`` lies in row ``rows[b]``, for entries in [0, n).

    Each block of at most ``_MEMBER_ROWS`` rows marks its entries in a
    (rows, n) bool table and reads ``of`` from it.
    """
    out = np.empty(of.shape, dtype=bool)
    for lo in range(0, rows.shape[0], _MEMBER_ROWS):
        hi = min(lo + _MEMBER_ROWS, rows.shape[0])
        at = np.arange(hi - lo)[:, None]
        table = np.zeros((hi - lo, n), dtype=bool)
        table[at, rows[lo:hi]] = True
        out[lo:hi] = table[at, of[lo:hi]]
    return out


def replayed_prediction(fm) -> np.ndarray:
    """(B, ceil(s/2)) sorted prediction rows of a trained honest forest, redrawn from each tree's stream.

    Asserts that the replayed subsample rows are the forest's own.
    """
    s, k = fm.s, prediction_size(fm.s)
    lows = np.concatenate([np.arange(s), np.arange(k)])
    highs = np.concatenate([np.full(s, fm.n), np.full(k, s)])
    gen = rng.stream(0)
    js = np.stack([rng.rekey(gen, fm.config.seed, rng.TREE, b).integers(lows, highs) for b in range(fm.b)])
    sub = draw_block(fm.n, s, js[:, :s])
    assert np.array_equal(sub, fm.subsample_indices), "the replayed subsamples are not the forest's"
    return partition_block(sub, js[:, s:])[1]


@dataclass(frozen=True)
class RegularityReport:
    """Per-split child fractions and per-leaf prediction counts of an honest forest."""

    split_tree: np.ndarray  # (splits,) intp, the tree each split belongs to
    split_axes: np.ndarray  # (splits,) int32
    split_kinds: np.ndarray  # (splits,) uint8 index into SPLIT_KINDS
    split_min_fraction: np.ndarray  # (splits,) float64, min child fraction
    splits_ok: np.ndarray  # (splits,) bool, min fraction >= gamma
    leaf_pred_counts: np.ndarray  # (leaves,) int64
    leaves_ok: np.ndarray  # (leaves,) bool, see validate_regularity
    gamma: float

    @property
    def passed(self) -> bool:
        return bool(self.splits_ok.all() and self.leaves_ok.all())

    @property
    def unsplittable_leaves(self) -> int:
        """Accepted leaves holding two or more prediction points."""
        return int(np.count_nonzero(self.leaves_ok & (self.leaf_pred_counts >= 2)))


def _splittable(x_s: np.ndarray, x_p: np.ndarray, gamma: float) -> bool:
    """Whether some structure or prediction-coordinate midpoint is admissible for a node.

    ``x_s`` and ``x_p`` are the node's structure and prediction feature rows.
    """
    m = len(x_s) + len(x_p)
    for a in range(x_p.shape[1]):
        for coords in (x_s[:, a], x_p[:, a]):
            u = np.unique(coords)
            t = 0.5 * (u[:-1] + u[1:])
            left_p = np.count_nonzero(x_p[:, a, None] <= t, axis=0)
            left = left_p + np.count_nonzero(x_s[:, a, None] <= t, axis=0)
            if np.any((left_p >= 1) & (left_p < len(x_p)) & _balanced(left, m, gamma)):
                return True
    return False


def validate_regularity(forest, ts, prediction) -> RegularityReport:
    """Audit child fractions and leaf occupancy of every tree of an honest forest.

    ``prediction`` holds each tree's (B, ceil(s/2)) sorted prediction rows,
    which must lie inside the tree's subsample. Routes every tree's
    subsample down its tree level by level, all trees at once. A split
    passes when both children keep at least a gamma fraction of its points.
    A leaf passes when its value is the label of the lowest prediction point
    routed to it, and it holds exactly one prediction point or, failing
    that, at least two that no admissible midpoint could separate (the split
    rule in the ``tree`` module docstring).
    """
    cfg = forest.config.tree
    if cfg.mode != HONEST:
        raise ValueError("regularity validation is defined for honest trees only")
    n, gamma = ts.n, cfg.gamma
    b, s = forest.subsample_indices.shape
    prediction = np.asarray(prediction)
    if prediction.shape != (b, prediction_size(s)) or not sorted_rows(prediction, n):
        raise ValueError("prediction indices must be sorted rows of ceil(s/2) distinct indices")
    if not row_members(forest.subsample_indices, prediction, n).all():
        raise ValueError("prediction indices must lie inside their tree's subsample")
    pt = forest.subsample_indices.ravel()
    is_pred = row_members(prediction, forest.subsample_indices, n).ravel()
    node, tree_of = forest.roots, np.arange(b)
    at = np.repeat(tree_of, s)  # each point's position in the frontier
    splits, leaves = [], []
    while node.size:
        feat = forest.feature[node]
        inner = feat >= 0
        count = np.bincount(at, minlength=node.size)
        p_count = np.bincount(at[is_pred], minlength=node.size)
        lowest = np.full(node.size, n)
        np.minimum.at(lowest, at[is_pred], pt[is_pred])
        leaf_at = np.flatnonzero(~inner)
        leaf, p_leaf, low = node[leaf_at], p_count[leaf_at], lowest[leaf_at]
        ok = (p_leaf >= 1) & (forest.value[leaf] == ts.y[np.minimum(low, n - 1)])
        for j in np.flatnonzero(ok & (p_leaf >= 2)):
            mine = at == leaf_at[j]
            ok[j] = not _splittable(ts.x[pt[mine & ~is_pred]], ts.x[pt[mine & is_pred]], gamma)
        leaves.append((p_leaf, ok))

        keep = inner[at]
        at, pt, is_pred = at[keep], pt[keep], is_pred[keep]
        go_right = ~(ts.x[pt, feat[at]] <= forest.value[node[at]])
        m = count[inner]
        n_left = m - np.bincount(at[go_right], minlength=node.size)[inner]
        splits.append((tree_of[inner], feat[inner], forest.split_kind[node[inner]],
                       np.minimum(n_left, m - n_left) / np.maximum(m, 1)))
        at = 2 * (np.cumsum(inner) - 1)[at] + go_right
        node = (forest.left[node[inner], None] + np.arange(2)).ravel()
        tree_of = np.repeat(tree_of[inner], 2)
    split_tree, axes, kinds, min_frac = (np.concatenate(a) for a in zip(*splits))
    counts, leaves_ok = (np.concatenate(a) for a in zip(*leaves))
    return RegularityReport(
        split_tree=split_tree,
        split_axes=axes,
        split_kinds=kinds,
        split_min_fraction=min_frac,
        splits_ok=min_frac >= gamma,
        leaf_pred_counts=counts,
        leaves_ok=leaves_ok,
        gamma=gamma,
    )
