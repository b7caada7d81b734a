"""Base learners: honest regular trees and a greedy CART-style baseline.

The honest mode splits the subsample into structure points (drive the
splits) and prediction points (fill the leaves), splitting until every leaf
holds exactly one prediction point whose label becomes the leaf value. Split
decisions may read structure features, structure labels, and prediction
FEATURES (to keep at least one prediction point per side), but never
prediction labels: permuting prediction labels leaves the split structure
bit-identical.

Split rule, honest mode:
  * with probability ``delta`` the split axis is uniformly random,
    otherwise the axis with the best structure-label variance reduction
    (ties going to the lowest axis);
  * candidate thresholds are midpoints between consecutive distinct sorted
    structure coordinates on the axis;
  * a candidate is admissible iff each child keeps at least a ``gamma``
    fraction of the node's subsample points (child count / node count >=
    gamma, for both children) and at least one prediction point; the
    admissible candidate with the best variance reduction wins, ties going
    to the lowest threshold;
  * when the drawn axis has no admissible candidate, the axis is redrawn
    uniformly among axes that do; if no axis does but the prediction points
    differ, the node is split at a uniformly chosen admissible midpoint of
    the prediction coordinates, on a uniformly chosen axis that has one;
  * a node that no admissible midpoint splits is a leaf holding its lowest
    prediction index: it has one prediction point, duplicate feature
    vectors, or (rarely) prediction points whose every separating midpoint
    breaks the gamma floor.

The greedy CART mode uses all subsample labels for both splitting and leaf
means, stopping at ``max_leaf_size``; it exists as the dishonest baseline.

Node order and randomness: nodes are numbered breadth-first within their
tree -- the root is 0, and each level's children follow all earlier nodes,
left before right, in the order of their parents. An honest tree has at most
2|P| - 1 nodes, since every leaf holds a prediction point, and its split
randomness is one table ``split_uniforms(rng, |P|)`` of shape (2|P| - 1, 5),
drawn from the tree's stream after its subsample and partition. Node ``i``
reads row ``i``: column 0 picks the branch (uniform iff u < delta), column 1
the uniform axis, 2 the redrawn axis, 3 the fallback axis and 4 the fallback
threshold. A choice among m options, counted in increasing axis or threshold
order, takes option min(floor(u * m), m - 1). The draws are addressed by
node, not consumed in visiting order, so a tree is the same whether it is
grown alone or in a block with others, at any block size or worker count.

Growth: ``grow_block`` fits a block of trees level by level. Each level
handles every frontier node of every tree at once: per axis, the points are
sorted by the int64 key ``(node << shift) + rank`` (ranks computed once per
training set by ``sorted_axes``), label prefix sums are taken within each
node's run by doubling steps, the prediction points left of each midpoint
come from one ``searchsorted``, and the split choice is made by masks over
(node, axis). A node's decision reads only its own points, in an order the
node fixes, so the block a tree is grown in never changes it. ``fit_honest``
and ``fit_greedy_cart`` are one-tree blocks.

Routing is axis-aligned with ties at the threshold going left
(x[axis] <= threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import TrainingSet
from .sampling import HonestyPartition, SubsampleDraw

HONEST = "honest"
CART = "cart"

# uniforms per node: branch, uniform axis, redrawn axis, fallback axis, fallback threshold
_UNIFORMS = 5


@dataclass(frozen=True)
class TreeConfig:
    gamma: float = 0.10  # minimum child fraction per split
    delta: float = 0.5  # probability of a uniformly random split axis
    mode: str = HONEST
    max_leaf_size: int = 5  # greedy CART stop rule

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError(f"gamma must be in (0, 0.5), got {self.gamma}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.mode not in (HONEST, CART):
            raise ValueError(f"mode must be {HONEST!r} or {CART!r}, got {self.mode!r}")
        if self.max_leaf_size < 1:
            raise ValueError(f"max_leaf_size must be >= 1, got {self.max_leaf_size}")


@dataclass(frozen=True)
class TreeModel:
    """Fitted tree as flat node arrays; node 0 is the root, feature -1 marks a leaf."""

    feature: np.ndarray  # (nodes,) int32, split axis or -1
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int32 child ids
    right: np.ndarray  # (nodes,) int32
    value: np.ndarray  # (nodes,) float64 leaf predictions
    pred_index: np.ndarray  # (nodes,) int32 training index behind a leaf, -1 for CART
    from_random: np.ndarray  # (nodes,) bool, split axis came from the uniform branch
    n_features: int
    config: TreeConfig
    subsample: SubsampleDraw
    partition: HonestyPartition | None = field(default=None)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


class GrownBlock(NamedTuple):
    """Packed node arrays of a block of trees, each tree contiguous and breadth-first."""

    feature: np.ndarray  # (N,) int32 split axis, -1 at leaves
    threshold: np.ndarray  # (N,) float64
    child: np.ndarray  # (N, 2) intp block-global [left, right] ids; a leaf's are its own id
    value: np.ndarray  # (N,) float64
    pred_index: np.ndarray  # (N,) int32, -1 for CART
    from_random: np.ndarray  # (N,) bool
    roots: np.ndarray  # (T,) intp


def tree_view(grown, lo: int, hi: int, n_features: int, config: TreeConfig,
              subsample: SubsampleDraw, partition: HonestyPartition | None) -> TreeModel:
    """``TreeModel`` of the tree owning packed nodes [lo, hi) of ``grown``, with local child ids.

    ``grown`` is anything with the packed node arrays: a ``GrownBlock`` or a forest.
    """
    leaf = grown.feature[lo:hi] < 0
    local = np.where(leaf[:, None], -1, grown.child[lo:hi] - lo).astype(np.int32)
    return TreeModel(
        feature=grown.feature[lo:hi],
        threshold=grown.threshold[lo:hi],
        left=local[:, 0],
        right=local[:, 1],
        value=grown.value[lo:hi],
        pred_index=grown.pred_index[lo:hi],
        from_random=grown.from_random[lo:hi],
        n_features=n_features,
        config=config,
        subsample=subsample,
        partition=partition,
    )


@dataclass(frozen=True)
class SortedAxes:
    """Each axis of a training set in increasing order, ties by training index."""

    x: np.ndarray  # (d, n) float64, row a = the sorted coordinates of axis a
    y: np.ndarray  # (d, n) float64, labels in that order
    rank: np.ndarray  # (d, n) int64, rank[a, i] = position of point i in row a


def sorted_axes(ts: TrainingSet) -> SortedAxes:
    order = np.argsort(ts.x, axis=0, kind="stable").T
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(ts.n), axis=1)
    return SortedAxes(np.take_along_axis(ts.x.T, order, axis=1), ts.y[order], rank)


def split_uniforms(rng: np.random.Generator, n_pred: int) -> np.ndarray:
    """An honest tree's split randomness: one row per node id it can have."""
    return rng.random((2 * n_pred - 1, _UNIFORMS))


def _pick(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Option min(floor(u * m), m - 1) of m."""
    return np.minimum((u * m).astype(np.intp), m - 1)


def _nth(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of the k-th (0-based) True entry of each row."""
    return np.argmax(np.cumsum(mask, axis=1) > k[:, None], axis=1)


def _balanced(left: np.ndarray, m: np.ndarray, gamma: float) -> np.ndarray:
    """Both children keep at least a gamma fraction of the node's m points."""
    return np.minimum(left, m - left) / m >= gamma


def _prefix_sums(values: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """Inclusive prefix sums within each run, by doubling steps inside the run.

    ``pos`` is each entry's position within its run and ``width`` bounds the
    run lengths; an entry's sum reads its own run only, in an order fixed by
    its position, so it never depends on the runs around it.
    """
    out = values.copy()
    step = 1
    while step < width:
        out[step:] += np.where(pos[step:] >= step, out[:-step], 0.0)
        step *= 2
    return out


def _axis_keys(node: np.ndarray, pt: np.ndarray, rank: np.ndarray, shift: int) -> np.ndarray:
    """Sorted keys ``(node << shift) + rank`` of points on one axis (2**shift > n)."""
    return np.sort((node << shift) + rank[pt])


def _decode(keys: np.ndarray, shift: int, start: np.ndarray):
    """Node, rank and position within the node of sorted keys; ``start`` is where each node's run begins."""
    node = keys >> shift
    return node, keys & ((1 << shift) - 1), np.arange(keys.size) - start[node]


def _first_max(g: np.ndarray, score: np.ndarray, n_nodes: int) -> np.ndarray:
    """Index of each node's first maximum among candidates sorted by node, then threshold.

    The first maximum is the node's lowest threshold among tied scores.
    """
    top = np.full(n_nodes, -np.inf)
    np.maximum.at(top, g, score)
    w = np.flatnonzero(score == top[g])
    gw = g[w]
    first = np.ones(w.size, dtype=bool)
    first[1:] = gw[1:] != gw[:-1]
    return w[first]


def _level(ts, axes, cfg, n_nodes, points, u):
    """Split decisions for one level's frontier of ``n_nodes`` nodes.

    ``points`` holds (node, training index) arrays: structure points first,
    then, for honest trees, prediction points. Returns per node whether it
    splits, the axis, threshold and from_random of a split, and the value
    and training index of a leaf.
    """
    n, d = ts.x.shape
    shift = n.bit_length()
    honest = u is not None
    every = np.arange(n_nodes)
    s_node, s_pt = points[0]
    s_count = np.bincount(s_node, minlength=n_nodes)
    s_start = np.cumsum(s_count) - s_count
    width = max(int(s_count.max()), 1)
    if honest:
        p_node, p_pt = points[1]
        p_count = np.bincount(p_node, minlength=n_nodes)
        p_start = np.cumsum(p_count) - p_count
        m = s_count + p_count
        p_keys = [_axis_keys(p_node, p_pt, axes.rank[a], shift) for a in range(d)]
    best = np.full((n_nodes, d), -np.inf)
    best_thr = np.zeros((n_nodes, d))
    s_keys = []
    for a in range(d):
        keys = _axis_keys(s_node, s_pt, axes.rank[a], shift)
        s_keys.append(keys)
        if not keys.size:
            continue
        node, r, pos = _decode(keys, shift, s_start)
        xs = axes.x[a, r]
        csum = _prefix_sums(axes.y[a, r], pos, width)
        # an empty node reads some other entry, but it has no candidates
        total = csum[np.maximum(s_start + s_count - 1, 0)]
        c = np.flatnonzero((xs[:-1] < xs[1:]) & (node[:-1] == node[1:]))
        g, n_left = node[c], pos[c] + 1
        if honest:
            # the points at or below t are exactly the ranks below rank_t
            rank_t = np.searchsorted(axes.x[a], 0.5 * (xs[c] + xs[c + 1]), side="right")
            left_p = np.searchsorted(p_keys[a], (g << shift) + rank_t) - p_start[g]
            ok = (left_p >= 1) & (left_p < p_count[g]) & _balanced(n_left + left_p, m[g], cfg.gamma)
            c, g, n_left = c[ok], g[ok], n_left[ok]
        elif a == 0:
            node_total = total
        lsum = csum[c]
        rsum = total[g] - lsum
        score = lsum * lsum / n_left + rsum * rsum / (s_count[g] - n_left)
        w = _first_max(g, score, n_nodes)
        best[g[w], a] = score[w]
        best_thr[g[w], a] = 0.5 * (xs[c[w]] + xs[c[w] + 1])
    axis = best.argmax(axis=1)

    if not honest:
        labels = ts.y[s_pt]
        lo = np.full(n_nodes, np.inf)
        hi = np.full(n_nodes, -np.inf)
        np.minimum.at(lo, s_node, labels)
        np.maximum.at(hi, s_node, labels)
        split = (s_count > cfg.max_leaf_size) & (lo < hi) & (best[every, axis] > node_total ** 2 / s_count)
        no_pred = np.full(n_nodes, -1)
        return split, axis, best_thr[every, axis], np.zeros(n_nodes, dtype=bool), node_total / s_count, no_pred

    has = best > -np.inf
    uniform = u[:, 0] < cfg.delta
    drawn = _pick(u[:, 1], d)
    others = has.copy()
    others[every, drawn] = False
    redrawn = _nth(others, _pick(u[:, 2], others.sum(axis=1)))
    axis = np.where(uniform, np.where(has[every, drawn], drawn, redrawn), axis)
    thr = best_thr[every, axis]
    split = has.any(axis=1)
    from_random = uniform
    need = ~split
    if need.any():
        # prediction-coordinate fallback for the nodes no structure midpoint splits
        fb_thr, fb_count = [], []
        for a in range(d):
            node, r, pos = _decode(p_keys[a], shift, p_start)
            xp = axes.x[a, r]
            c = np.flatnonzero((xp[:-1] < xp[1:]) & (node[:-1] == node[1:]) & need[node[:-1]])
            g = node[c]
            t = 0.5 * (xp[c] + xp[c + 1])
            rank_t = np.searchsorted(axes.x[a], t, side="right")
            left_s = np.searchsorted(s_keys[a], (g << shift) + rank_t) - s_start[g]
            ok = _balanced(pos[c] + 1 + left_s, m[g], cfg.gamma)
            fb_thr.append(t[ok])
            fb_count.append(np.bincount(g[ok], minlength=n_nodes))
        # admissible midpoints run by (axis, node), thresholds increasing
        fb_thr = np.concatenate(fb_thr)
        fb_count = np.concatenate(fb_count)
        fb_start = (np.cumsum(fb_count) - fb_count).reshape(d, n_nodes).T
        fb_count = fb_count.reshape(d, n_nodes).T
        eligible = fb_count > 0
        n_eligible = eligible.sum(axis=1)
        fb = np.flatnonzero(need & (n_eligible > 0))
        fb_axis = _nth(eligible[fb], _pick(u[fb, 3], n_eligible[fb]))
        k = _pick(u[fb, 4], fb_count[fb, fb_axis])
        thr[fb] = fb_thr[fb_start[fb, fb_axis] + k]
        axis[fb] = fb_axis
        from_random = uniform.copy()
        from_random[fb] = True
        split[fb] = True
    leaf_pred = np.full(n_nodes, n)
    np.minimum.at(leaf_pred, p_node, p_pt)
    return split, axis, thr, from_random, ts.y[leaf_pred], leaf_pred


def grow_block(ts: TrainingSet, axes: SortedAxes, cfg: TreeConfig, structure: np.ndarray,
               prediction: np.ndarray | None = None, uniforms: np.ndarray | None = None) -> GrownBlock:
    """Grow one tree per row of ``structure``, all of them breadth-first together.

    Honest trees pass (T, |S|) structure and (T, |P|) prediction index rows
    and their (T, 2|P| - 1, 5) uniform tables; greedy CART trees pass their
    (T, s) subsample rows as ``structure`` alone.
    """
    honest = prediction is not None
    n_trees = structure.shape[0]
    cap = 2 * (prediction if honest else structure).shape[1] - 1
    feature = np.full(n_trees * cap, -1, dtype=np.int32)
    threshold = np.zeros(n_trees * cap)
    value = np.zeros(n_trees * cap)
    pred_index = np.full(n_trees * cap, -1, dtype=np.int32)
    from_random = np.zeros(n_trees * cap, dtype=bool)
    left = np.zeros(n_trees * cap, dtype=np.intp)
    size = np.ones(n_trees, dtype=np.intp)

    tree_of = np.arange(n_trees)
    node_id = np.zeros(n_trees, dtype=np.intp)
    points = [(np.repeat(tree_of, rows.shape[1]), rows.ravel())
              for rows in ((structure, prediction) if honest else (structure,))]
    while tree_of.size:
        slot = tree_of * cap + node_id
        u = uniforms[tree_of, node_id] if honest else None
        split, axis, thr, rand, leaf_value, leaf_pred = _level(ts, axes, cfg, tree_of.size, points, u)
        leaf = slot[~split]
        value[leaf] = leaf_value[~split]
        pred_index[leaf] = leaf_pred[~split]
        inner = slot[split]
        feature[inner] = axis[split]
        threshold[inner] = thr[split]
        from_random[inner] = rand[split]
        # a tree's new nodes follow its existing ones, in the order of their parents
        parent_tree = tree_of[split]
        per_tree = np.bincount(parent_tree, minlength=n_trees)
        k = np.arange(parent_tree.size) - (np.cumsum(per_tree) - per_tree)[parent_tree]
        left_id = size[parent_tree] + 2 * k
        left[inner] = left_id
        size += 2 * per_tree
        tree_of = np.repeat(parent_tree, 2)
        node_id = (left_id[:, None] + np.arange(2)).ravel()
        new_node = np.cumsum(split) - 1
        moved = []
        for node, pt in points:
            keep = split[node]
            node, pt = node[keep], pt[keep]
            go_right = ~(ts.x[pt, axis[node]] <= thr[node])
            moved.append((2 * new_node[node] + go_right, pt))
        points = moved

    kept = (np.arange(cap) < size[:, None]).ravel()
    roots = np.cumsum(size) - size
    feature = feature[kept]
    ids = np.arange(feature.size)
    left = left[kept] + np.repeat(roots, size)
    child = np.where((feature >= 0)[:, None], left[:, None] + np.arange(2), ids[:, None])
    return GrownBlock(feature, threshold[kept], child, value[kept], pred_index[kept], from_random[kept], roots)


def fit_honest(
    ts: TrainingSet,
    draw: SubsampleDraw,
    partition: HonestyPartition,
    cfg: TreeConfig,
    rng: np.random.Generator,
) -> TreeModel:
    """Grow an honest regular tree on the given subsample and partition.

    Draws the tree's uniform table from ``rng``, exactly as forest training
    does after the same subsample and partition draws.
    """
    if draw.s < 2:
        raise ValueError(f"honest trees need a subsample of size >= 2, got {draw.s}")
    if partition.prediction.size < 1:
        raise ValueError("empty prediction set")
    if draw.n != ts.n:
        raise ValueError(f"draw over n={draw.n} does not match training set n={ts.n}")
    uniforms = split_uniforms(rng, partition.prediction.size)
    grown = grow_block(ts, sorted_axes(ts), cfg, partition.structure[None], partition.prediction[None], uniforms[None])
    return tree_view(grown, 0, grown.feature.size, ts.d, cfg, draw, partition)


def fit_greedy_cart(
    ts: TrainingSet,
    draw: SubsampleDraw,
    cfg: TreeConfig,
    rng: np.random.Generator | None = None,
) -> TreeModel:
    """Grow a greedy CART-style tree (deterministic; rng kept for interface parity)."""
    if draw.n != ts.n:
        raise ValueError(f"draw over n={draw.n} does not match training set n={ts.n}")
    grown = grow_block(ts, sorted_axes(ts), cfg, draw.indices[None])
    return tree_view(grown, 0, grown.feature.size, ts.d, cfg, draw, None)


def _leaf_of(tree: TreeModel, xq: np.ndarray) -> int:
    nid = 0
    feature = tree.feature
    while feature[nid] >= 0:
        if xq[feature[nid]] <= tree.threshold[nid]:
            nid = tree.left[nid]
        else:
            nid = tree.right[nid]
    return nid


def predict(tree: TreeModel, xq) -> float:
    """Prediction of the unique leaf containing xq (ties at thresholds go left)."""
    xq = np.asarray(xq, dtype=np.float64).reshape(-1)
    if xq.size != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {xq.size}")
    return float(tree.value[_leaf_of(tree, xq)])


def predict_batch(tree: TreeModel, xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {xs.shape[1]}")
    return np.array([tree.value[_leaf_of(tree, row)] for row in xs])


def selected_index(tree: TreeModel, xq) -> int:
    """Training index i*(x) behind the leaf prediction (honest trees only)."""
    if tree.config.mode != HONEST:
        raise ValueError("selected_index is defined for honest trees only")
    xq = np.asarray(xq, dtype=np.float64).reshape(-1)
    if xq.size != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {xq.size}")
    return int(tree.pred_index[_leaf_of(tree, xq)])


def is_pnn(xq, i: int, candidates, ts: TrainingSet) -> bool:
    """True iff no other candidate lies in the closed rectangle spanned by xq and X_i."""
    xq = np.asarray(xq, dtype=np.float64).reshape(-1)
    if xq.size != ts.d:
        raise ValueError(f"expected {ts.d} features, got {xq.size}")
    candidates = np.asarray(list(candidates), dtype=np.int64)
    if i not in candidates:
        raise ValueError(f"index {i} not among the candidates")
    xi = ts.x[i]
    lo = np.minimum(xq, xi)
    hi = np.maximum(xq, xi)
    others = candidates[candidates != i]
    if others.size == 0:
        return True
    pts = ts.x[others]
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    return not bool(inside.any())


@dataclass(frozen=True)
class RegularityReport:
    """Per-split child fractions and per-leaf prediction counts of an honest tree."""

    split_axes: np.ndarray  # (splits,) int32
    split_from_random: np.ndarray  # (splits,) bool
    split_min_fraction: np.ndarray  # (splits,) float64, min child fraction
    splits_ok: np.ndarray  # (splits,) bool, min fraction >= gamma
    leaf_pred_counts: np.ndarray  # (leaves,) int64
    leaves_ok: np.ndarray  # (leaves,) bool, exactly one prediction point
    gamma: float

    @property
    def passed(self) -> bool:
        return bool(self.splits_ok.all() and self.leaves_ok.all())


def validate_regularity(tree: TreeModel, ts: TrainingSet) -> RegularityReport:
    """Audit child fractions and leaf occupancy by re-routing the subsample."""
    if tree.config.mode != HONEST or tree.partition is None:
        raise ValueError("regularity validation is defined for honest trees only")
    gamma = tree.config.gamma
    axes, rand, min_frac, ok = [], [], [], []
    leaf_counts, leaves_ok = [], []
    stack = [(0, tree.subsample.indices, tree.partition.prediction)]
    while stack:
        nid, idx, pidx = stack.pop()
        axis = int(tree.feature[nid])
        if axis < 0:
            leaf_counts.append(pidx.size)
            leaves_ok.append(
                pidx.size == 1
                and int(tree.pred_index[nid]) == int(pidx[0])
                and tree.value[nid] == ts.y[int(pidx[0])]
            )
            continue
        thr = tree.threshold[nid]
        go_left = ts.x[idx, axis] <= thr
        p_left = ts.x[pidx, axis] <= thr
        n_left = int(np.count_nonzero(go_left))
        mf = min(n_left, idx.size - n_left) / idx.size
        axes.append(axis)
        rand.append(bool(tree.from_random[nid]))
        min_frac.append(mf)
        ok.append(mf >= gamma)
        stack.append((int(tree.right[nid]), idx[~go_left], pidx[~p_left]))
        stack.append((int(tree.left[nid]), idx[go_left], pidx[p_left]))
    return RegularityReport(
        split_axes=np.asarray(axes, dtype=np.int32),
        split_from_random=np.asarray(rand, dtype=bool),
        split_min_fraction=np.asarray(min_frac, dtype=np.float64),
        splits_ok=np.asarray(ok, dtype=bool),
        leaf_pred_counts=np.asarray(leaf_counts, dtype=np.int64),
        leaves_ok=np.asarray(leaves_ok, dtype=bool),
        gamma=gamma,
    )
