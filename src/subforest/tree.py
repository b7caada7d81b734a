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
    structure coordinates a < b on the axis, or a where 0.5 * (a + b)
    rounds onto b (adjacent doubles), so a routes left and b right;
  * a candidate is admissible iff each child keeps at least a ``gamma``
    fraction of the node's subsample points (child count / node count >=
    gamma, for both children) and at least one prediction point; the
    admissible candidate with the best variance reduction wins, ties going
    to the lowest threshold;
  * when the drawn axis has no admissible candidate, the axis is redrawn
    uniformly among axes that do; if no axis does but the prediction points
    differ, the node is split at a uniformly chosen admissible midpoint of
    the prediction coordinates, on a uniformly chosen axis that has one;
  * a node that no admissible midpoint splits is a leaf predicting the
    label of its lowest-indexed prediction point: it has one prediction
    point, duplicate feature vectors, or (rarely, about one tree in 10^4)
    prediction points whose every separating midpoint breaks the gamma
    floor. The leaf stores only that label; routing recovers the point.
    ``validate_regularity`` accepts such a multi-point leaf only after
    checking that no structure or prediction-coordinate midpoint on any axis
    is admissible for it.

Every split records where its axis came from in ``split_kind``, indexed
into ``SPLIT_KINDS``: 0 greedy (the best axis; every CART split), 1 the
uniform axis, 2 the redrawn axis, 3 the prediction-coordinate fallback.
Leaves record 0. Each node stores one float, ``value``: a split's
threshold or a leaf's prediction, since no node reads both.

The greedy CART mode uses all subsample labels for both splitting and leaf
means, stopping at ``max_leaf_size``; it exists as the dishonest baseline.

Node order and randomness: nodes are numbered breadth-first within their
tree -- the root is 0, and each level's children follow all earlier nodes,
left before right, in the order of their parents. So child ids need not be
stored: the split at local position p with k splits before it has the
children 2k + 1 and 2k + 2 (``left_children``), a tree of i splits has
2i + 1 nodes, and p <= 2k at every split. An honest tree has at most
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
training set by ``sorted_axes``), so every axis lays them out in the same
node runs. What depends only on the runs is computed once per level and
shared by the axes: each sorted slot's node and position in its run, the run
starts that the doubling steps of the label prefix sums reset at, and the
left and right counts of a cut after each slot. The sorted keys, coordinates
and sums go into buffers the block allocates once, for its root level, the
largest. The split choice is made over index arrays of candidates, then over
(node, axis). A structure midpoint t counts the node's prediction points at
or below it with no float search (``_at_or_below``): one integer search of
the candidate's structure key among the prediction keys finds the points
ranked below it, and a walk steps over the ones after it while x <= t, a
prefix since they are sorted by x; it takes a few passes over the candidates
still moving. The prediction-coordinate fallback counts structure points the
same way, reading only the runs of the nodes that need it. Routing a level's
splits settles every child whose stop rule already holds (one prediction
point in an honest tree, at most ``max_leaf_size`` points in a CART tree):
it becomes a leaf at once and its points leave the frontier, so no later
level sorts, sums or searches them. A node's decision reads only its own
points, in an order the node fixes, and the prefix sums pad with -0.0, the
exact additive identity, so the block a tree is grown in never changes it,
down to the sign of a zero.

Routing is axis-aligned with ties at the threshold going left
(x[axis] <= threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import TrainingSet
from .sampling import row_members

HONEST = "honest"
CART = "cart"

# uniforms per node: branch, uniform axis, redrawn axis, fallback axis, fallback threshold
UNIFORMS = 5

# split provenance, by split_kind code
SPLIT_KINDS = ("greedy", "uniform", "redrawn", "fallback")

# node ids compared and set together: bounds the temporaries of deriving
# child ids independently of the forest's node count
_ID_BLOCK = 1 << 16


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


class GrownBlock(NamedTuple):
    """Packed node arrays of a block of trees, each tree contiguous and breadth-first."""

    feature: np.ndarray  # (N,) int32 split axis, -1 at leaves
    value: np.ndarray  # (N,) float64 a split's threshold, a leaf's prediction
    split_kind: np.ndarray  # (N,) uint8 index into SPLIT_KINDS, 0 at leaves
    roots: np.ndarray  # (T,) intp


def left_children(feature: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Left child id of every split of packed breadth-first trees; a leaf maps to itself.

    Tree b's split with k splits before it in the tree has children
    ``roots[b] + 1 + 2k`` and the id after that. Raises ``ValueError``
    unless every tree has 2 * splits + 1 nodes and every split's left child
    lies after it, which makes each tree one binary tree.
    """
    split = feature >= 0
    # tree t's split with c splits up to and including it in the forest has
    # k = c - 1 - (root - t) / 2 splits before it in its tree when every
    # earlier tree has 2 * splits + 1 nodes, so its left child is
    # root + 1 + 2k = 2c + r - 2, with r = t + 1 roots up to it: one cumsum,
    # in place, of 2 * split + [node is a root]
    left = split.astype(np.intp)
    left *= 2
    left[roots] += 1
    np.cumsum(left, out=left)
    # 2c + r at each tree's last node counts the splits up to it
    ends = np.append(roots[1:], left.size) - 1
    splits = np.diff((left[ends] - np.arange(1, roots.size + 1)) // 2, prepend=0)
    if np.any(np.diff(np.append(roots, left.size)) != 2 * splits + 1):
        raise ValueError("every tree needs 2 * splits + 1 nodes")
    left -= 2
    for lo in range(0, left.size, _ID_BLOCK):
        at = slice(lo, lo + _ID_BLOCK)
        ids = np.arange(lo, min(lo + _ID_BLOCK, left.size))
        if np.any(split[at] & (left[at] <= ids)):
            raise ValueError("every split's children must lie after it inside its tree")
        np.copyto(left[at], ids, where=~split[at])
    return left


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


def split_uniforms(rng: np.random.Generator, n_pred: int, out: np.ndarray | None = None) -> np.ndarray:
    """An honest tree's split randomness: one row per node id it can have, drawn into ``out`` if given."""
    return rng.random((2 * n_pred - 1, UNIFORMS), out=out)


def _pick(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Option min(floor(u * m), m - 1) of m."""
    return np.minimum((u * m).astype(np.intp), m - 1)


def _nth(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of the k-th (0-based) True entry of each row."""
    return np.argmax(np.cumsum(mask, axis=1) > k[:, None], axis=1)


def _balanced(left: np.ndarray, m: np.ndarray, gamma: float) -> np.ndarray:
    """Both children keep at least a gamma fraction of the node's m points."""
    return np.minimum(left, m - left) / m >= gamma


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Threshold between sorted coordinates a < b: 0.5 * (a + b), or a where that rounds onto b.

    Routing (x <= t) then sends a left and b right, as the counts assume.
    """
    t = a + b
    t *= 0.5
    np.copyto(t, a, where=t == b)
    return t


def _runs(count: np.ndarray):
    """Run, position within the run, and run start of every entry, for runs of ``count`` entries laid end to end."""
    start = np.cumsum(count) - count
    run = np.repeat(np.arange(count.size), count)
    return run, np.arange(run.size) - start[run], start


def _resets(pos: np.ndarray, width: int) -> list:
    """Per doubling step 2**k < ``width`` (the longest run), the entries of ``pos[2**k:]`` below 2**k."""
    return [np.flatnonzero(pos[1 << k:] < 1 << k) for k in range((width - 1).bit_length())]


def _prefix_sums(values: np.ndarray, resets: list, buf: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums within each run, in place, by doubling steps inside the run.

    Step 2**k adds the partial sum 2**k entries back, or -0.0, the exact
    additive identity, where that lies in an earlier run (``resets[k]``). An
    entry's sum reads its own run only, in an order fixed by its position, so
    it never depends on the runs around it. ``buf`` is scratch as long as ``values``.
    """
    for k, reset in enumerate(resets):
        shifted = buf[:values.size - (1 << k)]
        np.copyto(shifted, values[:-(1 << k)])
        shifted[reset] = -0.0
        values[1 << k:] += shifted
    return values


def _sort_axes(axes: SortedAxes, node: np.ndarray, pt: np.ndarray, shift: int, work, rank: np.ndarray) -> tuple:
    """Per axis, the sorted keys ``(node << shift) + rank`` of points ``pt`` and their coordinates,
    written into the (d, >= m) buffers ``work``; ``rank`` is (>= m,) int64 scratch."""
    keys, x = (w[:, :pt.size] for w in work)
    rank = rank[:pt.size]
    base = node << shift
    for a in range(keys.shape[0]):
        # the indices are in range: "clip" only spares take a buffered copy
        axes.rank[a].take(pt, out=keys[a], mode="clip")
        keys[a] += base
        keys[a].sort()
        axes.x[a].take(np.bitwise_and(keys[a], (1 << shift) - 1, out=rank), out=x[a], mode="clip")
    return keys, x


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


def _at_or_below(keys, x, end, at, g, t):
    """Per candidate, the position past the points at or below ``t`` of node ``g`` in ``keys``.

    ``keys`` are one axis's sorted keys of a point set, ``x`` their
    coordinates and ``end`` where each node's run ends. A candidate's own
    key ``at``, of the other set and in node ``g``, lies at or below ``t``,
    so every point of ``keys`` before it does too. The points after it are
    sorted by x, so those at or below ``t`` follow it directly: one integer
    search finds the start, and a walk steps over them, a few passes, each
    over the candidates still moving.
    """
    i = np.searchsorted(keys, at)
    if not keys.size:
        return i
    end = end[g]
    # a position past the last point reads the last one, but fails i < end
    live = np.flatnonzero((i < end) & (x.take(i, mode="clip") <= t))
    while live.size:
        i[live] += 1
        j = i[live]
        live = live[(j < end[live]) & (x.take(j, mode="clip") <= t[live])]
    return i


def _level(ts, axes, cfg, n_nodes, points, u, work, sums, rank):
    """Split decisions for one level's frontier of ``n_nodes`` nodes.

    ``points`` holds (node, training index) arrays: structure points first,
    then, for honest trees, prediction points. Returns per node whether it
    splits, the axis and split kind of a split, and its value: a split's
    threshold or a leaf's prediction.
    """
    n, d = ts.x.shape
    shift = n.bit_length()
    honest = u is not None
    every = np.arange(n_nodes)
    s_node, s_pt = points[0]
    s_count = np.bincount(s_node, minlength=n_nodes)
    # sorted by (node, rank), every axis lays the points out in the same node
    # runs: what depends only on the runs is computed once per level
    run, pos, s_start = _runs(s_count)
    s_end = s_start + s_count
    resets = _resets(pos, max(int(s_count.max()), 1))
    same = run[:-1] == run[1:]
    n_left = pos + 1.0
    # a run's last entry is no candidate; 1 keeps its score finite
    n_right = np.maximum(s_count[run] - n_left, 1.0)
    # an empty node reads some other entry, but it has no candidates
    last = np.maximum(s_end - 1, 0)
    if honest:
        p_node, p_pt = points[1]
        p_count = np.bincount(p_node, minlength=n_nodes)
        p_run, p_pos, p_start = _runs(p_count)
        p_end = p_start + p_count
        m = s_count + p_count
        p_keys, p_x = _sort_axes(axes, p_node, p_pt, shift, work[1], rank)
    best = np.full((n_nodes, d), -np.inf)
    best_thr = np.zeros((n_nodes, d))
    s_keys, s_x = _sort_axes(axes, s_node, s_pt, shift, work[0], rank)
    csum, buf, sq = sums[:, :s_pt.size]
    r = rank[:s_pt.size]
    for a in range(d if s_pt.size else 0):
        xs = s_x[a]
        np.bitwise_and(s_keys[a], (1 << shift) - 1, out=r)
        _prefix_sums(axes.y[a].take(r, out=csum, mode="clip"), resets, buf)
        total = csum[last]
        # every entry's score as the last point left of a cut: lsum²/n_left + rsum²/n_right
        rsum = np.take(total, run, out=buf)
        rsum -= csum
        rsum *= rsum
        rsum /= n_right
        score = np.multiply(csum, csum, out=sq)
        score /= n_left
        score += rsum
        c = np.flatnonzero((xs[:-1] < xs[1:]) & same)
        g = run[c]
        if honest:
            t = _midpoint(xs[c], xs[c + 1])
            left_p = _at_or_below(p_keys[a], p_x[a], p_end, s_keys[a][c], g, t) - p_start[g]
            ok = (left_p >= 1) & (left_p < p_count[g]) & _balanced(n_left[c] + left_p, m[g], cfg.gamma)
            ok = np.flatnonzero(ok)
            c, g = c[ok], g[ok]
        elif a == 0:
            node_total = total
        score = score[c]
        w = _first_max(g, score, n_nodes)
        c = c[w]
        best[g[w], a] = score[w]
        best_thr[g[w], a] = _midpoint(xs[c], xs[c + 1])
    axis = best.argmax(axis=1)

    if not honest:
        labels = ts.y[s_pt]
        lo = np.full(n_nodes, np.inf)
        hi = np.full(n_nodes, -np.inf)
        np.minimum.at(lo, s_node, labels)
        np.maximum.at(hi, s_node, labels)
        split = (s_count > cfg.max_leaf_size) & (lo < hi) & (best[every, axis] > node_total ** 2 / s_count)
        value = np.where(split, best_thr[every, axis], node_total / s_count)
        return split, axis, np.zeros(n_nodes, dtype=np.uint8), value

    has = best > -np.inf
    uniform = u[:, 0] < cfg.delta
    drawn = _pick(u[:, 1], d)
    others = has.copy()
    others[every, drawn] = False
    redrawn = _nth(others, _pick(u[:, 2], others.sum(axis=1)))
    axis = np.where(uniform, np.where(has[every, drawn], drawn, redrawn), axis)
    thr = best_thr[every, axis]
    split = has.any(axis=1)
    kind = np.where(uniform, np.where(has[every, drawn], 1, 2), 0).astype(np.uint8)
    need = ~split
    if need.any():
        # prediction-coordinate fallback for the nodes no structure midpoint
        # splits, read over those nodes' runs only
        sel = np.flatnonzero(need[p_run])
        g_sel = p_run[sel]
        same = g_sel[:-1] == g_sel[1:]
        fb_thr, fb_count = [], []
        for a in range(d):
            xp = p_x[a][sel]
            j = np.flatnonzero((xp[:-1] < xp[1:]) & same)
            c, g = sel[j], g_sel[j]
            t = _midpoint(xp[j], xp[j + 1])
            left_s = _at_or_below(s_keys[a], s_x[a], s_end, p_keys[a][c], g, t) - s_start[g]
            ok = np.flatnonzero(_balanced(p_pos[c] + 1 + left_s, m[g], cfg.gamma))
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
        kind[fb] = 3
        split[fb] = True
    # a leaf predicts the label of its lowest-indexed prediction point
    leaf_pred = np.full(n_nodes, n)
    np.minimum.at(leaf_pred, p_node, p_pt)
    np.copyto(thr, ts.y[leaf_pred], where=~split)
    return split, axis, kind, thr


def _decided(ts, axes, cfg, points, n_nodes):
    """Routed children whose stop rule already holds, with their leaf values.

    An honest child with exactly one prediction point holds that point's
    label. A CART child with at most ``max_leaf_size`` points holds their
    label mean, its sum taken like ``_level``'s node totals: prefix sums
    within the node in axis-0 key order. ``points`` are the
    children's (node, training index) arrays, as ``_level`` takes them.
    """
    node, pt = points[-1]
    count = np.bincount(node, minlength=n_nodes)
    if len(points) > 1:
        done = count == 1
        leaf_pred = np.empty(n_nodes, dtype=pt.dtype)
        leaf_pred[node] = pt  # read only where the node has one point
        return done, ts.y[leaf_pred[done]]
    done = count <= cfg.max_leaf_size
    here = np.flatnonzero(done[node])
    node = (np.cumsum(done) - 1)[node[here]]
    count = count[done]
    _, pos, start = _runs(count)
    shift = ts.n.bit_length()
    keys = np.sort((node << shift) + axes.rank[0, pt[here]])
    csum = axes.y[0].take(keys & ((1 << shift) - 1))
    total = _prefix_sums(csum, _resets(pos, int(count.max(initial=1))), np.empty_like(csum))[start + count - 1]
    return done, total / count


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
    value = np.empty(n_trees * cap)
    split_kind = np.zeros(n_trees * cap, dtype=np.uint8)
    size = np.ones(n_trees, dtype=np.intp)

    tree_of = np.arange(n_trees)
    node_id = np.zeros(n_trees, dtype=np.intp)
    sets = (structure, prediction) if honest else (structure,)
    points = [(np.repeat(tree_of, rows.shape[1]), rows.ravel()) for rows in sets]
    # working arrays sized for the root level, the largest: every level writes
    # into them rather than fault in fresh pages
    work = [(np.empty((ts.d, rows.size), dtype=np.int64), np.empty((ts.d, rows.size))) for rows in sets]
    sums = np.empty((3, structure.size))
    rank = np.empty(max(rows.size for rows in sets), dtype=np.int64)
    while tree_of.size:
        slot = tree_of * cap + node_id
        u = uniforms[tree_of, node_id] if honest else None
        split, axis, kind, node_value = _level(ts, axes, cfg, tree_of.size, points, u, work, sums, rank)
        value[slot] = node_value
        inner = slot[split]
        feature[inner] = axis[split]
        split_kind[inner] = kind[split]
        # a tree's new nodes follow its existing ones, in the order of their parents
        parent_tree = tree_of[split]
        per_tree = np.bincount(parent_tree, minlength=n_trees)
        k = np.arange(parent_tree.size) - (np.cumsum(per_tree) - per_tree)[parent_tree]
        left_id = size[parent_tree] + 2 * k
        size += 2 * per_tree
        tree_of = np.repeat(parent_tree, 2)
        node_id = (left_id[:, None] + np.arange(2)).ravel()
        new_node = np.cumsum(split) - 1
        moved = []
        for node, pt in points:
            keep = np.flatnonzero(split[node])
            node, pt = node[keep], pt[keep]
            go_right = ~(ts.x[pt, axis[node]] <= node_value[node])
            moved.append((2 * new_node[node] + go_right, pt))
        # a child whose stop rule already holds is a leaf now, and leaves the frontier
        done, leaf_value = _decided(ts, axes, cfg, moved, tree_of.size)
        value[(tree_of * cap + node_id)[done]] = leaf_value
        stay = ~done
        renumber = np.cumsum(stay) - 1
        points = []
        for node, pt in moved:
            keep = np.flatnonzero(stay[node])
            points.append((renumber[node[keep]], pt[keep]))
        tree_of, node_id = tree_of[stay], node_id[stay]

    kept = (np.arange(cap) < size[:, None]).ravel()
    roots = np.cumsum(size) - size
    return GrownBlock(feature[kept], value[kept], split_kind[kept], roots)


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


def validate_regularity(forest, ts: TrainingSet) -> RegularityReport:
    """Audit child fractions and leaf occupancy of every tree of an honest forest.

    Routes every tree's subsample down its tree level by level, all trees at
    once. A split passes when both children keep at least a gamma fraction
    of its points. A leaf passes when its value is the label of the lowest
    prediction point routed to it, and it holds exactly one prediction point
    or, failing that, at least two that no admissible midpoint could separate
    (the split rule in the module docstring).
    """
    cfg = forest.config.tree
    if cfg.mode != HONEST:
        raise ValueError("regularity validation is defined for honest trees only")
    n, gamma = ts.n, cfg.gamma
    b, s = forest.subsample_indices.shape
    pt = forest.subsample_indices.ravel()
    is_pred = row_members(forest.prediction_indices, forest.subsample_indices, n).ravel()
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
