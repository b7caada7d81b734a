"""Subsampled forest: B independently trained trees plus resampling records.

Tree b draws its subsample, honesty partition, and split randomness from a
stream derived from (seed, b), so the fitted model is a function of the
resolved config alone -- training with 1 or many workers yields identical
trees. Forest predictions are means over per-tree outputs taken in tree
order with numpy's pairwise summation, which keeps the reduction
deterministic as well.

Training grows each worker's range of trees in blocks of at most
``_TREE_BLOCK``. ``_fit_block`` draws each tree's randomness from the
tree's own stream (its docstring gives the layout), builds the block's
subsamples and partitions together (``sampling.draw_block`` and
``partition_block``, one swap loop over all rows), and ``tree.grow_block``
grows the block level by level. ``fit_subsamples``, which the exact
oracles use, grows its given subsamples through the same function. A tree
does not depend on its block, so blocks and worker ranges are a schedule,
not part of the model. Worker ranges go out through ``fan_out``, which imports
the process pool (``concurrent.futures`` and ``multiprocessing``, 12-19 ms)
inside the call and only with more than one worker, so a serial ``train``,
a prediction and an import of the CLI never load it.

The packed arrays are the forest: ``train`` concatenates the grown blocks'
node arrays once, and traversal, the variance estimate, the regularity
audit and the model file all read those arrays, in the dtypes
``PACKED_DTYPES`` declares for memory and file alike. A node is 13 bytes:
its split axis (-1 at a leaf), one float64 ``value`` that is a split's
threshold or a leaf's prediction, and one byte of split provenance. Which
prediction point an honest leaf holds is not stored: routing the tree's
subsample recovers it (``tree.validate_regularity``). Tree b owns the
nodes ``roots[b]`` up to the next root, numbered breadth-first, so child
ids are not stored: the construction check derives them
(``tree.left_children``) into ``ForestModel.left``, which traversal and the
audit read. The derivation checks what makes it safe for any input: each
tree has 2 * splits + 1 nodes, and each split's left child lies after it,
so every node but a root is the child of exactly one split and a walk from
any root ends at a leaf. Beyond ``left`` itself it builds one bool split
mask of the forest's length and compares ids in blocks, so loading a model
holds little more than the model.

``predict_per_tree`` finds each (tree, query) leaf by one of two traversals,
which return the same copied leaf values bit for bit:

* The level walk moves bounded blocks of (tree, query) pairs one level down
  per numpy pass: about eight passes per level, O(B*K*depth) in all. Once
  most of a block's pairs have reached their leaves, it keeps the rest by
  one index array and ``take``, which is several times cheaper than
  picking each array by a boolean mask.
* The leaf bitmask (QuickScorer, Lucchese et al., SIGIR 2015) numbers each
  tree's leaves left to right and gives every internal node a uint64 word
  that clears the leaves of its left subtree. A query's leaf is the lowest
  bit left after ANDing the words of every node that sends it right. Per
  chunk of queries, each feature column is sorted and each query ranked as
  #{x < x_q}, each threshold as #{x <= t}; a (trees, d, queries + 1) table,
  capped near ``_TABLE_WORDS`` words per block of trees, holds the AND of
  the words at or below each rank, so a (tree, query) word is d gathers and
  ANDs. That costs O(N + B*K*d) and reads ties left and NaN right like the
  walk does. One word limits it to trees of at most ``_MASK_LEAVES`` leaves;
  a multi-word prototype ran 10-20x slower than the walk.

The bitmask is taken when every tree has at most 64 leaves, K is at least
the mean number of nodes per tree (K*B >= N) and d is at most 13. Below that
K, setting up the masks and tables costs more than the walk saves. Measured
on 2 vCPUs (Python 3.11.7, numpy 2.4.6), the honest cosine forest at n=1000,
B=2000 (125 nodes per tree) takes 7.4 ms to walk and 17 ms by bitmask at
K=50, breaks even near K=150-175, and takes 128 against 34 ms at K=1000; a
CART xor d=5 forest at B=1000 (85 nodes per tree) breaks even near
K=85-100. The rule stays K*B >= N although honest trees break even above
it: no benchmark workload has a K in that band, the bitmask costs at most
about 4 ms (25%, at K=125) more there, and honest and CART trees break
even at different multiples of their node count (about 1.2-1.4 and
1.0-1.2), so no one multiple fits both. From d of about 14 the d gathers
per (tree, query) cost more than the walk's depth levels. At K=1000 and
B=500 (honest cosine, n=1000; min of 5, three runs) the bitmask against
the walk takes 22-23 against 34-40 ms at d=8, 24-25 against 33-34 ms at
d=10, 28-31 against 33-37 ms at d=12, 30-34 against 33-36 ms at d=13,
34-40 against 33-36 ms at d=14 and 39-40 against 34-35 ms at d=16 (78
against 32 ms at d=30).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng, tree as tree_mod
from .dataset import TrainingSet
from .sampling import default_subsample_size, draw_block, partition_block, prediction_size, row_members, sorted_rows
from .tree import HONEST, SPLIT_KINDS, TreeConfig

# (tree, point) pairs walked together: bounds the traversal's working set
# independently of B and K
_PAIR_BLOCK = 1 << 14

# leaves of one uint64 mask word; the most features the bitmask traversal
# takes (see the module docstring); queries ranked together and the words of
# one bitmask table, which bound its working set like _PAIR_BLOCK
_MASK_LEAVES = 64
_MASK_MAX_D = 13
_QUERY_CHUNK = 1024
_TABLE_WORDS = 1 << 17
_ONE = np.uint64(1)

# trees grown together: bounds the grower's working set independently of B
_TREE_BLOCK = 256


@dataclass(frozen=True)
class ForestConfig:
    """Forest sizing; s and b default to the floor(n^0.7) and 5n rules."""

    s: int | None = None
    b: int | None = None
    s_exponent: float = 0.7
    tree: TreeConfig = field(default_factory=TreeConfig)
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.s_exponent) and self.s_exponent > 0.0):
            raise ValueError(f"s_exponent must be finite and > 0, got {self.s_exponent}")

    def resolve(self, n: int) -> tuple[int, int]:
        s = self.s if self.s is not None else default_subsample_size(n, self.s_exponent)
        b = self.b if self.b is not None else 5 * n
        if not 2 <= s <= n:
            raise ValueError(f"subsample size s={s} must satisfy 2 <= s <= n={n}")
        if b < 1:
            raise ValueError(f"number of trees must be >= 1, got {b}")
        return s, b


# every packed array's dtype, in memory and in the model file, in file order
PACKED_DTYPES = {
    "feature": "<i4",
    "value": "<f8",
    "split_kind": "|u1",
    "roots": "<i4",
    "subsample_indices": "<i4",
    "prediction_indices": "<i4",
}


@dataclass(frozen=True, eq=False)
class ForestModel:
    """B trees as flat node arrays; node ids are global across the forest.

    Construction converts each array to its ``PACKED_DTYPES`` dtype, keeping
    an array that already has it without a copy, and refuses integers that
    do not fit it. It then checks the invariants traversal relies on, so a
    forest from an untrusted file can neither loop nor index out of bounds,
    and that ``config`` gives the s and b of its index rows, as a saved
    model's header must.
    """

    feature: np.ndarray  # (N,) int32 split axis, -1 at leaves
    value: np.ndarray  # (N,) float64 a split's threshold (x <= it goes left), a leaf's prediction
    split_kind: np.ndarray  # (N,) uint8 split provenance, index into tree.SPLIT_KINDS
    roots: np.ndarray  # (B,) int32 root id of each tree, increasing from 0
    subsample_indices: np.ndarray  # (B, s) int32, row b = sorted subsample of tree b
    prediction_indices: np.ndarray | None  # (B, prediction_size(s)) int32 honest prediction sets; None for CART
    n: int
    d: int
    s: int
    b: int
    config: ForestConfig
    # (N,) int64 left child id of every split, a leaf's own id at leaves, set by the check
    left: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype in PACKED_DTYPES.items():
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            if arr.size and arr.dtype.kind in "iu" and not np.can_cast(arr.dtype, dtype):
                info = np.iinfo(dtype)
                if arr.min() < info.min or arr.max() > info.max:
                    raise ValueError(f"{name} holds values outside the range of {dtype}")
            arr = np.ascontiguousarray(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.d < 1 or not 2 <= self.s <= self.n:
            raise ValueError(f"need d >= 1 and 2 <= s <= n, got d={self.d}, s={self.s}, n={self.n}")
        n_nodes = self.feature.size
        for name in ("feature", "value", "split_kind"):
            if getattr(self, name).shape != (n_nodes,):
                raise ValueError(f"{name} shape {getattr(self, name).shape} does not match {n_nodes} nodes")
        if self.b < 1 or self.roots.shape != (self.b,) or self.roots[0] != 0:
            raise ValueError(f"need {self.b} >= 1 tree roots starting at node 0")
        size = np.diff(np.append(self.roots, n_nodes))
        if np.any(size <= 0):
            raise ValueError("tree roots must increase and every tree needs a node")
        if self.feature.min() < -1 or self.feature.max() >= self.d:
            raise ValueError(f"split features must lie in [-1, {self.d})")
        if self.split_kind.max() >= len(SPLIT_KINDS):
            raise ValueError(f"split kinds must lie in [0, {len(SPLIT_KINDS)})")
        # the derived children lie inside each tree and make it one binary tree
        # (see the module docstring); a threshold orders against every query
        # as the walk reads it
        object.__setattr__(self, "left", tree_mod.left_children(self.feature, self.roots))
        if not np.all(np.isfinite(self.value) | (self.feature < 0)):
            raise ValueError("split thresholds must be finite")
        if self.subsample_indices.shape != (self.b, self.s) or not sorted_rows(self.subsample_indices, self.n):
            raise ValueError(f"subsample indices must be {self.b} sorted rows of {self.s} distinct indices in [0, {self.n})")
        if (self.config.s, self.config.b) != (self.s, self.b):
            raise ValueError(f"config s={self.config.s}, b={self.config.b} does not match the forest's s={self.s}, b={self.b}")
        pred = self.prediction_indices
        if (pred is None) != (self.config.tree.mode != HONEST):
            raise ValueError("honest forests, and only they, carry prediction indices")
        if pred is not None:
            if pred.shape != (self.b, prediction_size(self.s)) or not sorted_rows(pred, self.n):
                raise ValueError("prediction indices must be sorted rows of ceil(s/2) distinct indices")
            if not row_members(self.subsample_indices, pred, self.n).all():
                raise ValueError("prediction indices must lie inside their tree's subsample")


def _pack(blocks: list, n: int, s: int, d: int, cfg: ForestConfig) -> ForestModel:
    """One forest from grown blocks of (GrownBlock, subsample rows, prediction rows)."""
    grown, subs, preds = zip(*blocks)
    offsets = np.cumsum([0] + [g.feature.size for g in grown[:-1]])

    def cat(name):
        return np.concatenate([getattr(g, name) for g in grown])

    return ForestModel(
        feature=cat("feature"),
        value=cat("value"),
        split_kind=cat("split_kind"),
        roots=np.concatenate([g.roots + off for g, off in zip(grown, offsets)]),
        subsample_indices=np.vstack(subs),
        prediction_indices=np.vstack(preds) if cfg.tree.mode == HONEST else None,
        n=n,
        d=d,
        s=s,
        b=sum(sub.shape[0] for sub in subs),
        config=cfg,
    )


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(requested: int, tasks: int, cores: int) -> int:
    """Worker processes for a fan-out: min(requested, tasks, cores), at least 1; a request below 1 is refused."""
    if requested < 1:
        raise ValueError(f"worker count must be >= 1, got {requested}")
    return max(1, min(requested, tasks, cores))


class WorkerError(RuntimeError):
    """A worker process died before it returned its jobs' results."""


# a stand-in pool class for ``fan_out``, which takes
# concurrent.futures.ProcessPoolExecutor while this is None; kept for
# perfbench's smoke test, which patches this name
ProcessPoolExecutor = None


def fan_out(fn, jobs: list, n_jobs: int, name=str) -> list:
    """``[fn(job) for job in jobs]``, over a process pool when more than one worker is usable.

    The pool is clamped to the tasks and the usable cores: a pool forks all
    its workers up front, so an unclamped large request would fork that many.
    A worker that dies (killed, out of memory) breaks the pool; that raises
    ``WorkerError`` naming, by ``name(job)``, every job from the first one
    whose result did not arrive. A serial fan-out never imports the pool.
    """
    workers = worker_count(n_jobs, len(jobs), usable_cores())
    if workers == 1:
        return [fn(job) for job in jobs]
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    pool_class = ProcessPoolExecutor or concurrent.futures.ProcessPoolExecutor
    results = []
    with pool_class(max_workers=workers) as pool:
        try:
            for out in pool.map(fn, jobs):
                results.append(out)
        except BrokenProcessPool as e:
            lost = ", ".join(name(job) for job in jobs[len(results):])
            raise WorkerError(f"a worker process died; no results for {lost}") from e
    return results


def _fit_block(ts: TrainingSet, axes: tree_mod.SortedAxes, cfg: ForestConfig, paths: list,
               sub: np.ndarray | None = None):
    """One block of trees, tree t grown on the stream ``rng.stream(*paths[t])``:
    (GrownBlock, subsample rows, prediction rows or None), the rows in their
    ``PACKED_DTYPES`` dtypes.

    Tree t's stream draws, in order: its subsample's ``cfg.s`` swap targets
    (``sampling.draw_block``), skipped when ``sub[t]`` gives its sorted
    subsample row; then, for an honest tree, its partition's
    ``prediction_size(s)`` swap targets (``sampling.partition_block``) and its
    ``tree.split_uniforms`` table. One ``integers`` call over both target
    ranges draws the values of two separate calls. One Philox generator is
    restarted on each stream (``rng.rekey``) rather than built per stream.
    """
    s = cfg.s
    k = prediction_size(s) if cfg.tree.mode == HONEST else 0
    m = 0 if sub is not None else s  # subsample swap targets to draw
    lows = np.concatenate([np.arange(m), np.arange(k)])
    highs = np.concatenate([np.full(m, ts.n), np.full(k, s)])
    gen = rng.stream(0)  # any Philox generator: rekey restarts it
    js = np.empty((len(paths), lows.size), dtype=np.int64)
    uniforms = np.empty((len(paths), 2 * k - 1, tree_mod.UNIFORMS)) if k else None
    for t, path in enumerate(paths):
        rng.rekey(gen, *path)
        js[t] = gen.integers(lows, highs)
        if k:
            tree_mod.split_uniforms(gen, k, out=uniforms[t])
    if sub is None:
        sub = draw_block(ts.n, s, js[:, :s])
    packed_sub = sub.astype(PACKED_DTYPES["subsample_indices"])
    if cfg.tree.mode != HONEST:
        return tree_mod.grow_block(ts, axes, cfg.tree, sub), packed_sub, None
    struct, pred = partition_block(sub, js[:, m:])
    grown = tree_mod.grow_block(ts, axes, cfg.tree, struct, pred, uniforms)
    return grown, packed_sub, pred.astype(PACKED_DTYPES["prediction_indices"])


def _fit_range(args) -> list:
    ts, axes, cfg, b_lo, b_hi = args
    return [_fit_block(ts, axes, cfg, [(cfg.seed, rng.TREE, b) for b in range(lo, min(lo + _TREE_BLOCK, b_hi))])
            for lo in range(b_lo, b_hi, _TREE_BLOCK)]


def _range_name(args) -> str:
    return f"trees {args[3]}-{args[4] - 1}"


def train(ts: TrainingSet, cfg: ForestConfig, n_jobs: int = 1) -> ForestModel:
    """Train B trees on independent subsample draws; deterministic in (cfg, ts)."""
    s, b_total = cfg.resolve(ts.n)
    cfg = replace(cfg, s=s, b=b_total)
    workers = worker_count(n_jobs, b_total, usable_cores())
    chunk = -(-b_total // (4 * workers))
    axes = tree_mod.sorted_axes(ts)
    # worker ranges of several blocks amortize pickling (ts, axes) to the workers
    ranges = [(ts, axes, cfg, lo, min(lo + chunk, b_total)) for lo in range(0, b_total, chunk)]
    blocks = [blk for part in fan_out(_fit_range, ranges, workers, _range_name) for blk in part]
    return _pack(blocks, ts.n, s, ts.d, cfg)


def fit_subsamples(ts: TrainingSet, cfg: ForestConfig, sub: np.ndarray, paths: list) -> ForestModel:
    """A forest of one tree per sorted subsample row of ``sub``, tree b grown on
    ``rng.stream(*paths[b])`` (``_fit_block``); its s and b are ``sub``'s shape.
    """
    b, s = sub.shape
    if len(paths) != b:
        raise ValueError(f"need one stream path per subsample row: {len(paths)} paths for {b} rows")
    cfg = replace(cfg, s=s, b=b)
    return _pack([_fit_block(ts, tree_mod.sorted_axes(ts), cfg, paths, sub)], ts.n, s, ts.d, cfg)


def _walk(forest: ForestModel, xs: np.ndarray) -> np.ndarray:
    """(B, K) leaf values by walking blocks of (tree, query) pairs level by level."""
    k = xs.shape[0]
    x_flat = xs.reshape(-1)
    left, feature, value = forest.left, forest.feature, forest.value
    total = forest.b * k
    out = np.empty(total)
    # pairs are b-major, so `out` reshapes to (B, K); each block walks its
    # pairs level by level and drops finished ones once they are the majority,
    # keeping the live ones by one index
    for lo in range(0, total, _PAIR_BLOCK):
        pair = np.arange(lo, min(lo + _PAIR_BLOCK, total))
        node = forest.roots[pair // k]
        base = pair % k * forest.d
        while True:
            feat = feature[node]
            live = feat >= 0
            n_live = np.count_nonzero(live)
            if 2 * n_live < node.size:
                out[pair] = value[node]
                if not n_live:
                    break
                idx = np.flatnonzero(live)
                node, base, pair, feat = node.take(idx), base.take(idx), pair.take(idx), feat.take(idx)
                live = None  # every kept pair is live
            # ties go left and NaN goes right; a pair at a leaf reads some
            # coordinate (feature -1) but stays put, as it never goes right
            right = ~(x_flat[base + feat] <= value[node])
            if live is not None:
                right &= live
            node = left[node] + right
    return out.reshape(forest.b, k)


def _leaf_masks(forest: ForestModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Internal node ids, their trees, their left-subtree-clearing words, and (B*64,) leaf values by slot.

    Leaves are numbered left to right within each tree: a bottom-up pass
    over the levels counts every subtree's leaves, a top-down pass gives
    every node the number of its first leaf.
    """
    feature, left_of = forest.feature, forest.left
    levels = []
    nodes = forest.roots
    while nodes.size:
        inner = nodes.take(np.flatnonzero(feature[nodes] >= 0))
        left = left_of[inner]
        levels.append((inner, left, left + 1))
        nodes = np.concatenate([left, left + 1])
    # at most 64 leaves per tree: counts and first leaves fit a byte
    count = np.ones(feature.size, dtype=np.uint8)
    for inner, left, right in reversed(levels):
        count[inner] = count[left] + count[right]
    first = np.zeros(feature.size, dtype=np.uint8)
    masks = np.empty(feature.size, dtype=np.uint64)
    for inner, left, right in levels:
        at, n_left = first[inner], count[left]
        first[left] = at
        first[right] = at + n_left
        masks[inner] = ~(((_ONE << n_left.astype(np.uint64)) - _ONE) << at.astype(np.uint64))
    tree_of = np.repeat(np.arange(forest.b), np.diff(np.append(forest.roots, feature.size)))
    leaf = np.flatnonzero(feature < 0)
    leaf_value = np.zeros(forest.b * _MASK_LEAVES)
    leaf_value[tree_of[leaf] * _MASK_LEAVES + first[leaf]] = forest.value[leaf]
    inner = np.flatnonzero(feature >= 0)
    return inner, tree_of[inner], masks[inner], leaf_value


def _bitmask(forest: ForestModel, xs: np.ndarray) -> np.ndarray:
    """(B, K) leaf values from per-node leaf bitmasks and per-feature query ranks."""
    k, d = xs.shape
    inner, tree_of, masks, leaf_value = _leaf_masks(forest)
    feat = forest.feature[inner]
    # each feature's nodes in threshold order, so a chunk ranks them by a merge
    by_feat = [np.flatnonzero(feat == j) for j in range(d)]
    by_feat = [nodes[np.argsort(forest.value[inner[nodes]])] for nodes in by_feat]
    thresholds = [forest.value[inner[nodes]] for nodes in by_feat]
    chunk = max(1, min(_QUERY_CHUNK, _TABLE_WORDS // d - 1))
    out = np.empty((forest.b, k))
    for q_lo in range(0, k, chunk):
        xc = xs[q_lo:q_lo + chunk]
        width = xc.shape[0] + 1
        # x_q > t exactly when #{x <= t} <= #{x < x_q}; NaN sorts last, so it
        # ranks above every threshold and goes right like in the walk
        rank = np.empty((d, width - 1), dtype=np.intp)
        slot = np.empty(inner.size, dtype=np.intp)
        for j in range(d):
            col = np.sort(xc[:, j])
            rank[j] = np.searchsorted(col, xc[:, j], side="left") + j * width
            # the u-th smallest threshold is >= x exactly when #{t < x} <= u
            below = np.bincount(np.searchsorted(thresholds[j], col, side="left"), minlength=thresholds[j].size)
            slot[by_feat[j]] = np.cumsum(below[:thresholds[j].size]) + j * width
        trees = max(1, _TABLE_WORDS // (d * width))
        bounds = np.searchsorted(tree_of, np.arange(0, forest.b + trees, trees))
        for i, b_lo in enumerate(range(0, forest.b, trees)):
            b_hi = min(b_lo + trees, forest.b)
            nb = b_hi - b_lo
            lo, hi = bounds[i], bounds[i + 1]
            # table[j * width + r, tree]: the AND of the words of the tree's
            # nodes on feature j whose threshold rank is at most r
            table = np.full(d * width * nb, ~np.uint64(0))
            np.bitwise_and.at(table, slot[lo:hi] * nb + (tree_of[lo:hi] - b_lo), masks[lo:hi])
            table = table.reshape(d * width, nb)
            np.bitwise_and.accumulate(table.reshape(d, width, nb), axis=1, out=table.reshape(d, width, nb))
            word = table[rank[0]]
            for j in range(1, d):
                word &= table[rank[j]]
            # isolate the lowest set bit (two's complement); as a float64 the
            # bit 2^i has exponent field 1023 + i
            word &= np.negative(word)
            at = word.astype(np.float64).view(np.int64) >> 52
            at += np.arange(b_lo * _MASK_LEAVES - 1023, b_hi * _MASK_LEAVES - 1023, _MASK_LEAVES)
            out[b_lo:b_hi, q_lo:q_lo + width - 1] = leaf_value[at].T
    return out


def max_leaves(forest: ForestModel) -> int:
    """The most leaves in one tree of the forest."""
    return int(np.add.reduceat(forest.feature < 0, forest.roots, dtype=np.intp).max())


def traversal(forest: ForestModel, k: int):
    """The traversal ``predict_per_tree`` takes for k queries, ``_bitmask`` or ``_walk``.

    Either maps the forest and a C-contiguous (k, d) float64 matrix to the (B, k) per-tree matrix.
    """
    many = k * forest.b >= forest.feature.size and forest.d <= _MASK_MAX_D
    return _bitmask if many and max_leaves(forest) <= _MASK_LEAVES else _walk


def predict_per_tree(forest: ForestModel, xq) -> np.ndarray:
    """Per-tree predictions; (B,) for a single point, (B, K) for a matrix."""
    xq = np.asarray(xq, dtype=np.float64)
    single = xq.ndim == 1
    xs = np.ascontiguousarray(np.atleast_2d(xq))
    if xs.shape[1] != forest.d:
        raise ValueError(f"expected {forest.d} features, got {xs.shape[1]}")
    values = traversal(forest, xs.shape[0])(forest, xs)
    return values[:, 0] if single else values


def predict_batch(forest: ForestModel, xs) -> np.ndarray:
    return np.mean(predict_per_tree(forest, xs), axis=0)
