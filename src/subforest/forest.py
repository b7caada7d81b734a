"""Subsampled forest: B independently trained trees plus resampling records.

Tree b draws its subsample, honesty partition, and split randomness from a
stream derived from (seed, b), so the fitted model is a function of the
resolved config alone -- training with 1 or many workers yields identical
trees. Forest predictions are means over per-tree outputs taken in tree
order with numpy's pairwise summation, which keeps the reduction
deterministic as well.

Training grows each worker's range of trees in blocks of at most
``_TREE_BLOCK``: the block's subsamples and partitions are drawn together
(``sampling.draw_block`` and ``partition_block``, one swap loop over all
rows), each honest tree then
draws its uniform table, and ``tree.grow_block`` grows the block level by
level. A tree does not depend on its block, so blocks and worker ranges are a
schedule, not part of the model.

The packed arrays are the forest: ``train`` concatenates the grown blocks'
node arrays once, and traversal, the variance estimate and the model file
all read those arrays. Tree b owns the nodes ``roots[b]`` up to the next
root, numbered breadth-first; child ids are global, every internal node's
children lie after it inside its own tree, and a leaf's children are the
leaf itself, so a walk from any root ends at a leaf and then stays there.
``ForestModel.trees`` rebuilds per-tree ``TreeModel`` views on demand for
audits and tests.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng, tree as tree_mod
from .dataset import TrainingSet
from .sampling import HonestyPartition, SubsampleDraw, default_subsample_size, draw_block, partition_block
from .tree import HONEST, TreeConfig, TreeModel

# (tree, point) pairs walked together: bounds the traversal's working set
# independently of B and K
_PAIR_BLOCK = 1 << 14

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

    def resolve(self, n: int) -> tuple[int, int]:
        s = self.s if self.s is not None else default_subsample_size(n, self.s_exponent)
        b = self.b if self.b is not None else 5 * n
        if not 2 <= s <= n:
            raise ValueError(f"subsample size s={s} must satisfy 2 <= s <= n={n}")
        if b < 1:
            raise ValueError(f"number of trees must be >= 1, got {b}")
        return s, b


def _sorted_rows(rows: np.ndarray, n: int) -> bool:
    """Every row strictly increasing with entries in [0, n)."""
    return bool(rows.min() >= 0 and rows.max() < n and np.all(rows[:, 1:] > rows[:, :-1]))


@dataclass(frozen=True, eq=False)
class ForestModel:
    """B trees as flat node arrays; node ids are global across the forest.

    Construction checks the invariants traversal relies on, so a forest from
    an untrusted file can neither loop nor index out of bounds.
    """

    feature: np.ndarray  # (N,) int32 split axis, -1 at leaves
    threshold: np.ndarray  # (N,) float64
    child: np.ndarray  # (N, 2) intp global [left, right] ids; a leaf's are its own id
    value: np.ndarray  # (N,) float64 leaf predictions
    pred_index: np.ndarray  # (N,) int32 training index behind a leaf, -1 for CART
    from_random: np.ndarray  # (N,) bool, split axis came from the uniform branch
    roots: np.ndarray  # (B,) intp root id of each tree, increasing from 0
    subsample_indices: np.ndarray  # (B, s) int64, row b = sorted subsample of tree b
    prediction_indices: np.ndarray | None  # (B, ceil(s/2)) int64 honest prediction sets; None for CART
    n: int
    d: int
    s: int
    b: int
    config: ForestConfig

    def __post_init__(self):
        dtypes = {
            "feature": np.int32, "threshold": np.float64, "child": np.intp,
            "value": np.float64, "pred_index": np.int32, "from_random": bool,
            "roots": np.intp, "subsample_indices": np.int64, "prediction_indices": np.int64,
        }
        for name, dtype in dtypes.items():
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.d < 1 or not 2 <= self.s <= self.n:
            raise ValueError(f"need d >= 1 and 2 <= s <= n, got d={self.d}, s={self.s}, n={self.n}")
        n_nodes = self.feature.size
        for name in ("threshold", "value", "pred_index", "from_random"):
            if getattr(self, name).shape != (n_nodes,):
                raise ValueError(f"{name} shape {getattr(self, name).shape} does not match {n_nodes} nodes")
        if self.feature.ndim != 1 or self.child.shape != (n_nodes, 2):
            raise ValueError(f"child shape {self.child.shape} does not match {n_nodes} nodes")
        if self.b < 1 or self.roots.shape != (self.b,) or self.roots[0] != 0:
            raise ValueError(f"need {self.b} >= 1 tree roots starting at node 0")
        ends = np.append(self.roots[1:], n_nodes)
        if np.any(ends <= self.roots):
            raise ValueError("tree roots must increase and every tree needs a node")
        if self.feature.min() < -1 or self.feature.max() >= self.d:
            raise ValueError(f"split features must lie in [-1, {self.d})")
        end = np.repeat(ends, ends - self.roots)[:, None]
        ids = np.arange(n_nodes)[:, None]
        inner = (self.feature >= 0)[:, None]
        ok = np.where(inner, (self.child > ids) & (self.child < end), self.child == ids)
        if not ok.all():
            raise ValueError("children must lie after their parent inside its tree; leaves point at themselves")
        if self.pred_index.min() < -1 or self.pred_index.max() >= self.n:
            raise ValueError(f"leaf training indices must lie in [-1, {self.n})")
        if self.subsample_indices.shape != (self.b, self.s) or not _sorted_rows(self.subsample_indices, self.n):
            raise ValueError(f"subsample indices must be {self.b} sorted rows of {self.s} distinct indices in [0, {self.n})")
        pred = self.prediction_indices
        if (pred is None) != (self.config.tree.mode != HONEST):
            raise ValueError("honest forests, and only they, carry prediction indices")
        if pred is not None:
            if pred.shape != (self.b, -(-self.s // 2)) or not _sorted_rows(pred, self.n):
                raise ValueError("prediction indices must be sorted rows of ceil(s/2) distinct indices")
            # each row must lie inside its tree's subsample: search row-offset keys
            offset = np.arange(self.b)[:, None] * self.n
            sub_keys = (self.subsample_indices + offset).ravel()
            pred_keys = (pred + offset).ravel()
            at = np.minimum(np.searchsorted(sub_keys, pred_keys), sub_keys.size - 1)
            if not np.array_equal(sub_keys[at], pred_keys):
                raise ValueError("prediction indices must lie inside their tree's subsample")

    @property
    def trees(self) -> tuple[TreeModel, ...]:
        """Per-tree views of the packed arrays, rebuilt on every access."""
        ends = np.append(self.roots[1:], self.feature.size)
        out = []
        for b, (lo, hi) in enumerate(zip(self.roots.tolist(), ends.tolist())):
            sub = self.subsample_indices[b]
            partition = None
            if self.prediction_indices is not None:
                pred = self.prediction_indices[b]
                partition = HonestyPartition(np.setdiff1d(sub, pred, assume_unique=True), pred)
            out.append(tree_mod.tree_view(self, lo, hi, self.d, self.config.tree, SubsampleDraw(sub, self.n), partition))
        return tuple(out)

    def counts_matrix(self) -> np.ndarray:
        """(B, n) 0/1 inclusion counts N*_bi of every tree's subsample."""
        counts = np.zeros((self.b, self.n), dtype=np.uint8)
        np.put_along_axis(counts, self.subsample_indices, 1, axis=1)
        return counts


def _pack(blocks: list, n: int, s: int, d: int, cfg: ForestConfig) -> ForestModel:
    """One forest from grown blocks of (GrownBlock, subsample rows, prediction rows)."""
    grown, subs, preds = zip(*blocks)
    offsets = np.cumsum([0] + [g.feature.size for g in grown[:-1]])

    def cat(name):
        return np.concatenate([getattr(g, name) for g in grown])

    return ForestModel(
        feature=cat("feature"),
        threshold=cat("threshold"),
        child=np.concatenate([g.child + off for g, off in zip(grown, offsets)]),
        value=cat("value"),
        pred_index=cat("pred_index"),
        from_random=cat("from_random"),
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
    """Worker processes for a fan-out: min(requested, tasks, cores), at least 1."""
    return max(1, min(requested, tasks, cores))


def fan_out(fn, jobs: list, n_jobs: int) -> list:
    """``[fn(job) for job in jobs]``, over a process pool when more than one worker is usable.

    The pool is clamped to the tasks and the usable cores: a pool forks all
    its workers up front, so an unclamped large request would fork that many.
    """
    workers = worker_count(n_jobs, len(jobs), usable_cores())
    if workers == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _fit_block(ts: TrainingSet, axes: tree_mod.SortedAxes, cfg: ForestConfig, s: int, b_lo: int, b_hi: int):
    """Trees b_lo..b_hi-1 grown together, with their subsample and prediction rows."""
    gens = [rng.stream(cfg.seed, rng.TREE, b) for b in range(b_lo, b_hi)]
    sub = draw_block(ts.n, s, gens)
    if cfg.tree.mode != HONEST:
        return tree_mod.grow_block(ts, axes, cfg.tree, sub), sub, None
    struct, pred = partition_block(sub, gens)
    uniforms = np.stack([tree_mod.split_uniforms(g, pred.shape[1]) for g in gens])
    return tree_mod.grow_block(ts, axes, cfg.tree, struct, pred, uniforms), sub, pred


def _fit_range(args) -> list:
    ts, axes, cfg, s, b_lo, b_hi = args
    return [_fit_block(ts, axes, cfg, s, lo, min(lo + _TREE_BLOCK, b_hi)) for lo in range(b_lo, b_hi, _TREE_BLOCK)]


def train(ts: TrainingSet, cfg: ForestConfig, n_jobs: int = 1) -> ForestModel:
    """Train B trees on independent subsample draws; deterministic in (cfg, ts)."""
    s, b_total = cfg.resolve(ts.n)
    cfg = replace(cfg, s=s, b=b_total)
    workers = worker_count(n_jobs, b_total, usable_cores())
    chunk = -(-b_total // (4 * workers))
    axes = tree_mod.sorted_axes(ts)
    ranges = [(ts, axes, cfg, s, lo, min(lo + chunk, b_total)) for lo in range(0, b_total, chunk)]
    blocks = [blk for part in fan_out(_fit_range, ranges, workers) for blk in part]
    return _pack(blocks, ts.n, s, ts.d, cfg)


def predict_per_tree(forest: ForestModel, xq) -> np.ndarray:
    """Per-tree predictions; (B,) for a single point, (B, K) for a matrix."""
    xq = np.asarray(xq, dtype=np.float64)
    single = xq.ndim == 1
    xs = np.ascontiguousarray(np.atleast_2d(xq))
    if xs.shape[1] != forest.d:
        raise ValueError(f"expected {forest.d} features, got {xs.shape[1]}")
    k = xs.shape[0]
    x_flat = xs.reshape(-1)
    child = forest.child.reshape(-1)
    feature, threshold = forest.feature, forest.threshold
    total = forest.b * k
    out = np.empty(total)
    # pairs are b-major, so `out` reshapes to (B, K); each block walks its
    # pairs level by level and drops finished ones once they are the majority
    for lo in range(0, total, _PAIR_BLOCK):
        pair = np.arange(lo, min(lo + _PAIR_BLOCK, total))
        node = forest.roots[pair // k]
        base = pair % k * forest.d
        while True:
            feat = feature[node]
            live = feat >= 0
            n_live = np.count_nonzero(live)
            if 2 * n_live < node.size:
                out[pair] = forest.value[node]
                if not n_live:
                    break
                node, base, pair, feat = node[live], base[live], pair[live], feat[live]
            # ties go left and NaN goes right; a pair at a leaf reads some
            # coordinate (feature -1) and stays put
            node = child[2 * node + ~(x_flat[base + feat] <= threshold[node])]
    values = out.reshape(forest.b, k)
    return values[:, 0] if single else values


def predict(forest: ForestModel, xq) -> float:
    """Forest prediction: arithmetic mean of the per-tree predictions."""
    return float(np.mean(predict_per_tree(forest, np.asarray(xq, dtype=np.float64).reshape(-1))))


def predict_batch(forest: ForestModel, xs) -> np.ndarray:
    return np.mean(predict_per_tree(forest, xs), axis=0)
