import contextlib
import signal

import numpy as np
import pytest

from subforest import dataset, forest, tree


def same_forest(a, b) -> bool:
    """Every packed array of two forests has the same dtype, shape and bytes (so -0.0 differs from 0.0)."""
    def same(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    return all(same(getattr(a, k), getattr(b, k)) for k in forest.PACKED_DTYPES)


def one_tree_forest(ts, tree_cfg, subsample, prediction=None, *, feature, value, threshold=None, split_kind=None):
    """A one-tree ``ForestModel`` over ``ts`` from breadth-first node arrays.

    Given ``threshold``, a split's value is its threshold and a leaf's its
    entry of ``value``; otherwise ``value`` is already the forest's one
    float per node.
    """
    feature = np.asarray(feature)
    if threshold is not None:
        value = np.where(feature >= 0, threshold, value)
    s = len(subsample)
    return forest.ForestModel(
        feature=feature,
        value=value,
        split_kind=np.zeros(feature.size) if split_kind is None else split_kind,
        roots=[0],
        subsample_indices=[subsample],
        prediction_indices=None if prediction is None else [prediction],
        n=ts.n, d=ts.d, s=s, b=1,
        config=forest.ForestConfig(s=s, b=1, tree=tree_cfg),
    )


def grow_one(ts, tree_cfg, structure, prediction=None, uniforms=None):
    """One tree grown alone on given index sets, as a one-tree forest."""
    structure = np.asarray(structure)
    honest = prediction is not None
    rows = (structure[None], np.asarray(prediction)[None], uniforms[None]) if honest else (structure[None],)
    grown = tree.grow_block(ts, tree.sorted_axes(ts), tree_cfg, *rows)
    subsample = np.union1d(structure, prediction) if honest else structure
    nodes = grown._asdict()
    del nodes["roots"]
    return one_tree_forest(ts, tree_cfg, subsample, prediction, **nodes)


def reference_children(fm, b: int) -> dict:
    """Left child of every split of tree b, by counting the tree's nodes in order.

    Breadth-first numbering gives the tree's j-th split (0-based, in node
    order) the local children 2j + 1 and 2j + 2.
    """
    lo = int(fm.roots[b])
    hi = int(fm.roots[b + 1]) if b + 1 < fm.b else fm.feature.size
    left, nxt = {}, 1
    for i in range(lo, hi):
        if fm.feature[i] >= 0:
            left[i] = lo + nxt
            nxt += 2
    return left


def reference_leaf(fm, b: int, xq, left=None) -> int:
    """Global id of tree b's leaf holding xq, by a scalar walk (ties go left, NaN right).

    ``left`` is tree b's ``reference_children``, computed here when not given.
    """
    xq = np.asarray(xq, dtype=np.float64)
    left = reference_children(fm, b) if left is None else left
    hi = int(fm.roots[b + 1]) if b + 1 < fm.b else fm.feature.size
    nid = int(fm.roots[b])
    while fm.feature[nid] >= 0:
        nxt = left[nid] if xq[fm.feature[nid]] <= fm.value[nid] else left[nid] + 1
        assert nid < nxt < hi, f"malformed tree {b}: node {nid} leads to {nxt}"
        nid = nxt
    return nid


def reference_predict(fm, b: int, xq) -> float:
    return float(fm.value[reference_leaf(fm, b, xq)])


def leaf_training_index(fm, ts) -> np.ndarray:
    """(N,) training index behind each honest leaf: the lowest prediction point that
    a scalar walk routes to it; -1 at splits, at leaves no prediction point
    reaches, and everywhere in a CART forest."""
    index = np.full(fm.feature.size, -1, dtype=np.int32)
    if fm.prediction_indices is None:
        return index
    for b in range(fm.b):
        left = reference_children(fm, b)
        # in decreasing order, so the lowest point routed to a leaf is written last
        for p in fm.prediction_indices[b][::-1]:
            index[reference_leaf(fm, b, ts.x[p], left)] = p
    return index


def format4_arrays(fm, ts) -> dict:
    """The model-format-4 packed arrays of a forest, in that format's order and dtypes.

    Format 4 stored a split's threshold and a leaf's value in separate
    arrays, each +0.0 where unused, and each honest leaf's training index.
    """
    split = fm.feature >= 0
    return {
        "feature": fm.feature,
        "threshold": np.where(split, fm.value, 0.0),
        "value": np.where(split, 0.0, fm.value),
        "pred_index": leaf_training_index(fm, ts),
        "split_kind": fm.split_kind,
        "roots": fm.roots,
        "subsample_indices": fm.subsample_indices,
        "prediction_indices": fm.prediction_indices,
    }


def _fisher_yates_front(g, pool, k: int) -> list:
    """The first k items of ``pool`` after k plain-Python partial Fisher-Yates swaps.

    Slot i swaps with slot j_i, for swap targets j_i uniform on
    [i, len(pool)) that one ``g.integers(np.arange(k), len(pool))`` call draws.
    """
    pool = [int(v) for v in pool]
    for i, j in enumerate(g.integers(np.arange(k), len(pool)).tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def reference_subsample(g, n: int, s: int) -> np.ndarray:
    """Sorted uniform size-s subset of [0, n) that tree stream ``g`` draws first."""
    return np.array(sorted(_fisher_yates_front(g, range(n), s)))


def reference_partition(g, subsample) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (structure, prediction) honesty split of a sorted subsample that
    tree stream ``g`` draws after it: ceil(s/2) prediction points, the rest structure."""
    prediction = _fisher_yates_front(g, subsample, (len(subsample) + 1) // 2)
    return np.setdiff1d(subsample, prediction), np.array(sorted(prediction))


def is_pnn(xq, i: int, candidates, ts) -> bool:
    """True iff no other candidate lies in the closed rectangle spanned by xq and X_i."""
    xq = np.asarray(xq, dtype=np.float64).reshape(-1)
    if xq.size != ts.d:
        raise ValueError(f"expected {ts.d} features, got {xq.size}")
    candidates = np.asarray(list(candidates), dtype=np.int64)
    if i not in candidates:
        raise ValueError(f"index {i} not among the candidates")
    lo = np.minimum(xq, ts.x[i])
    hi = np.maximum(xq, ts.x[i])
    others = ts.x[candidates[candidates != i]]
    return not bool(np.all((others >= lo) & (others <= hi), axis=1).any())


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the main thread if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def cosine_spec():
    return dataset.SyntheticSpec("cosine", 2)


@pytest.fixture(scope="session")
def cosine_1k(cosine_spec):
    return dataset.gen_synthetic(cosine_spec, 1000, seed=7)
