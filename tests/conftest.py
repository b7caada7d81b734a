import contextlib
import signal

import numpy as np
import pytest

from subforest import dataset, forest, tree


_PACKED = ("feature", "threshold", "value", "pred_index", "split_kind", "roots",
           "subsample_indices", "prediction_indices")


def same_forest(a, b) -> bool:
    """Every packed array of two forests has the same dtype, shape and bytes (so -0.0 differs from 0.0)."""
    def same(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    return all(same(getattr(a, k), getattr(b, k)) for k in _PACKED)


def one_tree_forest(ts, tree_cfg, subsample, prediction=None, *, feature, threshold, value,
                    pred_index=None, split_kind=None):
    """A one-tree ``ForestModel`` over ``ts`` from breadth-first node arrays."""
    feature = np.asarray(feature)
    s = len(subsample)
    return forest.ForestModel(
        feature=feature,
        threshold=threshold,
        value=value,
        pred_index=np.full(feature.size, -1) if pred_index is None else pred_index,
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


def reference_leaf(fm, b: int, xq) -> int:
    """Global id of tree b's leaf holding xq, by a scalar walk (ties go left, NaN right)."""
    xq = np.asarray(xq, dtype=np.float64)
    left = reference_children(fm, b)
    hi = int(fm.roots[b + 1]) if b + 1 < fm.b else fm.feature.size
    nid = int(fm.roots[b])
    while fm.feature[nid] >= 0:
        nxt = left[nid] if xq[fm.feature[nid]] <= fm.threshold[nid] else left[nid] + 1
        assert nid < nxt < hi, f"malformed tree {b}: node {nid} leads to {nxt}"
        nid = nxt
    return nid


def reference_predict(fm, b: int, xq) -> float:
    return float(fm.value[reference_leaf(fm, b, xq)])


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
