"""Subsample draws without replacement and the honesty partition, a block of trees at a time.

Subsets are drawn by partial Fisher-Yates over an index array, which makes
every size-s subset exactly equally likely. The inclusion counts N_i of a
draw satisfy E[N_i] = s/n and Cov(N_i, N_j) = -s(n-s) / (n^2 (n-1)) for
i != j.

A partial Fisher-Yates of k out of m items takes k swap targets, j_i
uniform on [i, m) for i = 0, ..., k-1, which one
``g.integers(np.arange(k), m)`` call draws. ``draw_block`` and
``partition_block`` take one row of swap targets per tree and run each swap
loop once over all the block's rows: a tree's subsample takes s targets on
[0, n), its honesty partition ``prediction_size(s)`` targets on its s
subsample points. The forest stores only the subsample rows and checks
them once per forest rather than once per tree; a tree's partition is
replayed from its stream, not stored.
"""

from __future__ import annotations

import numpy as np

# entries of the (rows, n) index pool one ``draw_block`` chunk may hold
_POOL_ENTRIES = 1 << 20


def _fisher_yates(pool: np.ndarray, js: np.ndarray) -> np.ndarray:
    """Row-wise partial Fisher-Yates: row t swaps slot i with slot js[t, i], i = 0, 1, ...

    The first js.shape[1] slots of each returned row hold a uniform subset of
    that row of ``pool``.
    """
    arr = np.array(pool, dtype=np.int64, order="C")
    flat = arr.reshape(-1)
    base = np.arange(arr.shape[0]) * arr.shape[1]
    # flat slot pairs, one row per step i
    for a, b in zip(base + np.arange(js.shape[1])[:, None], base + js.T):
        flat[a], flat[b] = flat[b], flat[a]
    return arr


def draw_block(n: int, s: int, js: np.ndarray) -> np.ndarray:
    """Sorted (T, s) subsample rows from (T, s) swap targets, row t drawn as ``integers(np.arange(s), n)``.

    Row t is the uniform size-s subset of [0, n) that a partial Fisher-Yates
    with swap targets ``js[t]`` selects. The swap loop runs once over all
    rows, in chunks whose (rows, n) index pool stays within ``_POOL_ENTRIES``.
    """
    chunk = max(1, _POOL_ENTRIES // n)
    rows = []
    for lo in range(0, js.shape[0], chunk):
        part = js[lo:lo + chunk]
        pool = np.broadcast_to(np.arange(n, dtype=np.int64), (part.shape[0], n))
        rows.append(np.sort(_fisher_yates(pool, part)[:, :s], axis=1))
    return np.vstack(rows)


def partition_block(subsamples: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (structure, prediction) rows of honesty partitions, one per subsample row.

    ``js`` holds each row's ``prediction_size(s)`` swap targets, drawn as
    ``integers(np.arange(prediction_size(s)), s)``; the points they select
    from subsample row t are its prediction points, the rest its structure.
    """
    k = js.shape[1]
    split = _fisher_yates(subsamples, js)
    return np.sort(split[:, k:], axis=1), np.sort(split[:, :k], axis=1)


def sorted_rows(rows: np.ndarray, n: int) -> bool:
    """Every row strictly increasing with entries in [0, n)."""
    return bool(rows.min() >= 0 and rows.max() < n and np.all(rows[:, 1:] > rows[:, :-1]))


def prediction_size(s: int) -> int:
    """Prediction points of an honest partition of s subsample points: ceil(s/2)."""
    return -(-s // 2)


def default_subsample_size(n: int, exponent: float = 0.7) -> int:
    """Subsample-size rule max(2, floor(n**exponent))."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(2, int(np.floor(float(n) ** exponent)))
