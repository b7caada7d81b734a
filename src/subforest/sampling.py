"""Subsample draws without replacement and the honesty partition.

Subsets are drawn by partial Fisher-Yates over an index array, which makes
every size-s subset exactly equally likely. The inclusion counts N_i of a
draw satisfy E[N_i] = s/n and Cov(N_i, N_j) = -s(n-s) / (n^2 (n-1)) for
i != j.

``draw_block`` and ``partition_block`` draw the subsamples and partitions of
a block of trees from each tree's swap targets, the values ``swap_targets``
draws, and run each swap loop once over all the block's rows;
``draw_subsample`` and ``honesty_partition`` are their one-row cases. Their
index rows are checked by the forest that stores them, once per forest
rather than once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# entries of the (rows, n) index pool one ``draw_block`` chunk may hold
_POOL_ENTRIES = 1 << 20

# rows of the (rows, n) bool table one ``row_members`` block builds
_MEMBER_ROWS = 2048


@dataclass(frozen=True)
class SubsampleDraw:
    """A sorted set of s distinct training indices out of n."""

    indices: np.ndarray  # sorted int64, distinct, in [0, n)
    n: int

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("a subsample holds at least one index")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be sorted and distinct")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"indices out of range [0, {self.n})")
        object.__setattr__(self, "indices", idx)
        idx.setflags(write=False)

    @property
    def s(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class HonestyPartition:
    """Split of a subsample into structure and prediction index sets."""

    structure: np.ndarray  # sorted int64
    prediction: np.ndarray  # sorted int64, size >= ceil(s / 2)

    def __post_init__(self):
        st = np.ascontiguousarray(np.asarray(self.structure, dtype=np.int64))
        pr = np.ascontiguousarray(np.asarray(self.prediction, dtype=np.int64))
        if pr.size < 1:
            raise ValueError("prediction set must be non-empty")
        if np.intersect1d(st, pr).size:
            raise ValueError("structure and prediction sets overlap")
        s = st.size + pr.size
        if pr.size < -(-s // 2):
            raise ValueError("prediction set must hold at least half the subsample")
        object.__setattr__(self, "structure", st)
        object.__setattr__(self, "prediction", pr)
        st.setflags(write=False)
        pr.setflags(write=False)


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


def swap_targets(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """The k partial Fisher-Yates swap targets, j_i uniform on [i, n), in one vectorized draw."""
    return rng.integers(np.arange(k), n)


def draw_block(n: int, s: int, js: np.ndarray) -> np.ndarray:
    """Sorted (T, s) subsample rows from (T, s) swap targets ``swap_targets(g, s, n)``.

    Row t equals ``draw_subsample(n, s, g)`` on the generator that drew
    ``js[t]``. The swap loop runs once over all rows, in chunks whose
    (rows, n) index pool stays within ``_POOL_ENTRIES``.
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

    ``js`` holds each row's ceil(s/2) swap targets ``swap_targets(g, ceil(s/2), s)``;
    row t equals ``honesty_partition`` of subsample row t on the generator
    that drew ``js[t]``: ceil(s/2) prediction points, the rest structure.
    """
    k = js.shape[1]
    split = _fisher_yates(subsamples, js)
    return np.sort(split[:, k:], axis=1), np.sort(split[:, :k], axis=1)


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


def draw_subsample(n: int, s: int, rng: np.random.Generator) -> SubsampleDraw:
    """Uniform draw of s out of n indices without replacement."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return SubsampleDraw(draw_block(n, s, swap_targets(rng, s, n)[None])[0], n)


def honesty_partition(draw: SubsampleDraw, rng: np.random.Generator) -> HonestyPartition:
    """Uniform split of a draw into ceil(s/2) prediction + rest structure points."""
    if draw.s < 2:
        raise ValueError(f"cannot partition a subsample of size {draw.s}")
    structure, prediction = partition_block(draw.indices[None], swap_targets(rng, -(-draw.s // 2), draw.s)[None])
    return HonestyPartition(structure=structure[0], prediction=prediction[0])


def default_subsample_size(n: int, exponent: float = 0.7) -> int:
    """Subsample-size rule max(2, floor(n**exponent))."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(2, int(np.floor(float(n) ** exponent)))
