"""Exact brute-force references for the variance estimator and its theory.

Everything here enumerates instead of sampling:

  * ``exact_vij`` takes ``enumerate_subsamples``' walk over all C(n, s)
    subsamples and computes sum_i Cov(T, N_i)^2 under the uniform resampling
    measure -- the B -> infinity target of the Monte Carlo estimator (the
    estimator squares the per-example covariances; their unsquared sum is
    identically zero because sum_i N_i = s).
  * ``hajek_projection_stats`` enumerates i.i.d. tuples from a finite-support
    distribution and computes the first-order (Hajek) projection variance of a
    base learner exactly.
  * ``anova_bound_check`` verifies, exactly, that a subsampled ensemble stays
    within (s/n)^2 Var(T) of its own projection.
  * ``incrementality_point`` reports Var(projection)/Var(T) at one
    subsample size s against the uniform-density reference curve
    (d-1)!/2^(d+1) / log(s)^d, the constant C_{f,d} that Wager & Athey
    (2018) give for a uniform f.

Both exact checks call their learner once, on the sorted atom multisets of
size s, and read every i.i.d. tuple's output from that table.

A learner is a callable from a batch of R subsamples, (R, m, d) features
and (R, m) labels, to its R outputs, and must be exchangeable in each
subsample's rows. The tree learner canonicalizes row order and derives its
internal randomness from a content hash of the subsample, so each subsample
maps to one deterministic output; it grows a batch as one forest over the
stacked subsamples, with each row's tree exactly the one it grows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import forest, rng
from .dataset import TrainingSet
from .forest import ForestConfig
from .tree import TreeConfig

ENUM_CAP = 10**6
# (tuple, subset) pairs the ANOVA check gathers at once: bounds its working set
_PAIR_CHUNK = 1 << 16
# subsamples per tree-learner fit: bounds its TrainingSet and the forest check's (rows, n) tables, which grow as rows squared
_LEARNER_BLOCK = 256


@dataclass(frozen=True)
class FiniteSupportDistribution:
    """Finitely many labeled atoms with probabilities summing to one."""

    xs: np.ndarray  # (q, d)
    ys: np.ndarray  # (q,)
    probs: np.ndarray  # (q,) positive

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        ys = np.asarray(self.ys, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if not (xs.shape[0] == ys.size == probs.size):
            raise ValueError("atoms, labels, and probabilities must align")
        if np.any(probs <= 0.0):
            raise ValueError("atom probabilities must be positive")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.ys.size

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def sample_training(self, gen: np.random.Generator, m: int) -> TrainingSet:
        ids = gen.choice(self.size, size=m, p=self.probs)
        return TrainingSet(self.xs[ids], self.ys[ids])


class SubsampleMean:
    def __call__(self, xs_rows: np.ndarray, ys_rows: np.ndarray) -> np.ndarray:
        return ys_rows.mean(axis=1)


class SubsampleMax:
    def __call__(self, xs_rows: np.ndarray, ys_rows: np.ndarray) -> np.ndarray:
        return ys_rows.max(axis=1)


class LabelSum:
    """Linear learner T = sum_i Y_i; its projection ratio is exactly 1."""

    def __call__(self, xs_rows: np.ndarray, ys_rows: np.ndarray) -> np.ndarray:
        return ys_rows.sum(axis=1)


class HonestTreeLearner:
    """Honest tree fitted on the subsample, evaluated at a fixed test point.

    Internal randomness (partition, split draws) comes from a content hash of
    the canonically sorted subsample, so the map subsample -> output is
    deterministic and exchangeable.
    """

    def __init__(self, cfg: TreeConfig, x):
        self.cfg = cfg
        self.x = np.asarray(x, dtype=np.float64).reshape(-1)

    def __call__(self, xs_rows: np.ndarray, ys_rows: np.ndarray) -> np.ndarray:
        """Outputs on R subsamples: blocks of rows grow and predict as one forest each."""
        xs_rows = np.asarray(xs_rows, dtype=np.float64)
        ys_rows = np.asarray(ys_rows, dtype=np.float64)
        r, m, d = xs_rows.shape
        if m == 1:
            return ys_rows[:, 0].copy()
        # canonical row order: lexicographic by (x_1, ..., x_d, y)
        order = np.lexsort((ys_rows,) + tuple(np.moveaxis(xs_rows, -1, 0)[::-1]), axis=-1)
        xs_rows = np.take_along_axis(xs_rows, order[..., None], axis=1)
        ys_rows = np.take_along_axis(ys_rows, order, axis=1)
        out = np.empty(r)
        cfg = ForestConfig(tree=self.cfg)
        for lo in range(0, r, _LEARNER_BLOCK):
            xs, ys = xs_rows[lo:lo + _LEARNER_BLOCK], ys_rows[lo:lo + _LEARNER_BLOCK]
            seeds = (rng.stable_hash64(x.tobytes() + y.tobytes()) for x, y in zip(xs, ys))
            paths = [(seed, rng.PARTITION) for seed in seeds]
            ts = TrainingSet(xs.reshape(-1, d), ys.reshape(-1))
            fm = forest.fit_subsamples(ts, cfg, np.arange(ts.n).reshape(-1, m), paths)
            out[lo:lo + len(paths)] = forest.predict_per_tree(fm, self.x)
        return out


def _check_cap(count: int, what: str) -> None:
    if count > ENUM_CAP:
        raise ValueError(f"{what} = {count} exceeds the enumeration cap of {ENUM_CAP}")


def _index_subsets(n: int, s: int) -> np.ndarray:
    """All C(n, s) index subsets of range(n), one sorted row each, in combinations order."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    m_total = math.comb(n, s)
    _check_cap(m_total, f"number of subsamples C({n},{s})")
    flat = (i for combo in combinations(range(n), s) for i in combo)
    return np.fromiter(flat, dtype=np.int64, count=m_total * s).reshape(m_total, s)


def enumerate_subsamples(ts: TrainingSet, learner, s: int):
    """All C(n, s) index subsets with their learner outputs."""
    subsets = _index_subsets(ts.n, s)
    return subsets, np.asarray(learner(ts.x[subsets], ts.y[subsets]), dtype=np.float64)


def exact_vij(subsets: np.ndarray, values: np.ndarray, n: int) -> float:
    """Exact sum_i Cov(T, N_i)^2 over the uniform subsampling measure.

    ``subsets`` and ``values`` are ``enumerate_subsamples``' enumeration of
    all C(n, s) subsets of the n training rows and their learner outputs.
    """
    m_total, s = subsets.shape
    t_bar = values.mean()
    membership = np.zeros((m_total, n), dtype=bool)
    membership[np.arange(m_total)[:, None], subsets] = True
    total = 0.0
    for i in range(n):
        cov_i = float(values[membership[:, i]].sum()) / m_total - t_bar * (s / n)
        total += cov_i * cov_i
    return total


@dataclass(frozen=True)
class HajekStats:
    hajek_variance: float
    base_variance: float
    ratio: float  # nan when degenerate
    degenerate: bool  # Var(T) == 0


def _tuple_ids(q: int, m: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the m-tuples of ``itertools.product(range(q), repeat=m)``:
    the base-q digits of their row numbers."""
    place = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)[:, None] // place % q


def _multiset_lookup(dist: FiniteSupportDistribution, learner, s: int):
    """A map from (..., s) atom ids to the learner's outputs, from one call on the sorted multisets.

    A sorted row's base-q key indexes a dense (q^s,) table of the outputs;
    both callers cap q^s at ``ENUM_CAP``, so the table is at most 8 MB."""
    q = dist.size
    multisets = np.array(list(combinations_with_replacement(range(q), s)), dtype=np.int64)
    place = q ** np.arange(s - 1, -1, -1)
    table = np.empty(q**s)
    table[multisets @ place] = learner(dist.xs[multisets], dist.ys[multisets])
    return lambda ids: table[np.sort(ids, axis=-1) @ place]


def _first_atom_means(dist: FiniteSupportDistribution, probs, values) -> np.ndarray:
    """E[value | first atom = z] for every atom z, over all tuples in product order.

    The tuples whose first atom is z are one contiguous run of rows.
    """
    run = probs.size // dist.size
    cond = np.zeros(dist.size)
    for z in range(dist.size):
        rows = slice(z * run, (z + 1) * run)
        cond[z] = float(probs[rows] @ values[rows]) / dist.probs[z]
    return cond


def hajek_projection_stats(dist: FiniteSupportDistribution, learner, s: int) -> HajekStats:
    """Exact Var of the Hajek projection of T(Z_1..Z_s) vs Var(T).

    Uses Var(projection) = s * Var_z(E[T | Z_1 = z]), which holds for
    exchangeable learners over i.i.d. inputs.
    """
    _check_cap(dist.size**s, f"number of i.i.d. tuples {dist.size}^{s}")
    return _hajek_stats(dist, _multiset_lookup(dist, learner, s), s)


def _hajek_stats(dist: FiniteSupportDistribution, lookup, s: int) -> HajekStats:
    """``hajek_projection_stats`` over the q^s tuples in product order, read from ``lookup``."""
    ids = _tuple_ids(dist.size, s, 0, dist.size**s)
    probs = np.multiply.reduce(dist.probs[ids], axis=1)
    values = lookup(ids)
    e_t = float(probs @ values)
    base_var = float(probs @ (values - e_t) ** 2)
    hajek_var = s * float(dist.probs @ (_first_atom_means(dist, probs, values) - e_t) ** 2)
    if base_var == 0.0:
        return HajekStats(hajek_var, base_var, math.nan, True)
    return HajekStats(hajek_var, base_var, hajek_var / base_var, False)


@dataclass(frozen=True)
class OracleReport:
    expected_forest_value: float  # E[RF] over the n-tuples of atoms
    hajek_variance: float
    base_variance: float
    incrementality_ratio: float
    anova_lhs: float
    anova_rhs: float


def anova_bound_check(dist: FiniteSupportDistribution, learner, n: int, s: int) -> OracleReport:
    """Exact check that E[(RF - proj(RF))^2] <= (s/n)^2 Var(T).

    Enumerates every n-tuple of atoms, computes the subsampled ensemble
    RF = mean of T over all C(n, s) index subsets, its exact Hajek
    projection, and both sides of the bound. Raises AssertionError when the
    bound fails beyond 1e-10 relative slack (it cannot, for a finite-variance
    learner).
    """
    q = dist.size
    count = q**n
    _check_cap(count, f"number of i.i.d. tuples {q}^{n}")
    subsets = _index_subsets(n, s)
    lookup = _multiset_lookup(dist, learner, s)
    # the n-tuples go by in chunks of rows, each chunk's atom ids built from
    # its row numbers; probs, rf and the projection stay whole vectors
    rows = max(1, _PAIR_CHUNK // len(subsets))
    bounds = [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]
    probs, rf = np.empty(count), np.empty(count)
    for lo, hi in bounds:
        ids = _tuple_ids(q, n, lo, hi)
        probs[lo:hi] = np.multiply.reduce(dist.probs[ids], axis=1)
        t = lookup(ids[:, subsets])  # (rows, C(n, s))
        acc = np.zeros(t.shape[0])
        for col in t.T:  # each tuple's sum taken in combinations order
            acc += col
        rf[lo:hi] = acc / len(subsets)

    e_rf = float(probs @ rf)
    centred = _first_atom_means(dist, probs, rf) - e_rf
    projection = np.empty(count)
    for lo, hi in bounds:
        projection[lo:hi] = e_rf + np.add.reduce(centred[_tuple_ids(q, n, lo, hi)], axis=1)
    lhs = float(probs @ (rf - projection) ** 2)

    stats = _hajek_stats(dist, lookup, s)
    rhs = (s / n) ** 2 * stats.base_variance
    assert lhs <= rhs * (1.0 + 1e-10) + 1e-300, (
        f"ANOVA bound violated: E[(RF - proj)^2] = {lhs!r} > (s/n)^2 Var(T) = {rhs!r}"
    )
    return OracleReport(expected_forest_value=e_rf, hajek_variance=stats.hajek_variance, base_variance=stats.base_variance,
                        incrementality_ratio=stats.ratio, anova_lhs=lhs, anova_rhs=rhs)


@dataclass(frozen=True)
class IncrementalityPoint:
    s: int
    ratio: float  # nan when Var(T) is 0
    reference: float  # uniform_density_reference(s, d)
    ratio_se: float  # 0 for exact enumeration
    method: str  # "exact" or "mc"


def uniform_density_reference(s: int, d: int) -> float:
    """Reference lower-bound curve C_{f,d} / log(s)^d for a uniform density, where C_{f,d} = (d-1)!/2^(d+1)."""
    c_f = math.factorial(d - 1) / 2.0 ** (d + 1)
    return c_f / math.log(s) ** d


def incrementality_point(learner, source, s: int, seed: int = 0, outer: int = 1000,
                         inner: int = 1000) -> IncrementalityPoint:
    """Projection-variance ratio of ``learner``, such as a ``HonestTreeLearner``, at subsample size s.

    Exact enumeration when the source is finite with q^s within ENUM_CAP,
    otherwise nested Monte Carlo with ``outer`` conditioning draws and
    ``inner`` completions each (both at least 1000, per the estimator's
    accuracy floor) through ``source.sample_training``, on the stream
    ``(seed, SPLIT, s)``. s must be at least 2. Diagnostic only: the
    reference bound is asymptotic.
    """
    if s < 2:  # the reference divides by log(s), and the Monte Carlo path completes s - 1 rows
        raise ValueError(f"the incrementality curve needs s >= 2, got s={s}")
    d = source.d
    ref = uniform_density_reference(s, d)
    if isinstance(source, FiniteSupportDistribution) and source.size**s <= ENUM_CAP:
        return IncrementalityPoint(s, hajek_projection_stats(source, learner, s).ratio, ref, 0.0, "exact")
    if outer < 1000 or inner < 1000:
        raise ValueError("nested Monte Carlo needs outer >= 1000 and inner >= 1000")
    gen = rng.stream(seed, rng.SPLIT, s)
    cond_means = np.empty(outer)
    cond_vars = np.empty(outer)
    for j in range(outer):
        z = source.sample_training(gen, 1)
        rest = source.sample_training(gen, inner * (s - 1))
        xs_rows = np.concatenate([np.broadcast_to(z.x, (inner, 1, d)), rest.x.reshape(inner, s - 1, d)], axis=1)
        ys_rows = np.column_stack([np.full(inner, z.y[0]), rest.y.reshape(inner, s - 1)])
        vals = np.asarray(learner(xs_rows, ys_rows), dtype=np.float64)
        cond_means[j] = vals.mean()
        cond_vars[j] = vals.var(ddof=1)
    ratio = float(_nested_ratio(s, cond_means, cond_vars, inner))
    if math.isnan(ratio):
        return IncrementalityPoint(s, ratio, ref, 0.0, "mc")
    # spread of the ratio over 10 blocks of the outer draws, each block its own estimate
    blocks = 10
    means, variances = (a[:outer - outer % blocks].reshape(blocks, -1) for a in (cond_means, cond_vars))
    se = float(np.std(_nested_ratio(s, means, variances, inner), ddof=1)) / math.sqrt(blocks)
    return IncrementalityPoint(s, ratio, ref, se, "mc")


def _nested_ratio(s: int, cond_means: np.ndarray, cond_vars: np.ndarray, inner: int) -> np.ndarray:
    """s Var(E[T | Z_1]) / Var(T) from the outer draws along the last axis, each the
    mean and variance of ``inner`` completions; nan where the estimated Var(T) is 0."""
    between = cond_means.var(axis=-1, ddof=1)
    within = cond_vars.mean(axis=-1)
    var_t = between + within * (1.0 - 1.0 / inner)
    var_cond = between - within / inner
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var_t > 0.0, s * var_cond / var_t, math.nan)
