"""Standard-normal helpers and a Kolmogorov-Smirnov normality test.

``norm_ppf`` is the standard library's ``statistics.NormalDist().inv_cdf``
(Wichura's AS241, absolute error near 1e-15), and ``norm_cdf`` is erfc-based.
The KS p-value uses the asymptotic Kolmogorov survival series with Stephens'
finite-sample effective sample size, accurate for the moderate sample counts
used here (n >= 50).
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x):
    """Standard normal CDF via erfc (vectorized)."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * np.array([math.erfc(-v / _SQRT2) for v in x.ravel()]).reshape(x.shape)


def norm_ppf(p: float) -> float:
    """Inverse standard normal CDF: the standard library's ``NormalDist().inv_cdf``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    from statistics import NormalDist  # about 4 ms to import, so only when a quantile is asked for

    return NormalDist().inv_cdf(p)


def ks_statistic(sample) -> float:
    """One-sample KS distance of ``sample`` from the standard normal."""
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.size
    if n < 1:
        raise ValueError("empty sample")
    cdf = norm_cdf(xs)
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lam) = 2 sum (-1)^{j-1} exp(-2 j^2 lam^2)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_normal_pvalue(sample) -> tuple[float, float]:
    """(KS statistic, asymptotic p-value) against the standard normal."""
    d = ks_statistic(sample)
    n = len(sample)
    en = math.sqrt(n)
    return d, kolmogorov_sf(d * (en + 0.12 + 0.11 / en))
