"""Small statistics helpers: tie-aware ranks and Spearman correlation."""
from __future__ import annotations

import numpy as np


def rankdata_average(x) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the average of their ranks.

    Each NaN compares unequal to everything, so it gets a rank of its own.
    """
    a = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(a, kind="stable")
    s = a[order]
    # runs of equal values in sorted order span positions first..last
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    last = np.append(first[1:], a.size) - 1
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def pearson(x, y) -> float | None:
    """Pearson correlation; None when either vector has zero variance."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0 or not np.isfinite(denom):
        return None
    return float((a * b).sum() / denom)


def spearman(xs, ys) -> float | None:
    """Rank correlation with average ranks for ties.

    Returns None (rather than a number) when either input is constant, since
    the correlation is undefined there.
    """
    a = np.asarray(xs, dtype=np.float64).ravel()
    b = np.asarray(ys, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise ValueError("need at least 2 observations")
    return pearson(rankdata_average(a), rankdata_average(b))
