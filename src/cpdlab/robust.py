"""Rank-based change statistic and outlier truncation for heavy-tailed data.

The Wilcoxon-type cumulative sum compares every prefix against its
complement through pairwise rank indicators,

    T = max_k | 2 sqrt(k(n-k))/n * n^(-3/2)
               * sum_{i<=k} sum_{j>k} (1{x_i < x_j} - 1/2) |,

which depends on the data only through its ordering and therefore
tolerates arbitrarily heavy tails.  Ties contribute -1/2 through the
strict indicator, exactly as written; in particular a constant series
produces a nonzero statistic driven purely by tie terms, which we keep
as the literal value of the formula.

``zscore_truncate`` is the complementary preprocessing step: it clips
entries further than ``z`` population standard deviations from the mean
back to that band.
"""

from __future__ import annotations

import numpy as np

from .cusum import _as_rows, _peak, as_series

__all__ = [
    "wilcoxon_statistic",
    "wilcoxon_statistic_bruteforce",
    "wilcoxon_classify",
    "zscore_truncate",
]


def _scale_factors(n: int) -> np.ndarray:
    """Per-split normalisation 2 sqrt(k(n-k))/n * n^(-3/2) for k = 1..n-1.

    Shared between the fast and brute-force evaluations so that both
    multiply bit-identical factors.
    """
    k = np.arange(1, n, dtype=np.float64)
    return 2.0 * np.sqrt(k * (n - k)) / n * n**-1.5


class _Fenwick:
    """Binary indexed tree over ranks, counting inserted elements."""

    __slots__ = ("tree",)

    def __init__(self, size: int):
        self.tree = [0] * (size + 1)

    def add(self, i: int) -> None:
        tree = self.tree
        size = len(tree) - 1
        while i <= size:
            tree[i] += 1
            i += i & (-i)

    def count_leq(self, i: int) -> int:
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """U_k = #{(i, j): i <= k < j, x_i < x_j} for k = 1..n-1, in O(n log n).

    Uses the update U_k = U_{k-1} - #{i < k: x_i < x_k} + #{j > k: x_j > x_k};
    both counts come from Fenwick trees over dense ranks, with strict
    comparisons so ties are never counted.
    """
    n = x.size
    ranks = np.searchsorted(np.unique(x), x) + 1  # dense ranks in 1..r
    r = int(ranks.max())

    below = np.empty(n, dtype=np.int64)  # of earlier entries, how many are smaller
    tree = _Fenwick(r)
    for k in range(n):
        below[k] = tree.count_leq(int(ranks[k]) - 1)
        tree.add(int(ranks[k]))

    above = np.empty(n, dtype=np.int64)  # of later entries, how many are larger
    tree = _Fenwick(r)
    for k in range(n - 1, -1, -1):
        above[k] = (n - 1 - k) - tree.count_leq(int(ranks[k]))
        tree.add(int(ranks[k]))

    u = np.cumsum(above[:-1] - below[:-1])
    return u


def wilcoxon_statistic(x):
    """Return ``(T, argmax k)`` of the rank cumulative-sum scan, smallest k on ties.

    Rank-based O(n log n) evaluation; agrees exactly (same floats) with
    :func:`wilcoxon_statistic_bruteforce` because the pair sums are
    integers, the centring term is a half-integer, and both paths apply
    the same normalisation factors.  For a batch (N, n) both entries are
    length-N arrays, computed one row at a time.
    """
    x = _as_rows(x)
    n = x.shape[-1]
    k = np.arange(1, n, dtype=np.float64)
    factors = _scale_factors(n)
    stats = np.array([np.abs(factors * (_pair_sums(row) - k * (n - k) / 2.0))
                      for row in x.reshape(-1, n)])
    return _peak(stats.reshape(x.shape[:-1] + (n - 1,)), np.arange(1, n))


def wilcoxon_statistic_bruteforce(x) -> tuple[float, int]:
    """O(n^2) reference evaluation of the rank cumulative-sum scan."""
    x = as_series(x)
    n = x.size
    indicators = (x[:, None] < x[None, :]).astype(np.float64) - 0.5
    sums = np.array([indicators[: k + 1, k + 1 :].sum() for k in range(n - 1)])
    stats = np.abs(_scale_factors(n) * sums)
    best = int(np.argmax(stats))
    return float(stats[best]), best + 1


def wilcoxon_classify(x, threshold: float) -> int:
    """Flag a change when the rank scan strictly exceeds ``threshold``."""
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return int(wilcoxon_statistic(x)[0] > threshold)


def zscore_truncate(x, z: float) -> np.ndarray:
    """Clip entries beyond ``z`` population standard deviations from the mean.

    ``x`` is one series (n,) or a batch (N, n), clipped row by row.
    Entries within the band are returned unchanged; the rest move to
    ``mean +/- z*sd``.  A constant series (zero standard deviation) is
    returned as is.
    """
    if not z > 0:
        raise ValueError(f"z must be positive, got {z}")
    x = _as_rows(x)
    mean = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.mean((x - mean) ** 2, axis=-1, keepdims=True))
    clipped = np.clip(x, mean - z * sd, mean + z * sd)
    return np.where(sd == 0.0, x, clipped)
