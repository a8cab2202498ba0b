"""Rank-based change statistic and outlier truncation for heavy-tailed data.

The Wilcoxon-type cumulative sum compares every prefix against its
complement through pairwise rank indicators,

    T = max_k | 2 sqrt(k(n-k))/n * n^(-3/2)
               * sum_{i<=k} sum_{j>k} (1{x_i < x_j} - 1/2) |,

which depends on the data only through its ordering and therefore
tolerates arbitrarily heavy tails.  Ties contribute -1/2 through the
strict indicator, exactly as written; in particular a constant series
produces a nonzero statistic driven purely by tie terms, which we keep
as the literal value of the formula.  The pair sums are counted from one
stable sort of each row, for a whole (N, n) batch at once.

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
    "zscore_truncate",
]


def _scale_factors(n: int) -> np.ndarray:
    """Per-split normalisation 2 sqrt(k(n-k))/n * n^(-3/2) for k = 1..n-1.

    Shared between the fast and brute-force evaluations so that both
    multiply bit-identical factors.
    """
    k = np.arange(1, n, dtype=np.float64)
    return 2.0 * np.sqrt(k * (n - k)) / n * n**-1.5


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """U_k = #{(i, j): i <= k < j, x_i < x_j} for k = 1..n-1, along the last axis.

    Uses U_k = sum_{i<=k} (G_i + E_i) - k(k-1)/2 with G_i = #{j: x_j > x_i}
    and E_i = #{j < i: x_j = x_i}: of the k(k-1)/2 pairs inside the prefix,
    the untied ones are counted once by G and the tied ones once by E.
    After one stable sort, an entry at sorted position p in the tie group
    [f, l] has G = n-1-l and E = p-f; n-1-l is f of the reversed order.
    All counts are exact integers.
    """
    n = x.shape[-1]
    # In-place steps and early deletes keep the scratch memory of a batch
    # near three arrays of its size.
    order = np.argsort(x, axis=-1, kind="stable")
    s = np.take_along_axis(x, order, axis=-1)
    starts = np.ones(s.shape, dtype=bool)  # sorted position p opens a tie group
    starts[..., 1:] = s[..., 1:] != s[..., :-1]
    del s
    pos = np.arange(n)
    first = np.where(starts, pos, 0)
    np.maximum.accumulate(first, axis=-1, out=first)
    counts = np.where(np.roll(starts, -1, axis=-1)[..., ::-1], pos, 0)  # group ends
    del starts
    np.maximum.accumulate(counts, axis=-1, out=counts)
    counts = counts[..., ::-1]
    counts += pos
    counts -= first  # G + E in sorted order
    del first
    u = np.empty_like(counts)
    np.put_along_axis(u, order, counts, axis=-1)
    del order, counts
    u = np.cumsum(u, axis=-1, out=u)[..., :-1]
    k = pos[1:]
    u -= k * (k - 1) // 2
    return u


def wilcoxon_statistic(x):
    """Return ``(T, argmax k)`` of the rank cumulative-sum scan, smallest k on ties.

    One stable sort per row gives the integer pair sums in O(n log n)
    (see :func:`_pair_sums`); they agree exactly (same floats) with
    :func:`wilcoxon_statistic_bruteforce` because the pair sums are
    integers, the centring term is a half-integer, and both paths apply
    the same normalisation factors.  For a batch (N, n) both entries are
    length-N arrays.
    """
    x = _as_rows(x)
    n = x.shape[-1]
    k = np.arange(1, n, dtype=np.float64)
    stats = _pair_sums(x) - k * (n - k) / 2.0
    stats *= _scale_factors(n)
    return _peak(np.abs(stats, out=stats), np.arange(1, n))


def wilcoxon_statistic_bruteforce(x) -> tuple[float, int]:
    """O(n^2) reference evaluation of the rank cumulative-sum scan."""
    x = as_series(x)
    n = x.size
    indicators = (x[:, None] < x[None, :]).astype(np.float64) - 0.5
    sums = np.array([indicators[: k + 1, k + 1 :].sum() for k in range(n - 1)])
    stats = np.abs(_scale_factors(n) * sums)
    best = int(np.argmax(stats))
    return float(stats[best]), best + 1


def zscore_truncate(x, z: float) -> np.ndarray:
    """Clip entries beyond ``z`` population standard deviations from the mean.

    ``x`` is one series (n,) or a batch (N, n), clipped row by row, and
    ``z`` must be positive and finite.  Entries within the band are
    returned unchanged; the rest move to ``mean +/- z*sd``.  A constant
    series (zero standard deviation) is returned as is.
    """
    if not 0 < z < np.inf:
        raise ValueError(f"z must be positive and finite, got {z}")
    x = _as_rows(x)
    mean = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.mean((x - mean) ** 2, axis=-1, keepdims=True))
    clipped = np.clip(x, mean - z * sd, mean + z * sd)
    return np.where(sd == 0.0, x, clipped)
