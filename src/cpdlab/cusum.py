"""CUSUM-type scan statistics for a single change in mean.

The scan works with the unit-norm step contrasts

    v_i = ( sqrt((n-i)/(i*n)) repeated i times,
           -sqrt(i/((n-i)*n)) repeated n-i times ),    i = 1, ..., n-1,

so that ``|v_i . x|`` measures the evidence for a mean shift directly
after position ``i`` (all positions are 1-based throughout this package).
Under i.i.d. Gaussian noise this is the likelihood-ratio statistic for a
change at ``i``, and the full scan maximises it over all ``i``.  A
dyadic-grid variant evaluates only O(log n) contrasts and loses at most
a fixed fraction of the peak response (see :func:`step_response`).

The transform and both statistics work along the last axis, on one
series of shape (n,) or a batch of shape (N, n); a scan classifies a
series as changed when its statistic strictly exceeds the threshold,
``statistic > threshold``, so a tie classifies as 0.  All functions are
pure; the contrast matrix returned by :func:`cusum_basis` is cached per
length and marked read-only, as every caller of that length shares it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "as_series",
    "cusum_basis",
    "cusum_transform",
    "cusum_statistic",
    "dyadic_grid",
    "cusum_star_statistic",
    "null_threshold",
    "snr_threshold",
    "snr_threshold_star",
    "misclassification_bound",
    "misclassification_bound_star",
    "snr",
    "step_response",
]


def as_series(x, min_len: int = 2) -> np.ndarray:
    """Validate and return ``x`` as a 1-D float64 array of length >= ``min_len``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
    return _as_rows(arr, min_len)


def _as_rows(x, min_len: int = 2) -> np.ndarray:
    """Validate one series of shape (n,) or a batch of shape (N, n) as float64."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"series must have shape (n,) or (N, n), got shape {arr.shape}")
    if arr.shape[-1] < min_len:
        raise ValueError(f"series must have length >= {min_len}, got {arr.shape[-1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite entries")
    # Row-major layout makes each row's sums add in the same order as for
    # a single series, so batch and per-row results agree bit for bit.
    return np.ascontiguousarray(arr)


# Float64 entries per block of rows that a batch stage takes at once
# (512 KiB), so that each of its temporaries fits in a 2 MiB L2 cache
# and a batch of any size needs only a few blocks of scratch memory.
SCAN_BLOCK = 2**16


def _row_blocks(rows: int, n: int) -> list[slice]:
    """Consecutive slices of at most ``SCAN_BLOCK // n`` (at least one) of ``rows`` rows."""
    step = max(1, SCAN_BLOCK // max(n, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


@functools.lru_cache(maxsize=64)
def cusum_basis(n: int) -> np.ndarray:
    """Return the (n-1, n) matrix whose i-th row is the step contrast v_i.

    Rows are unit-norm, sum to zero, and are cached per ``n``.  The
    returned array is read-only; copy before mutating.
    """
    if n < 2:
        raise ValueError(f"basis needs length >= 2, got n={n}")
    i = np.arange(1, n, dtype=np.float64)[:, None]
    cols = np.arange(1, n + 1, dtype=np.float64)[None, :]
    basis = _step_contrast(cols <= i, cols > i, i, n)
    basis.flags.writeable = False
    return basis


def _step_weights(i, n: int):
    """Weights ``(a, b)`` with ``v_i . x = a * head - b * tail`` for a length-``n`` series.

    ``head`` is the sum of the first ``i`` entries and ``tail`` the sum of
    the remaining ``n - i``.
    """
    return np.sqrt((n - i) / (i * n)), np.sqrt(i / ((n - i) * n))


def _step_contrast(head, tail, i, n: int):
    """Contrast v_i . x from the head and tail sums; ``head``, ``tail`` and ``i`` broadcast."""
    head_weight, tail_weight = _step_weights(i, n)
    return head_weight * head - tail_weight * tail


def cusum_transform(x) -> np.ndarray:
    """Apply every step contrast along the last axis of ``x``.

    ``x`` is one series (n,) or a batch (N, n); the result has shape
    (n-1,) or (N, n-1).  Evaluated in O(n) per series via prefix sums;
    entry ``i-1`` equals ``v_i . x``.  The map is linear in ``x`` and
    annihilates constant shifts.  The work is done in place: the prefix
    sums become the result and the tail sums take one more buffer, so a
    batch needs two arrays of its size.  The result is a view of the
    leading n-1 columns of the prefix-sum buffer.
    """
    x = _as_rows(x)
    n = x.shape[-1]
    head_weight, tail_weight = _step_weights(np.arange(1, n), n)
    s = np.cumsum(x, axis=-1)
    head = s[..., :-1]
    tail = np.subtract(s[..., -1:], head)
    tail *= tail_weight
    head *= head_weight
    head -= tail
    return head


def _peak(t: np.ndarray, points: np.ndarray):
    """Largest entry of ``t`` along the last axis and its scan point, first on ties."""
    k = np.argmax(t, axis=-1)
    if t.ndim == 1:
        return float(t[k]), int(points[k])
    return t.max(axis=-1), points[k]


def cusum_statistic(x):
    """Return ``(max_i |v_i . x|, argmax i)`` with the smallest i on ties.

    For a batch (N, n) both entries are length-N arrays.
    """
    t = cusum_transform(x)
    return _peak(np.abs(t, out=t), np.arange(1, t.shape[-1] + 1))


@functools.lru_cache(maxsize=64)
def dyadic_grid(n: int) -> np.ndarray:
    """Return the sorted dyadic scan grid {2^q} | {n - 2^q}, q = 0..floor(log2(n/2)).

    Coinciding points are stored once, so the size is at most
    2*floor(log2(n)) and can be smaller (n=8 collapses the duplicate 4).
    """
    if n < 4:
        raise ValueError(f"dyadic grid needs length >= 4, got n={n}")
    q_max = (n // 2).bit_length() - 1
    points = {1 << q for q in range(q_max + 1)}
    points |= {n - (1 << q) for q in range(q_max + 1)}
    grid = np.array(sorted(points), dtype=np.int64)
    grid.flags.writeable = False
    return grid


def cusum_star_statistic(x):
    """Return ``(max over the dyadic grid of |v_t . x|, argmax t)``.

    For a batch (N, n) both entries are length-N arrays.
    """
    x = _as_rows(x, min_len=4)
    grid = dyadic_grid(x.shape[-1])
    return _peak(np.abs(cusum_transform(x)[..., grid - 1]), grid)


def null_threshold(n: int, eps: float) -> float:
    """Threshold sqrt(2 log(n/eps)) whose null exceedance probability is <= eps."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.sqrt(2.0 * math.log(n / eps))

def snr_threshold(n: int, snr_bound: float) -> float:
    """Full-scan threshold B*sqrt(n)/2 for problems with SNR 0 or > B."""
    _check_snr_args(n, snr_bound)
    return snr_bound * math.sqrt(n) / 2.0


def snr_threshold_star(n: int, snr_bound: float) -> float:
    """Dyadic-grid threshold B*sqrt(3n)/6 for problems with SNR 0 or > B."""
    _check_snr_args(n, snr_bound)
    return snr_bound * math.sqrt(3.0 * n) / 6.0


def misclassification_bound(n: int, snr_bound: float) -> float:
    """Risk bound n*exp(-n B^2/8) for the full scan at threshold B*sqrt(n)/2."""
    _check_snr_args(n, snr_bound)
    return n * math.exp(-n * snr_bound**2 / 8.0)


def misclassification_bound_star(n: int, snr_bound: float) -> float:
    """Risk bound 2*floor(log2 n)*exp(-n B^2/24) for the dyadic-grid scan.

    Only the scan-error term is computed; the training-complexity term of
    the corresponding generalisation bound carries an unspecified constant
    and is checked by Monte Carlo instead (see :mod:`cpdlab.evaluate`).
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got n={n}")
    _check_snr_args(n, snr_bound)
    return 2 * (n.bit_length() - 1) * math.exp(-n * snr_bound**2 / 24.0)


def snr(n: int, tau: int, mu_left: float, mu_right: float) -> float:
    """Signal-to-noise ratio |mu_L - mu_R| * sqrt(tau*(n-tau))/n of a mean change."""
    if not 1 <= tau <= n - 1:
        raise ValueError(f"tau must lie in [1, n-1], got tau={tau}, n={n}")
    return abs(mu_left - mu_right) * math.sqrt(tau * (n - tau)) / n


def step_response(n: int, tau, delta: float = 1.0) -> np.ndarray:
    """Noiseless scan response |v_i . mu| of a step of size ``delta`` at ``tau``.

    Closed form: the response rises like delta*(n-tau)*sqrt(i/(n(n-i)))
    up to the change and decays like delta*tau*sqrt((n-i)/(n i)) after it,
    peaking at i = tau with value delta*sqrt(tau*(n-tau)/n).  Each row is
    therefore nondecreasing in i up to tau and nonincreasing after it, and
    this holds for the computed floats too: ``i/(n(n-i))`` and
    ``(n-i)/(n i)`` are correctly rounded monotone functions of i, and so
    are ``sqrt`` and the product with the positive factor.  Entry ``i-1``
    of the returned vector is the response at scan position ``i``.  An
    array of ``T`` change locations gives one response per row, shape
    ``(T, n-1)``; a scalar ``tau`` gives shape ``(n-1,)``.
    """
    t = np.asarray(tau)
    if np.any((t < 1) | (t > n - 1)):
        raise ValueError(f"tau must lie in [1, n-1], got tau={tau}, n={n}")
    return abs(delta) * _unit_step_response(n, t[..., None], np.arange(1, n, dtype=np.float64))


def _unit_step_response(n: int, tau, i):
    """Closed-form response to a unit step at ``tau`` at scan positions ``i``.

    ``tau`` and ``i`` broadcast against each other; positions must lie in
    [1, n-1].  :func:`step_response` evaluates it on every position.
    """
    rising = (n - tau) * np.sqrt(i / (n * (n - i)))
    falling = tau * np.sqrt((n - i) / (n * i))
    return np.where(i <= tau, rising, falling)


def _check_snr_args(n: int, snr_bound: float) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not (math.isfinite(snr_bound) and snr_bound > 0):
        raise ValueError(f"snr_bound must be a finite positive number, got {snr_bound}")
