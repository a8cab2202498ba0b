"""Turn any fixed-window change classifier into a multi-change localiser.

The scheme slides a window of length ``n`` over a long series, records
the binary verdict of the classifier at every offset, smooths the
verdicts with a length-``n`` running mean, and reports one estimated
change point per maximal stretch where the running mean stays at or
above a vote threshold ``gamma``.  Within each stretch the estimate is
the position of the largest running mean (smallest index on ties).
The running mean is the exact integer count of firing windows among
``n`` consecutive ones, divided by ``n``: a unanimous stretch votes
exactly 1.0 and equal counts tie exactly, whatever ``n`` is.

Positions are 1-based: window ``i`` covers series entries ``i`` to
``i + n - 1``, and an estimated change point ``t`` means the generating
distribution shifts between entries ``t`` and ``t + 1``.

A classifier is a :class:`WindowClassifier`: a window length plus one
function that labels every window of a series in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cusum import _step_weights, as_series, dyadic_grid
from .network import predict

__all__ = [
    "WindowClassifier",
    "LocalisationResult",
    "network_window_classifier",
    "cusum_star_window_classifier",
    "sliding_labels",
    "localise",
]


@dataclass(frozen=True)
class WindowClassifier:
    """A window length plus a labeller of every window of a long series.

    ``label_series(series)`` receives a series already validated by
    :func:`sliding_labels` or :func:`localise` and returns the 0/1
    labels, one per offset: entry ``i-1`` is the verdict on the window
    starting at position ``i``.
    """

    length: int
    label_series: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.length < 4:
            raise ValueError(f"window length must be >= 4, got {self.length}")


def network_window_classifier(net, preprocessor) -> WindowClassifier:
    """Use a trained binary network as the window classifier.

    Each window is transformed by ``preprocessor``, the one the network
    was trained with, and labelled by the network's hard decision.  The
    windows stay a view of the series: :func:`cpdlab.network.predict`
    transforms and scores them a block at a time.
    """
    if not net.is_binary:
        raise ValueError("localisation needs a binary window classifier")
    length = net.architecture.input_dim // len(preprocessor.channels)
    if preprocessor.output_dim(length) != net.architecture.input_dim:
        raise ValueError("preprocessor channels do not match the network input width")

    def label_series(series):
        windows = np.lib.stride_tricks.sliding_window_view(series, length)
        return predict(net, preprocessor, windows)[1]

    return WindowClassifier(length, label_series)


def cusum_star_window_classifier(length: int, threshold: float) -> WindowClassifier:
    """Dyadic-grid CUSUM scan as a window classifier.

    Every contrast is evaluated on every window at once from prefix sums
    of the full series; this matches the per-window scan up to rounding
    of order 1e-12, which only matters for statistics exactly at the
    threshold.  The scan runs in place: each grid point's contrast is
    built in two work vectors allocated once per series and folded into
    the running maximum, and the grid's step weights are computed once
    per classifier.
    """
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be a finite positive number, got {threshold}")
    grid = dyadic_grid(length)
    head_weights, tail_weights = _step_weights(grid, length)
    steps = list(zip(grid.tolist(), head_weights.tolist(), tail_weights.tolist()))

    def label_series(series):
        n = length
        count = series.size - n + 1
        prefix = np.concatenate([[0.0], np.cumsum(series)])
        start, stop = prefix[:count], prefix[n:]
        best = np.zeros(count)
        head, tail = np.empty(count), np.empty(count)
        for t, head_weight, tail_weight in steps:
            split = prefix[t:t + count]
            np.subtract(split, start, out=head)
            head *= head_weight
            np.subtract(stop, split, out=tail)
            tail *= tail_weight
            head -= tail
            np.maximum(best, np.abs(head, out=head), out=best)
        return (best > threshold).astype(np.int64)

    return WindowClassifier(length, label_series)


def sliding_labels(series, classifier: WindowClassifier):
    """Classify every window of the series.

    Returns the labels, of length ``len(series) - n + 1``; entry ``i-1``
    is the verdict on the window starting at position ``i``.
    """
    series = as_series(series, min_len=classifier.length)
    return np.asarray(classifier.label_series(series), dtype=np.int64)


@dataclass
class LocalisationResult:
    """Estimated change points with the evidence they came from.

    ``running_mean[j]`` is the vote average over windows
    ``j+1 .. j+n`` (1-based window indices ``i = n .. len(series)-n+1``
    map to ``running_mean[i - n]``): the exact count ``k`` of firing
    windows among them divided by ``n``, so it is the correctly rounded
    ``k/n``.  ``segments`` holds the maximal 1-based index ranges where
    the running mean reached the vote threshold, one estimated change
    point per segment.
    """

    change_points: list[int]
    segments: list[tuple[int, int]]
    running_mean: np.ndarray
    labels: np.ndarray
    window_length: int
    vote_threshold: float


def localise(series, classifier: WindowClassifier, gamma: float = 0.5) -> LocalisationResult:
    """Estimate all change points of ``series`` with a sliding window vote.

    Requires ``len(series) >= 2 * classifier.length`` so at least one
    full running mean exists.  ``gamma`` is the vote threshold in
    (0, 1].  Raising it only shrinks the stretches: for ``g1 < g2``
    every segment at ``g2`` lies inside a segment at ``g1``.  It can
    still add estimates, as a dip in the running mean between two
    peaks splits one segment into two.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    n = classifier.length
    series = as_series(series, min_len=2 * n)
    labels = np.asarray(classifier.label_series(series), dtype=np.int64)
    # Integer window sums from one cumulative count, so the vote is the
    # correctly rounded k/n: a sum of n rounded copies of 1/n can leave
    # a unanimous vote below 1.0 when n is not a power of two.
    votes = np.concatenate(([0], np.cumsum(labels)))
    running = (votes[n:] - votes[:-n]) / n

    # Segments run between the rising and falling edges of the vote;
    # ``stops`` are exclusive.
    hot = np.concatenate(([False], running >= gamma, [False]))
    edges = np.flatnonzero(hot[1:] != hot[:-1])
    starts, stops = edges[0::2].tolist(), edges[1::2].tolist()
    segments = [(start + n, stop - 1 + n) for start, stop in zip(starts, stops)]  # 1-based
    change_points = [start + int(np.argmax(running[start:stop])) + n
                     for start, stop in zip(starts, stops)]
    return LocalisationResult(change_points, segments, running, labels, n, gamma)
