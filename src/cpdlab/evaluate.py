"""Scan scoring, threshold tuning and Monte-Carlo bound checks.

:func:`scan_statistics` maps a scan method name to its batch kernel, and
:func:`tune_threshold` picks a scan's threshold on labelled training
draws, for ``detect --train`` and the recipes; the Figure 1 recipes score
their test draws a streamed block of rows at a time (:mod:`cpdlab.recipes`).
Every report carries the seed and a dataset fingerprint so that any
number appearing anywhere downstream can be regenerated bit-exactly.
Monte-Carlo checks compare an empirical rate against a closed-form
bound, allowing one-sided binomial slack of three standard deviations
computed at the bound; the bounds are inequalities, so the slack only
absorbs simulation noise.  Scans score a batch in blocks of rows, and
the Gaussian checks share one loop that draws the noise, adds the change
signals and scores a block at a time, so their memory is a few blocks
plus a few numbers per replication, whatever the number of replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cusum, glr, robust
from .cusum import _row_blocks
from .localise import cusum_star_window_classifier, localise
from .simulate import gen_piecewise

# The names of the scan methods: the keys of :func:`scan_statistics`' kernel table.
SCAN_METHODS = ("cusum", "cusum-star", "wilcoxon", "variance", "slope")
# Points of :func:`tune_threshold`'s grid over [min, max] of the statistics.
THRESHOLD_GRID_SIZE = 200

__all__ = [
    "SCAN_METHODS",
    "EvalReport",
    "BoundCheck",
    "LocalisationErrorReport",
    "mer_from_predictions",
    "tune_threshold",
    "scan_statistics",
    "monte_carlo_bound_check",
    "localisation_rmse",
    "batch_cusum_statistics",
]


@dataclass
class EvalReport:
    """Accuracy summary of one classifier on one labelled dataset."""

    mer: float
    accuracy: float
    size: int
    per_class: dict[int, dict] = field(default_factory=dict)
    threshold: float | None = None
    seed: int | None = None
    fingerprint: str | None = None


def mer_from_predictions(true_labels, predicted, *, threshold=None, seed=None,
                         fingerprint=None) -> EvalReport:
    """Score predictions against labels, with per-class true-positive rates."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape or true_labels.ndim != 1:
        raise ValueError("labels and predictions must be equal-length vectors")
    if true_labels.size == 0:
        raise ValueError("cannot score an empty dataset")
    wrong = int(np.sum(true_labels != predicted))
    size = true_labels.size
    per_class = {}
    for label in np.unique(true_labels):
        mask = true_labels == label
        count = int(mask.sum())
        correct = int(np.sum(predicted[mask] == label))
        per_class[int(label)] = {
            "count": count,
            "correct": correct,
            "tpr": correct / count,
        }
    return EvalReport(
        mer=wrong / size,
        accuracy=1.0 - wrong / size,
        size=size,
        per_class=per_class,
        threshold=threshold,
        seed=seed,
        fingerprint=fingerprint,
    )


def tune_threshold(stats, labels) -> float:
    """Grid-search the decision threshold minimising training MER.

    ``stats`` holds one statistic per training example and ``labels``
    its 0/1 (or boolean) label; classification is ``statistic > threshold``.
    The grid spans [min, max] of the statistics with ``THRESHOLD_GRID_SIZE``
    points.  Of the minimisers, the smallest threshold is returned.
    """
    stats = np.asarray(stats, dtype=np.float64)
    labels = np.asarray(labels)
    if stats.ndim != 1 or stats.shape != labels.shape:
        raise ValueError("stats and labels must be equal-length vectors")
    if stats.size == 0:
        raise ValueError("cannot tune on an empty dataset")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"a threshold is tuned on 0/1 labels, got {np.unique(labels).tolist()}")
    grid = np.linspace(stats.min(), stats.max(), THRESHOLD_GRID_SIZE)
    preds = stats[None, :] > grid[:, None]
    errors = np.sum(preds != labels[None, :].astype(bool), axis=1)
    best = int(np.argmin(errors))  # first minimiser = smallest threshold
    return float(grid[best])


def batch_cusum_statistics(X: np.ndarray) -> np.ndarray:
    """Full-scan statistics max_i |v_i . x| for every row of ``X``."""
    return scan_statistics("cusum", X)


def scan_statistics(method: str, X: np.ndarray) -> np.ndarray:
    """Scan statistic of every row of ``X`` for a scan ``method``.

    A batch (N, n) is scored in blocks of rows of at most
    ``cusum.SCAN_BLOCK`` entries, and the blocks' statistics are
    concatenated.  Every kernel in the table scores each row on its own,
    so the result is bit for bit that of one call on the whole batch.
    The table is built on each call, so that it holds whatever kernel
    the modules bind at that moment, a traced wrapper included.
    """
    scans = dict(zip(SCAN_METHODS, (cusum.cusum_statistic, cusum.cusum_star_statistic,
                                    robust.wilcoxon_statistic, glr.lr_variance_scan,
                                    glr.lr_slope_scan)))
    if method not in scans:
        raise ValueError(f"unknown method {method!r}")
    X = np.asarray(X)
    blocks = _row_blocks(len(X), X.shape[-1]) if X.ndim == 2 else []
    if len(blocks) < 2:
        return scans[method](X)[0]
    return np.concatenate([scans[method](X[block])[0] for block in blocks])


@dataclass
class BoundCheck:
    """Outcome of one Monte-Carlo comparison against a closed-form bound."""

    kind: str
    empirical: float
    bound: float
    slack: float
    passed: bool
    reps: int
    seed: int
    params: dict = field(default_factory=dict)


def monte_carlo_bound_check(kind: str, reps: int = 20000, seed: int = 0) -> BoundCheck:
    """Estimate an error rate by simulation and compare it with its bound.

    Kinds
    -----
    ``null_rate``
        False positive rate of the full scan at the null threshold
        ``sqrt(2 log(n/eps))`` on i.i.d. Gaussian noise; bound ``eps``.
    ``detection_miss``
        Miss rate at the same threshold when the change SNR is
        ``snr_multiplier`` times the detection boundary
        ``sqrt(8 log(n/eps) / n)``; bound ``eps``.
    ``snr_risk``
        Misclassification of the scan at threshold ``B sqrt(n)/2`` under
        a prior mixing no-change with changes of SNR ``snr_multiplier * B``
        at uniform locations; bound ``n exp(-n B^2 / 8)``.
    ``localisation``
        Failure rate of the sliding-window localiser (wrong count, or
        any estimate off by more than ``2 B^2 / jump^2``) on a
        piecewise-constant signal; target failure rate ``failure_bound``
        (0.05) with no slack, since the requirement is a
        success-frequency floor rather than a closed-form tail bound.

    Each kind's settings are its check's keyword defaults, listed in the
    report's ``params``.  Each check draws from one generator seeded with
    ``seed``: first each series' parameters (the steps for
    ``detection_miss``; the labels, then the changed series' steps for
    ``snr_risk``), then the noise one block of rows at a time in the loop
    the three Gaussian kinds share, so the rate does not depend on the
    block size; ``localisation`` draws one seed per replication.
    ``reps`` must be at least 1000 (100 for ``localisation``).  Pass
    criterion: ``empirical <= bound + 3 * sqrt(bound(1-bound)/reps)``
    (slack 0 for ``localisation``).
    """
    if kind not in _CHECKS:
        raise ValueError(f"unknown bound check kind {kind!r}")
    check, floor, sigmas = _CHECKS[kind]
    if reps < floor:
        raise ValueError(f"need at least {floor} replications, got {reps}")
    empirical, bound, used = check(np.random.default_rng(seed), reps)
    slack = sigmas * math.sqrt(max(bound * (1.0 - bound), 0.0) / reps)
    return BoundCheck(
        kind=kind,
        empirical=empirical,
        bound=float(bound),
        slack=float(slack),
        passed=bool(empirical <= bound + slack),
        reps=reps,
        seed=seed,
        params=used,
    )


# Each check returns (empirical rate, bound, parameters used).

def _null_rate(rng, reps, /, *, n=100, eps=0.05):
    threshold = cusum.null_threshold(n, eps)
    none = np.zeros(0, dtype=np.int64)
    rate = _scan_error_rate(rng, n, threshold, np.zeros(reps, dtype=bool), none, none)
    return rate, eps, {"n": n, "eps": eps, "threshold": threshold}


def _detection_miss(rng, reps, /, *, n=100, eps=0.05, snr_multiplier=1.05):
    threshold = cusum.null_threshold(n, eps)
    target_snr = snr_multiplier * math.sqrt(8.0 * math.log(n / eps) / n)
    taus, amplitudes = _mean_change_signals(rng, reps, n, target_snr)
    rate = _scan_error_rate(rng, n, threshold, np.ones(reps, dtype=bool), taus, amplitudes)
    return rate, eps, {"n": n, "eps": eps, "snr_multiplier": snr_multiplier,
                       "threshold": threshold}


def _snr_risk(rng, reps, /, *, n=100, snr_bound=0.8, snr_multiplier=1.05,
              change_fraction=0.5):
    threshold = cusum.snr_threshold(n, snr_bound)
    labels = rng.random(reps) < change_fraction
    taus, amplitudes = _mean_change_signals(rng, np.count_nonzero(labels), n,
                                            snr_multiplier * snr_bound)
    rate = _scan_error_rate(rng, n, threshold, labels, taus, amplitudes)
    used = {"n": n, "snr_bound": snr_bound, "snr_multiplier": snr_multiplier,
            "change_fraction": change_fraction, "threshold": threshold}
    return rate, cusum.misclassification_bound(n, snr_bound), used


def _scan_error_rate(rng, n, threshold, labels, taus, amplitudes):
    """Share of rows whose full-scan decision ``statistic > threshold`` is not their label.

    The ``k``-th row labelled a change gets the step ``taus[k], amplitudes[k]``
    on its noise, which is drawn one block of rows at a time;
    ``standard_normal`` fills values in order, so the rate is that of one
    ``(len(labels), n)`` draw.
    """
    changed = np.flatnonzero(labels)
    errors = 0
    for block in _row_blocks(labels.size, n):
        rows = rng.standard_normal((block.stop - block.start, n))
        first, last = np.searchsorted(changed, (block.start, block.stop))
        rows[changed[first:last] - block.start] += _steps(n, taus[first:last],
                                                          amplitudes[first:last])
        errors += int(np.count_nonzero((batch_cusum_statistics(rows) > threshold)
                                       != labels[block]))
    return errors / labels.size


def _mean_change_signals(rng, count, n, target_snr):
    """``(taus, amplitudes)`` of steps of SNR ``target_snr`` at uniform locations and signs."""
    taus = rng.integers(1, n, size=count)
    eta = taus / n
    deltas = target_snr / np.sqrt(eta * (1.0 - eta))
    signs = np.where(rng.integers(0, 2, size=count) == 1, 1.0, -1.0)
    return taus, signs * deltas


def _steps(n, taus, amplitudes):
    """Length-``n`` step signals, one row per change, of ``amplitudes`` after ``taus``."""
    return (np.arange(n)[None, :] >= taus[:, None]) * amplitudes[:, None]


def _localisation_failure_rate(rng, reps, /, *, window=128, length=3500,
                               taus=(990, 1691, 2733), means=(0.0, 11.0, -1.0, 12.0),
                               snr_bound=1.8, gamma=0.5, noise_sd=1.0, failure_bound=0.05):
    jumps = np.abs(np.diff(np.asarray(means)))
    if np.any(jumps <= 2.0 * math.sqrt(2.0) * snr_bound):
        raise ValueError("every jump must exceed 2*sqrt(2)*snr_bound")
    tolerances = 2.0 * snr_bound**2 / jumps**2
    threshold = cusum.snr_threshold_star(window, snr_bound)
    classifier = cusum_star_window_classifier(window, threshold)

    failures = 0
    seeds = rng.integers(0, 2**63 - 1, size=reps)
    for rep_seed in seeds:
        series, _ = gen_piecewise(length, taus, means, noise_sd=noise_sd,
                                  seed=int(rep_seed), min_spacing=2 * window)
        found = np.asarray(localise(series, classifier, gamma).change_points, dtype=np.float64)
        if found.size != len(taus) or np.any(np.abs(found - np.asarray(taus)) > tolerances):
            failures += 1
    used = {"window": window, "length": length, "taus": taus, "means": means,
            "snr_bound": snr_bound, "gamma": gamma, "noise_sd": noise_sd,
            "threshold": threshold, "tolerances": tolerances}
    return failures / reps, failure_bound, used


# Each kind's check, fewest replications and slack in binomial standard deviations.
# The 3-sigma slack needs enough replications to be meaningful; the
# localisation success-floor experiment is specified at 500 replications.
_CHECKS = {
    "null_rate": (_null_rate, 1000, 3.0),
    "detection_miss": (_detection_miss, 1000, 3.0),
    "snr_risk": (_snr_risk, 1000, 3.0),
    "localisation": (_localisation_failure_rate, 100, 0.0),
}


@dataclass
class LocalisationErrorReport:
    """Root mean squared location error over single-change cases.

    Cases whose estimated change count differs from one are excluded
    from the RMSE and reported as detection failures instead, keeping
    the error finite and interpretable.
    """

    rmse: float
    scored: int
    failed: int


def localisation_rmse(estimates, truths) -> LocalisationErrorReport:
    """Score single-change location estimates against true locations.

    ``estimates`` is a sequence of per-case change-point lists (as
    produced by the localiser); ``truths`` the matching true locations.
    """
    if len(estimates) != len(truths):
        raise ValueError("estimates and truths must have equal length")
    errors = []
    failed = 0
    for est, true_tau in zip(estimates, truths):
        est = list(np.atleast_1d(est))
        if len(est) != 1:
            failed += 1
            continue
        errors.append(float(est[0]) - float(true_tau))
    rmse = float(np.sqrt(np.mean(np.square(errors)))) if errors else float("nan")
    return LocalisationErrorReport(rmse=rmse, scored=len(errors), failed=failed)
