"""Checks of command outputs; each returns a list of problems.

A command counts as failed when it exits non-zero, raises, or its check
returns any problem.  Checks hold at every seed: recipe reports must be
consistent with their own parts, and the scan checks compare against
implementations that share no code with the scan under test, on every
row where that is cheap and on a fixed subset of rows where it is not.

:func:`recipe_claims` holds the acceptance suite's bounds on the
paper's results (``tests/test_acceptance.py``), which the benchmark
counts as failures at the suite's seed and reports at other seeds.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from cpdlab.cusum import dyadic_grid
from cpdlab.robust import wilcoxon_statistic_bruteforce

# Rows closer than this to the threshold may legitimately be labelled
# either way by two exact implementations that round differently.
TIE_MARGIN = 1e-9


def _problem(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def _median_consistent(report: dict, key: str, values) -> list[str]:
    return _problem(report[key] == statistics.median(values),
                    f"{key} {report[key]} is not the median of its runs")


def check_recipe(name: str, seed: int, report: dict) -> list[str]:
    """Consistency of a recipe report with its own inputs and parts.

    These hold at every seed; the paper's bounds are :func:`recipe_claims`.
    """
    if report.get("recipe") != name or report.get("seed") != seed:
        return [f"report is for recipe {report.get('recipe')!r} seed {report.get('seed')}, "
                f"expected {name!r} seed {seed}"]
    if name in ("fig1a", "figb1"):
        scan = "cusum_mer" if name == "fig1a" else "wilcoxon_mer"
        runs = report["runs"]
        rates = [r[k] for r in runs for k in (scan, "network_mer")]
        problems = _problem(len(runs) == 3 and all(0.0 <= m <= 1.0 for m in rates),
                            "expected three runs with error rates in [0, 1]")
        problems += _median_consistent(report, "median_network_mer",
                                       [r["network_mer"] for r in runs])
        problems += _median_consistent(report, f"median_{scan}", [r[scan] for r in runs])
        key = "median_mer_difference" if name == "fig1a" else "median_mer_margin"
        return problems + _median_consistent(report, key,
                                             [r["network_mer"] - r[scan] for r in runs])
    if name == "table1":
        problems = []
        size = 5 * report["per_class_test"]
        for part in ("oracle", "adaptive", "network"):
            summary = report[part]
            correct = sum(c["correct"] for c in summary["per_class"].values())
            problems += _problem(
                summary["size"] == size and summary["accuracy"] == report[f"{part}_accuracy"]
                and summary["mer"] == (size - correct) / size,
                f"{part} scores are inconsistent with its per-class counts")
        return problems
    if name == "grid-check":
        return _problem(report["violations"] == 0,
                        f"{report['violations']} grid violations") + _problem(
            report["worst_ratio"] >= report["floor"] - 1e-9, "worst ratio below the floor")
    empirical, bound, slack = report["empirical"], report["bound"], report["slack"]
    return _problem(0.0 <= empirical <= 1.0 and report["passed"] == (empirical <= bound + slack),
                    f"verdict {report['passed']} does not follow from {empirical} "
                    f"against {bound} + {slack}")


def recipe_claims(name: str, report: dict) -> list[str]:
    """The acceptance suite's bounds on a recipe; returns the ones missed.

    The suite asserts them at its seed, 7.  They are statistical: at
    other seeds a bound can be missed by sampling noise alone.
    """
    if name == "fig1a":
        diff = report["median_mer_difference"]
        return _problem(abs(diff) <= 0.05, f"|median MER difference| {abs(diff):.4f} > 0.05")
    if name == "figb1":
        margin = report["median_mer_margin"]
        return _problem(margin <= 0.0, f"median net-minus-rank MER margin {margin:+.4f} > 0")
    if name == "table1":
        oracle, adaptive = report["oracle_accuracy"], report["adaptive_accuracy"]
        network = report["network_accuracy"]
        return (_problem(oracle >= adaptive,
                         f"oracle accuracy {oracle:.4f} < adaptive {adaptive:.4f}")
                + _problem(network >= 0.75, f"network accuracy {network:.4f} < 0.75"))
    if name == "grid-check":
        return []
    return _problem(report["passed"] is True,
                    f"bound check missed: {report['empirical']} > "
                    f"{report['bound']} + {report['slack']}")


def _transform(values: np.ndarray) -> np.ndarray:
    """CUSUM contrasts of every row, positions 1..n-1, from prefix sums."""
    n = values.shape[1]
    prefix = np.cumsum(values, axis=1)
    i = np.arange(1, n)
    head = prefix[:, :-1]
    tail = prefix[:, -1:] - head
    return np.sqrt((n - i) / (i * n)) * head - np.sqrt(i / ((n - i) * n)) * tail


def reference_cusum(values: np.ndarray) -> np.ndarray:
    return np.abs(_transform(values)).max(axis=1)


def reference_cusum_star(values: np.ndarray) -> np.ndarray:
    grid = dyadic_grid(values.shape[1])
    return np.abs(_transform(values)[:, grid - 1]).max(axis=1)


def reference_variance(x: np.ndarray) -> float:
    """Variance-change likelihood ratio, one split at a time."""
    n = x.size
    d2 = (x - x.mean()) ** 2
    total = max(d2.mean(), 1e-12)
    best = -math.inf
    for tau in range(2, n - 1):
        left = max(d2[:tau].mean(), 1e-12)
        right = max(d2[tau:].mean(), 1e-12)
        best = max(best, n * math.log(total) - tau * math.log(left)
                   - (n - tau) * math.log(right))
    return best


def reference_slope(x: np.ndarray) -> float:
    """Slope-change statistic as the square root of the best drop in residual sum.

    For each hinge location the kinked-line fit is solved by least
    squares; the drop from the straight-line residual sum is the squared
    likelihood-ratio statistic.  Location 1 is skipped: its hinge is the
    line itself.
    """
    n = x.size
    t = np.arange(1, n + 1, dtype=np.float64)
    line = np.column_stack([np.ones(n), t])
    rss_line = np.sum((x - line @ np.linalg.lstsq(line, x, rcond=None)[0]) ** 2)
    best = 0.0
    for tau in range(2, n):
        design = np.column_stack([line, np.maximum(0.0, t - tau)])
        coef = np.linalg.lstsq(design, x, rcond=None)[0]
        best = max(best, rss_line - np.sum((x - design @ coef) ** 2))
    return math.sqrt(max(best, 0.0))


def check_detect(report: dict, dataset, method: str, threshold: float | None,
                 subset_step: int, star_report: dict | None = None) -> list[str]:
    """Check a ``detect`` report against the dataset it scored.

    Every method: one finite statistic and one decision per row, the
    fingerprint of the generated data (so the CSV was parsed exactly),
    and a MER that matches the decisions.  Scan methods: decisions are
    ``statistic > threshold`` and statistics match a reference
    implementation.  ``net`` with the embedded star network: decisions
    match the ``cusum-star`` report on every row not within
    ``TIE_MARGIN`` of the threshold.
    """
    labels = dataset.labels
    decisions = np.asarray(report.get("decisions", []), dtype=np.int64)
    stats = np.asarray(report.get("statistics", []), dtype=np.float64)
    if decisions.shape != labels.shape or stats.shape[:1] != labels.shape:
        return [f"{decisions.size} decisions and {stats.shape[:1]} statistics "
                f"for {labels.size} rows"]
    summary = report["report"]
    problems = _problem(bool(np.all(np.isfinite(stats))), "non-finite statistics")
    problems += _problem(summary["fingerprint"] == dataset.fingerprint(),
                         "dataset fingerprint differs from the generated data")
    wrong = int(np.sum(decisions != labels))
    problems += _problem(summary["mer"] == wrong / labels.size,
                         f"MER {summary['mer']} but {wrong} of {labels.size} decisions wrong")
    if method == "net":
        star = np.asarray(star_report["statistics"], dtype=np.float64)
        star_decisions = np.asarray(star_report["decisions"], dtype=np.int64)
        clear = np.abs(star - threshold) > TIE_MARGIN
        mismatches = int(np.sum(decisions[clear] != star_decisions[clear]))
        return problems + _problem(
            mismatches == 0, f"{mismatches} network decisions differ from the star scan")
    problems += _problem(np.array_equal(decisions, (stats > threshold).astype(np.int64)),
                         "decisions are not statistic > threshold")
    values = dataset.values
    if method == "cusum":
        expected, rows = reference_cusum(values), np.arange(labels.size)
    elif method == "cusum-star":
        expected, rows = reference_cusum_star(values), np.arange(labels.size)
    else:
        rows = np.arange(0, labels.size, subset_step)
        reference = {
            "wilcoxon": lambda x: wilcoxon_statistic_bruteforce(x)[0],
            "variance": reference_variance,
            "slope": reference_slope,
        }[method]
        expected = np.array([reference(values[k]) for k in rows])
    if method == "wilcoxon":
        # Rank sums are exact integers, so both evaluations give equal floats.
        bad = int(np.sum(stats[rows] != expected))
    else:
        bad = int(np.sum(~np.isclose(stats[rows], expected, rtol=1e-7, atol=1e-9)))
    return problems + _problem(bad == 0, f"{bad} of {rows.size} statistics differ "
                                         f"from the {method} reference")


def check_localise(report: dict, truths, tolerance: float) -> list[str]:
    """Every series yields its true number of change points, each within ``tolerance``."""
    results = report.get("results", [])
    if len(results) != len(truths):
        return [f"{len(results)} results for {len(truths)} series"]
    miscounted = off = 0
    for result, taus in zip(results, truths):
        found = result["change_points"]
        if len(found) != len(taus):
            miscounted += 1
        elif any(abs(a - b) > tolerance for a, b in zip(found, taus)):
            off += 1
    return (_problem(miscounted == 0, f"{miscounted} series with a wrong change count")
            + _problem(off == 0, f"{off} series with a change point more than "
                                 f"{tolerance} samples off"))
