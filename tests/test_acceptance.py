"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line (visible
with ``pytest -s``) and then asserts, so the pytest verdict per test is
the per-criterion verdict.  Experiment recipes are run once per session
and cached by the ``recipe_report`` fixture of ``conftest.py``; the
determinism criterion reruns every recipe and compares serialised bytes.
"""

import math
import time

import numpy as np
import pytest

from cpdlab import cusum, glr, robust
from cpdlab.dataio import jsonable, write_report
from cpdlab.evaluate import batch_cusum_statistics
from cpdlab.network import Architecture, embed_cusum, forward, grad_check
from cpdlab.network import _init_network
from cpdlab.recipes import RECIPES, run_recipe

SEED = 7


def _verdict(number, name, ok, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _batch_star_statistics(X):
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    s = np.cumsum(X, axis=1)
    i = np.arange(1, n)
    head = s[:, :-1]
    tail = s[:, -1][:, None] - head
    transform = np.sqrt((n - i) / (i * n)) * head - np.sqrt(i / ((n - i) * n)) * tail
    return np.abs(transform[:, cusum.dyadic_grid(n) - 1]).max(axis=1)


def test_criterion_01_embedding_equivalence():
    start = time.time()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    checked = 0
    for n in (2, 10, 100):
        lam = cusum.null_threshold(n, 0.3)
        X = rng.standard_normal((10_000, n))
        half = 5_000
        taus = rng.integers(1, n, half)
        shifts = rng.uniform(0.5, 3.0, half) * np.where(rng.integers(0, 2, half) == 1, 1, -1)
        X[:half] += (np.arange(n)[None, :] >= taus[:, None]) * shifts[:, None]

        stats = batch_cusum_statistics(X)
        margin = np.abs(stats - lam) > 1e-9
        _, labels = forward(embed_cusum(n, lam, "full"), X)
        mismatches += int(np.sum(labels[margin] != (stats[margin] > lam)))
        checked += int(margin.sum())

        if n == 2:
            # The dyadic grid is undefined below length 4: the embedding
            # and the scan statistic must agree by both rejecting.
            with pytest.raises(ValueError):
                embed_cusum(2, lam, "star")
            with pytest.raises(ValueError):
                cusum.cusum_star_statistic(X[0])
            continue
        star_stats = _batch_star_statistics(X)
        star_margin = np.abs(star_stats - lam) > 1e-9
        _, star_labels = forward(embed_cusum(n, lam, "star"), X)
        mismatches += int(np.sum(star_labels[star_margin] != (star_stats[star_margin] > lam)))
        checked += int(star_margin.sum())

    direction_err = 0.0
    for n in (10, 100):
        dirs = glr.glr_directions(glr.mean_change_design(n))
        basis = cusum.cusum_basis(n)
        for k, tau in enumerate(dirs.taus):
            v, u = dirs.directions[k], basis[tau - 1]
            direction_err = max(direction_err, min(np.abs(v - u).max(), np.abs(v + u).max()))

    elapsed = time.time() - start
    ok = mismatches == 0 and direction_err < 1e-10 and elapsed < 30
    assert _verdict(1, "embedding-equivalence", ok,
                    f"{checked} inputs, {mismatches} mismatches, "
                    f"direction err {direction_err:.2e}, {elapsed:.1f}s")


def test_criterion_02_null_and_miss_rates(recipe_report):
    start = time.time()
    null_check = recipe_report("null-rate")
    miss_check = recipe_report("detection-miss")
    elapsed = time.time() - start
    ok = null_check["passed"] and miss_check["passed"] and elapsed < 60
    assert _verdict(2, "null-and-miss-rates", ok,
                    f"FPR {null_check['empirical']:.4f} <= {null_check['bound']}+"
                    f"{null_check['slack']:.4f}, miss {miss_check['empirical']:.4f}, "
                    f"{elapsed:.1f}s")


def test_criterion_03_snr_prior_risk(recipe_report):
    check = recipe_report("snr-risk")
    expected_bound = 100 * math.exp(-8.0)
    ok = check["passed"] and check["bound"] == pytest.approx(expected_bound)
    assert _verdict(3, "snr-prior-risk", ok,
                    f"risk {check['empirical']:.4f} <= {check['bound']:.4f}"
                    f"+{check['slack']:.4f} at threshold "
                    f"{check['params']['threshold']}")


def test_criterion_04_grid_response_floor(recipe_report):
    report = recipe_report("grid-check")
    ok = report["violations"] == 0 and report["n_min"] == 16 and report["n_max"] == 512
    assert _verdict(4, "grid-response-floor", ok,
                    f"worst ratio {report['worst_ratio']:.12f} vs floor "
                    f"{report['floor']:.12f}, {report['violations']} violations")


def test_criterion_05_gaussian_benchmark(recipe_report):
    report = recipe_report("fig1a")
    diff = report["median_mer_difference"]
    ok = abs(diff) <= 0.05
    assert _verdict(5, "gaussian-benchmark", ok,
                    f"median net-vs-scan MER difference {diff:+.4f}, "
                    f"net {report['median_network_mer']:.4f} "
                    f"scan {report['median_cusum_mer']:.4f}")


def test_criterion_06_heavy_tail_ordering(recipe_report):
    report = recipe_report("fig1d")
    gain = report["median_mer_gain"]
    ok = gain >= 0.05
    assert _verdict(6, "heavy-tail-ordering", ok,
                    f"median MER gain over tuned scan {gain:+.4f}, "
                    f"net {report['median_network_mer']:.4f} "
                    f"scan {report['median_cusum_mer']:.4f}")


def test_criterion_07_truncation_ordering(recipe_report):
    report = recipe_report("figb1")
    margin = report["median_mer_margin"]
    ok = margin <= 0.0
    assert _verdict(7, "truncation-ordering", ok,
                    f"median net-minus-rank MER margin {margin:+.4f}, "
                    f"net {report['median_network_mer']:.4f} "
                    f"rank {report['median_wilcoxon_mer']:.4f}")


def test_criterion_08_rank_statistic_equivalence():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        if rng.random() < 0.25:
            x = rng.integers(-3, 4, n).astype(float)
        else:
            x = rng.standard_cauchy(n)
        if robust.wilcoxon_statistic(x) != robust.wilcoxon_statistic_bruteforce(x):
            mismatches += 1
    ok = mismatches == 0
    assert _verdict(8, "rank-statistic-equivalence", ok,
                    f"1000 series, {mismatches} mismatches (exact float equality)")


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(100):
        output_dim = 1 if k % 2 else 3
        net = _init_network(Architecture(10, (8, 8), output_dim), rng)
        if output_dim > 1:
            net.classes = (0, 1, 2)
        x = rng.standard_normal(10)
        y = np.array([rng.integers(0, 2)]) if output_dim == 1 else np.array([rng.integers(0, 3)])
        worst = max(worst, grad_check(net, x, y, step=1e-5))
    ok = worst <= 1e-4
    assert _verdict(9, "gradient-checks", ok,
                    f"100 networks, max relative error {worst:.3e}")


def test_criterion_10_localisation_recovery(recipe_report):
    report = recipe_report("thm-localisation")
    ok = report["passed"] and report["reps"] == 500
    assert _verdict(10, "localisation-recovery", ok,
                    f"failure rate {report['empirical']:.4f} over {report['reps']} reps, "
                    f"tolerances {report['params']['tolerances']}")


def test_criterion_11_multiclass_ordering(recipe_report):
    report = recipe_report("table1")
    ok = (report["oracle_accuracy"] >= report["adaptive_accuracy"]
          and report["network_accuracy"] >= 0.75)
    assert _verdict(11, "multiclass-ordering", ok,
                    f"oracle {report['oracle_accuracy']:.4f} >= "
                    f"adaptive {report['adaptive_accuracy']:.4f}, "
                    f"network {report['network_accuracy']:.4f} >= 0.75")


def test_criterion_12_reproduce_determinism(recipe_report, tmp_path):
    stale = []
    for name in sorted(RECIPES):
        first = recipe_report(name)
        second = run_recipe(name, SEED)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(first, p1)
        write_report(second, p2)
        if p1.read_bytes() != p2.read_bytes():
            stale.append(name)
    ok = not stale
    assert _verdict(12, "reproduce-determinism", ok,
                    f"{len(RECIPES)} recipes rerun byte-identical"
                    + (f"; mismatches: {stale}" if stale else ""))
