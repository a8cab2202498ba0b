"""Tests for scoring, threshold tuning and Monte-Carlo bound checks."""

import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdlab import cusum, evaluate, glr, robust
from cpdlab.cusum import SCAN_BLOCK
from cpdlab.evaluate import (
    batch_cusum_statistics,
    localisation_rmse,
    mer_from_predictions,
    monte_carlo_bound_check,
    scan_statistics,
    tune_threshold,
)
from cpdlab.simulate import ScenarioSpec, gen_scenario


class TestMer:
    def test_metadata_oracle_scores_zero(self):
        ds = gen_scenario(ScenarioSpec("S1", size=60), seed=0)
        report = mer_from_predictions(ds.labels, ds.labels.copy())
        assert report.mer == 0.0 and report.accuracy == 1.0

    def test_constant_zero_on_balanced_set(self):
        ds = gen_scenario(ScenarioSpec("S1", size=100), seed=1)
        report = mer_from_predictions(ds.labels, np.zeros(len(ds), dtype=int))
        assert report.mer == 0.5

    def test_counts_sum_to_size(self):
        ds = gen_scenario(ScenarioSpec("S1", size=40), seed=2)
        report = mer_from_predictions(ds.labels, np.ones(len(ds), dtype=int))
        assert sum(c["count"] for c in report.per_class.values()) == report.size == 40

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 50)
        preds = rng.integers(0, 2, 50)
        base = mer_from_predictions(labels, preds).mer
        perm = rng.permutation(50)
        assert mer_from_predictions(labels[perm], preds[perm]).mer == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mer_from_predictions(np.array([]), np.array([]))


class TestTuneThreshold:
    def test_perfect_separation_reaches_zero(self):
        values = np.vstack([np.zeros((10, 4)), np.ones((10, 4))])
        labels = np.repeat([0, 1], 10)
        stats = values.sum(axis=1)
        thr = tune_threshold(stats, labels)
        assert np.mean((stats > thr).astype(int) != labels) == 0.0

    def test_tie_break_smallest(self):
        # Statistics 0 and 10; every threshold in (0, 10) is optimal, the
        # grid's smallest minimiser must be returned.
        thr = tune_threshold(np.array([0.0, 10.0]), np.array([0, 1]))
        grid = np.linspace(0.0, 10.0, 200)
        assert thr == grid[0]

    def test_cusum_threshold_brackets_null_value(self):
        ds = gen_scenario(ScenarioSpec("S1", size=2000), seed=4)
        thr = tune_threshold(batch_cusum_statistics(ds.values), ds.labels)
        assert 3.0 <= thr <= 4.5


    def test_mismatched_or_empty_input_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            tune_threshold(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="empty"):
            tune_threshold(np.zeros(0), np.zeros(0))

    def test_labels_outside_zero_one_rejected(self):
        # Cast to bool, every nonzero class would count as a change and
        # the grid's first point would win unopposed.
        for labels in ([1, 2, 3, 4, 5] * 2, [0, 1] * 4 + [-1, 0], [0.5] * 10):
            with pytest.raises(ValueError, match="0/1 labels"):
                tune_threshold(np.arange(10.0), labels)
        booleans = np.arange(10.0) > 4.5
        assert tune_threshold(np.arange(10.0), booleans) == tune_threshold(np.arange(10.0),
                                                                           booleans.astype(int))


class TestBatchStatistics:
    def test_matches_per_series_scan(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 37))
        batch = batch_cusum_statistics(X)
        for row, value in zip(X, batch):
            assert value == pytest.approx(cusum.cusum_statistic(row)[0], abs=1e-12)


KERNELS = {"cusum": cusum.cusum_statistic, "cusum-star": cusum.cusum_star_statistic,
           "wilcoxon": robust.wilcoxon_statistic, "variance": glr.lr_variance_scan,
           "slope": glr.lr_slope_scan}


class TestBlockedScans:
    @pytest.mark.parametrize("method", sorted(KERNELS))
    @settings(max_examples=12, deadline=None, database=None)
    @given(n=st.integers(4, 400), blocks=st.integers(1, 2), offset=st.integers(-1, 1),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_one_batch_call(self, method, n, blocks, offset, ties, seed):
        """Around one and two blocks of rows, the blocked scan is the whole-batch kernel."""
        rows = blocks * (SCAN_BLOCK // n) + offset
        X = np.random.default_rng(seed).standard_normal((rows, n))
        if ties:
            X = np.round(X)
        blocked = scan_statistics(method, X)
        assert blocked.shape == (rows,)
        assert blocked.tobytes() == KERNELS[method](X)[0].tobytes()

    def test_single_series_and_bad_shapes(self):
        x = np.random.default_rng(1).standard_normal(30)
        assert scan_statistics("cusum", x) == cusum.cusum_statistic(x)[0]
        assert scan_statistics("cusum", np.zeros((0, 30))).shape == (0,)
        with pytest.raises(ValueError, match=r"got shape \(2, 3, 4\)"):
            scan_statistics("cusum", np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="length >= 2"):
            scan_statistics("cusum", np.zeros((SCAN_BLOCK + 1, 1)))


def _whole_draw_rate(kind, reps, seed, n, snr_multiplier=1.05):
    """The check's empirical rate, with every series' noise drawn as one (reps, n) matrix.

    The stream holds the per-series parameters first (labels, then the
    changed series' steps) and the noise after them.
    """
    rng = np.random.default_rng(seed)

    def signals(count, target_snr):
        taus = rng.integers(1, n, size=count)
        eta = taus / n
        deltas = target_snr / np.sqrt(eta * (1.0 - eta))
        signs = np.where(rng.integers(0, 2, size=count) == 1, 1.0, -1.0)
        return (np.arange(n)[None, :] >= taus[:, None]) * (signs * deltas)[:, None]

    if kind == "null_rate":
        stats = cusum.cusum_statistic(rng.standard_normal((reps, n)))[0]
        return float(np.mean(stats > cusum.null_threshold(n, 0.05)))
    if kind == "detection_miss":
        steps = signals(reps, snr_multiplier * math.sqrt(8.0 * math.log(n / 0.05) / n))
        X = rng.standard_normal((reps, n)) + steps
        stats = cusum.cusum_statistic(X)[0]
        return float(np.mean(stats <= cusum.null_threshold(n, 0.05)))
    labels = (rng.random(reps) < 0.5).astype(np.int64)
    changed = np.flatnonzero(labels)
    steps = signals(changed.size, snr_multiplier * 0.8)
    X = rng.standard_normal((reps, n))
    X[changed] += steps
    stats = cusum.cusum_statistic(X)[0]
    return float(np.mean((stats > cusum.snr_threshold(n, 0.8)).astype(np.int64) != labels))


@pytest.mark.parametrize("kind", ["null_rate", "detection_miss", "snr_risk"])
@pytest.mark.parametrize("n", [37, 100])
def test_blocked_checks_equal_one_whole_draw(kind, n):
    reps = 2 * (SCAN_BLOCK // n) + 123  # not a multiple of the block
    empirical, _, _ = getattr(evaluate, f"_{kind}")(np.random.default_rng(11), reps, n=n)
    assert empirical == _whole_draw_rate(kind, reps, 11, n)


@pytest.mark.parametrize("n", [37, 100])
def test_blocked_detection_miss_below_the_boundary_equals_one_whole_draw(n):
    """At half the boundary SNR some changes are missed and some found.

    At the default multiplier both rates are 0, which cannot tell steps
    added to the wrong rows or drawn in the wrong order; here they can.
    """
    reps = 2 * (SCAN_BLOCK // n) + 123
    empirical, _, _ = evaluate._detection_miss(np.random.default_rng(11), reps, n=n,
                                               snr_multiplier=0.5)
    whole = _whole_draw_rate("detection_miss", reps, 11, n, snr_multiplier=0.5)
    assert 0.0 < whole < 1.0
    assert empirical == whole


def _peak_bytes(kind):
    tracemalloc.start()
    try:
        monte_carlo_bound_check(kind, reps=20000, seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_null_rate_memory_is_a_few_blocks():
    """20,000 series of length 100 (15.3 MiB as one matrix) are scored in 512 KiB blocks."""
    # About 1.7 MiB measured; a whole (20000, 100) draw with its scan
    # temporaries takes 76 MiB.
    assert _peak_bytes("null_rate") < 4 * 2**20


@pytest.mark.parametrize("kind", ["detection_miss", "snr_risk"])
def test_changed_checks_memory_is_a_few_blocks(kind):
    """The steps are a few numbers per series; the noise is drawn a block at a time.

    One whole (20000, 100) noise draw would be 15.3 MiB.
    """
    assert _peak_bytes(kind) < 4 * 2**20


def _passes(check, reps, seed, **settings):
    """Whether ``check`` at ``settings`` passes with the 3-sigma slack of the public checks."""
    empirical, bound, _ = check(np.random.default_rng(seed), reps, **settings)
    return empirical <= bound + 3.0 * math.sqrt(bound * (1.0 - bound) / reps)


# Each kind's fewest replications.
FLOORS = {"null_rate": 1000, "detection_miss": 1000, "snr_risk": 1000, "localisation": 100}


class TestBoundChecks:
    def test_null_rate_small(self):
        assert _passes(evaluate._null_rate, 2000, 0, n=50, eps=0.1)

    def test_degenerate_tiny_eps_never_fires(self):
        empirical, _, _ = evaluate._null_rate(np.random.default_rng(1), 1000, n=50, eps=1e-12)
        assert empirical == 0.0

    def test_detection_miss_small(self):
        assert _passes(evaluate._detection_miss, 2000, 2, n=50, eps=0.1)

    def test_snr_risk_small(self):
        assert _passes(evaluate._snr_risk, 2000, 3, n=50, snr_bound=1.0)

    def test_rep_floor_enforced(self):
        for kind, floor in FLOORS.items():
            with pytest.raises(ValueError, match=f"need at least {floor} replications, got "):
                monte_carlo_bound_check(kind, reps=floor - 1, seed=0)

    @pytest.mark.parametrize("kind", sorted(FLOORS))
    def test_slack_per_kind(self, kind):
        check = monte_carlo_bound_check(kind, reps=FLOORS[kind], seed=0)
        b = check.bound
        expected = 0.0 if kind == "localisation" else 3.0 * math.sqrt(b * (1.0 - b) / check.reps)
        assert check.slack == expected
        assert check.passed == (check.empirical <= b + expected)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bound check"):
            monte_carlo_bound_check("coverage", reps=1000, seed=0)

    def test_localisation_rejects_small_jumps(self):
        with pytest.raises(ValueError, match="jump"):
            evaluate._localisation_failure_rate(np.random.default_rng(0), 100,
                                                means=(0.0, 1.0, 0.0, 1.0))


class TestLocalisationRmse:
    def test_perfect(self):
        report = localisation_rmse([[100], [200]], [100, 200])
        assert report.rmse == 0.0 and report.failed == 0 and report.scored == 2

    def test_constant_offset(self):
        report = localisation_rmse([[102], [202], [302]], [100, 200, 300])
        assert report.rmse == pytest.approx(2.0)

    def test_failures_counted_separately(self):
        report = localisation_rmse([[100], [], [1, 2]], [100, 200, 300])
        assert report.scored == 1 and report.failed == 2
        assert report.rmse == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            localisation_rmse([[1]], [1, 2])


def test_tuned_threshold_is_grid_optimal():
    # The returned threshold's training error is a minimum over the grid.
    rng = np.random.default_rng(6)
    ds = gen_scenario(ScenarioSpec("S1", size=200), seed=7)
    stats = batch_cusum_statistics(ds.values)
    thr = tune_threshold(stats, ds.labels)
    grid = np.linspace(stats.min(), stats.max(), 200)

    def train_mer(t):
        return np.mean((stats > t).astype(int) != ds.labels)

    best = train_mer(thr)
    assert all(best <= train_mer(t) for t in grid)
