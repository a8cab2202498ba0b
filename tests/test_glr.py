"""Tests for the generalised likelihood-ratio scans and BIC classifier."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdlab import cusum, glr
from cpdlab.evaluate import scan_statistics
from cpdlab.network import embed_directions, forward
from cpdlab.simulate import MulticlassSpec, gen_multiclass


def _ar1_factor(n, rho):
    """Lower Cholesky factor of the AR(1) correlation matrix rho^|i-j|."""
    return np.linalg.cholesky(rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n))))


# Designs for the batch and embedding tests of glr_statistic, whitened and not.
DESIGNS = {
    "mean": glr.mean_change_design,
    "slope": glr.slope_change_design,
    "ar1-mean": lambda n: glr.mean_change_design(n, noise_transform=_ar1_factor(n, 0.7)),
}


def test_mean_design_matches_cusum_contrasts():
    n = 10
    dirs = glr.glr_directions(glr.mean_change_design(n))
    basis = cusum.cusum_basis(n)
    for k, tau in enumerate(dirs.taus):
        v = dirs.directions[k]
        u = basis[tau - 1]
        assert min(np.abs(v - u).max(), np.abs(v + u).max()) < 1e-10


def test_mean_design_statistic_equals_scan():
    rng = np.random.default_rng(0)
    for n in (5, 20, 100):
        dirs = glr.glr_directions(glr.mean_change_design(n))
        for _ in range(1000):
            x = rng.standard_normal(n)
            stat, tau = glr.glr_statistic(x, dirs)
            full, tau_full = cusum.cusum_statistic(x)
            assert abs(stat - full) < 1e-10
            assert tau == tau_full


def test_covariate_in_base_span_is_degenerate():
    n = 8
    design = glr.ChangeDesign(
        base=np.ones((n, 1)),
        change_covariates={3: np.full(n, 2.0), 5: (np.arange(1, n + 1) > 5).astype(float)},
    )
    dirs = glr.glr_directions(design)
    assert dirs.taus.tolist() == [5]  # tau 3 is not scanned
    stat, tau = glr.glr_statistic(np.arange(n, dtype=float), dirs)
    assert tau == 5
    with pytest.raises(ValueError, match="degenerate"):
        glr.glr_directions(glr.ChangeDesign(np.ones((n, 1)), {2: np.full(n, 3.0)}))


def test_slope_directions_orthogonal_to_base():
    n = 30
    design = glr.slope_change_design(n)
    dirs = glr.glr_directions(design)
    assert dirs.taus[0] == 2  # the hinge at tau 1 is the trend itself: not scanned
    products = dirs.directions @ design.base
    assert np.abs(products).max() < 1e-8


def test_direction_unit_norms():
    dirs = glr.glr_directions(glr.slope_change_design(25))
    norms = np.linalg.norm(dirs.directions, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_constant_series_gives_zero_statistic():
    dirs = glr.glr_directions(glr.mean_change_design(12))
    stat, _ = glr.glr_statistic(np.full(12, 4.2), dirs)
    assert stat == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        glr.glr_statistic(np.full(11, 4.2), dirs)


def test_two_point_statistic():
    dirs = glr.glr_directions(glr.mean_change_design(2))
    stat, tau = glr.glr_statistic(np.array([3.0, 0.0]), dirs)
    assert stat == pytest.approx(2.1213, abs=1e-4)
    assert tau == 1


def test_statistic_scales_linearly():
    rng = np.random.default_rng(3)
    dirs = glr.glr_directions(glr.mean_change_design(15))
    x = rng.standard_normal(15)
    stat, tau = glr.glr_statistic(x, dirs)
    stat2, tau2 = glr.glr_statistic(2.5 * x, dirs)
    assert stat2 == pytest.approx(2.5 * stat)
    assert tau2 == tau


def test_whitening_removes_base_effects():
    # Under x = Z b + G e, the scan must not depend on b.
    rng = np.random.default_rng(4)
    n = 20
    gamma = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    design = glr.slope_change_design(n, noise_transform=gamma)
    dirs = glr.glr_directions(design)
    e = rng.standard_normal(n)
    x = gamma @ e
    base_shift = design.base @ np.array([3.0, -0.7])
    stat1, tau1 = glr.glr_statistic(x, dirs)
    stat2, tau2 = glr.glr_statistic(x + base_shift, dirs)
    assert stat1 == pytest.approx(stat2, abs=1e-8)
    assert tau1 == tau2


def test_whitened_directions_act_on_the_raw_series():
    # u . (G^-1 x) = (G^-T u) . x: scanning the raw series with the folded
    # directions equals scanning the whitened series with the unit ones.
    n = 30
    gamma = _ar1_factor(n, 0.7)
    design = glr.slope_change_design(n, noise_transform=gamma)
    whitened = glr.ChangeDesign(np.linalg.solve(gamma, design.base),
                                {tau: np.linalg.solve(gamma, c)
                                 for tau, c in design.change_covariates.items()})
    X = _series_rows(13, 50, n) @ gamma.T
    stats, taus = glr.glr_statistic(X, glr.glr_directions(design))
    ref, ref_taus = glr.glr_statistic(np.linalg.solve(gamma, X.T).T,
                                      glr.glr_directions(whitened))
    np.testing.assert_allclose(stats, ref, rtol=1e-9)
    assert np.array_equal(taus, ref_taus)


def test_singular_noise_transform_rejected():
    n = 6
    singular = np.zeros((n, n))
    with pytest.raises(ValueError, match="singular"):
        glr.glr_directions(glr.mean_change_design(n, noise_transform=singular))


def test_rank_deficient_base_rejected():
    n = 6
    base = np.column_stack([np.ones(n), 2 * np.ones(n)])
    with pytest.raises(ValueError, match="rank deficient"):
        glr.ChangeDesign(base, {2: np.arange(n, dtype=float)})


def _reference_bic_label(x):
    """Min-BIC label from explicit least-squares fits at every tau."""
    n = x.size
    t = np.arange(1, n + 1, dtype=np.float64)

    def rss(design):
        return np.sum((x - design @ np.linalg.lstsq(design, x, rcond=None)[0]) ** 2)

    ones, line = np.ones((n, 1)), np.column_stack([np.ones(n), t])
    deviance = [
        n * np.log(rss(ones) / n),
        min(n * np.log(rss(np.column_stack([np.ones(n), t > tau])) / n) for tau in range(1, n)),
        min(tau * np.log(np.mean((x[:tau] - x.mean()) ** 2))
            + (n - tau) * np.log(np.mean((x[tau:] - x.mean()) ** 2)) for tau in range(2, n - 1)),
        n * np.log(rss(line) / n),
        min(n * np.log(rss(np.column_stack([line, np.maximum(0.0, t - tau)])) / n)
            for tau in range(2, n - 1)),
    ]
    bic = np.array(deviance) + np.array([2, 4, 4, 3, 5]) * np.log(n)
    return int(np.argmin(bic)) + 1


def _series_rows(seed, rows, n):
    """Noise rows with a mean step, a variance step, a trend or a kink mixed in."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1)
    X = rng.standard_normal((rows, n))
    tau = n // 3
    X[1::5] += 2.0 * (t > tau)
    X[2::5] *= np.where(t > tau, 3.0, 1.0)
    X[3::5] += 0.1 * t
    X[4::5] += 0.3 * np.maximum(0, t - tau)
    return X


class TestGlrStatistic:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(4, 80),
           st.sampled_from(sorted(DESIGNS)))
    def test_batch_matches_rows(self, seed, rows, n, design):
        dirs = glr.glr_directions(DESIGNS[design](n))
        X = _series_rows(seed, rows, n)
        stats, taus = glr.glr_statistic(X, dirs)
        for x, stat, tau in zip(X, stats, taus):
            ref, ref_tau = glr.glr_statistic(x, dirs)
            assert stat == pytest.approx(ref, rel=1e-12)
            second, top = np.sort(np.abs(dirs.directions @ x))[-2:]
            if top - second > 1e-9:
                assert tau == ref_tau

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_embedding_labels_equal_thresholded_scan(self, design):
        n, lam, half = 100, 3.0, 2500
        rng = np.random.default_rng(sorted(DESIGNS).index(design))
        dirs = glr.glr_directions(DESIGNS[design](n))
        X = rng.standard_normal((2 * half, n))
        if design == "ar1-mean":
            X = X @ _ar1_factor(n, 0.7).T
        t = np.arange(1, n + 1)
        taus = rng.integers(1, n, (half, 1))
        X[:half] += rng.uniform(-1.0, 1.0, (half, 1)) * (t > taus)
        X[:half] += rng.uniform(-0.2, 0.2, (half, 1)) * np.maximum(0, t - taus)
        stats, _ = glr.glr_statistic(X, dirs)
        fired = stats > lam
        assert 0.2 < fired.mean() < 0.8
        _, labels = forward(embed_directions(dirs.directions, lam), X)
        margin = np.abs(stats - lam) > 1e-12 * lam
        assert np.array_equal(labels[margin], fired[margin])


class TestSlopeScan:
    @pytest.mark.parametrize("n", [4, 5, 17, 400])
    def test_matches_general_design(self, n):
        dirs = glr.glr_directions(glr.slope_change_design(n))
        X = _series_rows(n, 40, n)
        stats, taus = glr.lr_slope_scan(X)
        ref, ref_taus = glr.glr_statistic(X, dirs)
        np.testing.assert_allclose(stats, ref, rtol=1e-8)
        assert np.array_equal(taus, ref_taus)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.floats(-1e3, 1e3),
           st.floats(-10, 10), st.floats(0.01, 100))
    def test_ignores_line_and_scales_with_factor(self, seed, n, a, b, c):
        x = np.random.default_rng(seed).standard_normal(n)
        t = np.arange(1, n + 1)
        stat, _ = glr.lr_slope_scan(x)
        tol = 1e-9 * n * (1.0 + abs(a) + abs(b) * n)
        assert glr.lr_slope_scan(x + a + b * t)[0] == pytest.approx(stat, abs=tol)
        for factor in (c, -c):
            assert glr.lr_slope_scan(factor * x)[0] == pytest.approx(c * stat, rel=1e-9)


class TestBatchScans:
    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(6, 80),
           st.sampled_from(["normal", "cauchy", "ties"]))
    def test_batch_matches_rows(self, seed, rows, n, noise):
        X = _series_rows(seed, rows, n)
        if noise == "cauchy":
            X += np.random.default_rng(seed).standard_cauchy(X.shape)
        elif noise == "ties":
            X = np.round(X)
        for scan in (glr.lr_variance_scan, glr.lr_slope_scan):
            stats, taus = scan(X)
            per_row = [scan(x) for x in X]
            assert np.array_equal(stats, [s for s, _ in per_row])
            assert np.array_equal(taus, [k for _, k in per_row])
        labels = glr.adaptive_classify(X)
        assert labels.tolist() == [glr.adaptive_classify(x) for x in X]

    def test_adaptive_matches_explicit_fits(self):
        X = _series_rows(12, 60, 30)
        assert glr.adaptive_classify(X).tolist() == [_reference_bic_label(x) for x in X]

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_adaptive_blocks_equal_one_whole_batch_call(self, monkeypatch, block_rows):
        X = _series_rows(block_rows, 23, 40)
        monkeypatch.setattr(cusum, "SCAN_BLOCK", X.size)
        whole = glr.adaptive_classify(X)
        monkeypatch.setattr(cusum, "SCAN_BLOCK", block_rows * X.shape[1])
        blocked = glr.adaptive_classify(X)
        assert blocked.dtype == np.int64
        assert blocked.tolist() == whole.tolist()
        assert set(whole.tolist()) == {1, 2, 3, 4, 5}

    def test_adaptive_memory_is_a_few_blocks(self):
        X = gen_multiclass(MulticlassSpec("strong", per_class=200), 8).values
        tracemalloc.start()
        try:
            glr.adaptive_classify(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured on the 1000 x 400 table1 test set (3.1 MiB): 3.6 MiB;
        # scoring the whole batch at once took 21.4 MiB.
        assert peak < 6 * 2**20


class TestVarianceScan:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.floats(-1e3, 1e3),
           st.floats(1e-3, 1e3))
    def test_ignores_shift_and_positive_scale(self, seed, n, a, c):
        x = np.random.default_rng(seed).standard_normal(n)
        stat, _ = glr.lr_variance_scan(x)
        shifted = glr.lr_variance_scan(c * x + a)[0]
        assert shifted == pytest.approx(stat, rel=1e-6, abs=1e-6 * (1.0 + abs(a) / c))

    def test_degenerate_halves_do_not_crash(self):
        x = np.array([1.0] * 5 + [2.0] * 5)
        stat, tau = glr.lr_variance_scan(x)
        assert np.isfinite(stat)

    def test_statistic_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(4, 80)))
            assert glr.lr_variance_scan(x)[0] >= -1e-9

    def test_localises_variance_change(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(200):
            x = np.concatenate([rng.standard_normal(100), 3.0 * rng.standard_normal(100)])
            _, tau = glr.lr_variance_scan(x)
            hits += abs(tau - 100) <= 10
        assert hits / 200 >= 0.95


class TestAdaptiveClassify:
    def test_strong_mean_step(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(100):
            tau = int(rng.integers(100, 301))
            x = np.where(np.arange(1, 401) <= tau, 0.0, 5.0) + rng.standard_normal(400)
            hits += glr.adaptive_classify(x) == glr.CLASS_MEAN_CHANGE
        assert hits >= 95

    def test_pure_linear_trend(self):
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(100):
            x = 0.05 * np.arange(1, 401) + rng.standard_normal(400)
            hits += glr.adaptive_classify(x) == glr.CLASS_SLOPE_NO_CHANGE
        assert hits >= 90

    def test_white_noise(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(100):
            x = rng.standard_normal(400)
            hits += glr.adaptive_classify(x) == glr.CLASS_NO_CHANGE
        assert hits >= 90


class TestOracleClassify:
    """The type-specific oracle: the matched batch scan against a threshold."""

    def test_constant_series_never_fires(self):
        X = np.full((3, 20), 1.3)
        for method in ("cusum", "variance", "slope"):
            assert not np.any(scan_statistics(method, X) > 0.5)

    def test_mean_oracle_matches_cusum(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 30))
        stats = scan_statistics("cusum", X)
        for thr in (0.5, 1.5, 3.0):
            fired = (stats > thr).astype(int)
            assert fired.tolist() == [int(cusum.cusum_statistic(x)[0] > thr) for x in X]

    def test_variance_oracle_detects_sd_doubling(self):
        rng = np.random.default_rng(11)
        # Threshold from the null distribution of the scan statistic.
        null_stats = glr.lr_variance_scan(rng.standard_normal((100, 400)))[0]
        thr = float(np.quantile(null_stats, 0.95))
        taus = rng.integers(100, 301, size=100)
        sd = np.where(np.arange(1, 401)[None, :] <= taus[:, None], 0.3, 0.6)
        X = sd * rng.standard_normal((100, 400))
        assert int(np.sum(scan_statistics("variance", X) > thr)) >= 95

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            scan_statistics("median", np.ones((1, 10)))
