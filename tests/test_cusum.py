"""Tests for the CUSUM scan statistics and their thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdlab import cusum
from cpdlab.localise import cusum_star_window_classifier
from cpdlab.network import embed_cusum


VALUES = st.floats(-1e6, 1e6)
SCALARS = st.floats(-1e3, 1e3)


class TestBasis:
    def test_n2_contrast(self):
        basis = cusum.cusum_basis(2)
        np.testing.assert_allclose(basis, [[1 / math.sqrt(2), -1 / math.sqrt(2)]])

    def test_n4_midpoint_contrast(self):
        np.testing.assert_allclose(cusum.cusum_basis(4)[1], [0.5, 0.5, -0.5, -0.5])

    def test_unit_norms_across_lengths(self):
        for n in range(2, 513):
            norms = np.linalg.norm(cusum.cusum_basis.__wrapped__(n), axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_block_structure(self):
        basis = cusum.cusum_basis(7)
        for i in range(1, 7):
            row = basis[i - 1]
            assert np.all(row[:i] > 0) and np.all(row[i:] < 0)
            assert np.ptp(row[:i]) == 0 and np.ptp(row[i:]) == 0

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="length >= 2"):
            cusum.cusum_basis(1)

    def test_cached_array_is_readonly(self):
        basis = cusum.cusum_basis(16)
        assert basis is cusum.cusum_basis(16)
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


class TestTransform:
    def test_constant_series_maps_to_zero(self):
        np.testing.assert_allclose(cusum.cusum_transform([3.5] * 9), 0.0, atol=1e-12)

    def test_two_point_value(self):
        np.testing.assert_allclose(cusum.cusum_transform([1.0, 0.0]), [1 / math.sqrt(2)])

    def test_matches_basis_product(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 33, 100):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(
                cusum.cusum_transform(x), cusum.cusum_basis(n) @ x, atol=1e-10
            )

    def test_linearity_and_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            x, y = rng.standard_normal((2, n))
            a, c = rng.uniform(-3, 3, 2)
            np.testing.assert_allclose(
                cusum.cusum_transform(x + y),
                cusum.cusum_transform(x) + cusum.cusum_transform(y),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                cusum.cusum_transform(a * x), a * cusum.cusum_transform(x), atol=1e-12
            )
            np.testing.assert_allclose(
                cusum.cusum_transform(x + c), cusum.cusum_transform(x), atol=1e-12
            )

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(2, 200).flatmap(lambda n: arrays(np.float64, (2, n), elements=VALUES)),
           SCALARS, SCALARS)
    def test_linearity_and_shift_invariance_property(self, xy, a, c):
        x, y = xy
        n = x.size
        transform = cusum.cusum_transform

        def close(got, want, scale, gain=1.0):
            # Each entry is a weighted difference of prefix sums with weights
            # at most 1, so rounding moves it by about n * eps * sum|input|,
            # and underflow by a few subnormal units per operation.  Scaling
            # by ``a`` scales the underflow error of T(x) by |a| as well
            # (x = [2.2e-311, 0], a = 36 misses 16 units by one), hence
            # ``gain``.
            info = np.finfo(np.float64)
            tol = 8 * n * (info.eps * scale + gain * info.smallest_subnormal)
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)

        close(transform(x + y), transform(x) + transform(y), np.sum(np.abs(x) + np.abs(y)))
        close(transform(a * x), a * transform(x), abs(a) * np.sum(np.abs(x)), max(1.0, abs(a)))
        close(transform(x + c), transform(x), np.sum(np.abs(x) + abs(c)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            cusum.cusum_transform([1.0, np.nan, 2.0])


class TestClassifiers:
    """A scan classifies a series as changed when ``statistic > threshold``."""

    def test_constant_never_fires(self):
        X = np.full((3, 8), 2.0)
        assert not np.any(cusum.cusum_statistic(X)[0] > 0.001)
        assert not np.any(cusum.cusum_star_statistic(X)[0] > 0.001)

    def test_spike_statistic(self):
        stat, tau = cusum.cusum_statistic([3.0, 0.0])
        assert stat == pytest.approx(3 / math.sqrt(2))
        assert tau == 1
        assert stat > 1.0 and not stat > 3.0

    def test_rejects_bad_threshold(self):
        # The two classifiers built from the scan at a fixed threshold.
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                embed_cusum(8, threshold)
            with pytest.raises(ValueError, match="positive"):
                cusum_star_window_classifier(8, threshold)


class TestDyadicGrid:
    def test_n100_enumeration(self):
        expected = [1, 2, 4, 8, 16, 32, 68, 84, 92, 96, 98, 99]
        assert cusum.dyadic_grid(100).tolist() == expected
        assert len(expected) == 2 * int(math.log2(100))

    def test_duplicate_collapse_n8(self):
        assert cusum.dyadic_grid(8).tolist() == [1, 2, 4, 6, 7]

    def test_n4(self):
        assert cusum.dyadic_grid(4).tolist() == [1, 2, 3]

    def test_size_upper_bound(self):
        for n in range(4, 300):
            grid = cusum.dyadic_grid(n)
            assert len(grid) <= 2 * (n.bit_length() - 1)
            assert np.all((grid >= 1) & (grid <= n - 1))
            assert len(set(grid.tolist())) == len(grid)

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="length >= 4"):
            cusum.dyadic_grid(3)


class TestStarScan:
    def test_constant_series(self):
        assert cusum.cusum_star_statistic([1.0] * 8)[0] <= 0.01

    def test_subset_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 128))
            x = rng.standard_normal(n)
            assert cusum.cusum_star_statistic(x)[0] <= cusum.cusum_statistic(x)[0] + 1e-12

    def test_edge_spike_star_equals_full(self):
        # A spike at position 1 puts the argmax on the grid (1 is dyadic).
        x = np.zeros(8)
        x[0] = 5.0
        full, arg_full = cusum.cusum_statistic(x)
        star, arg_star = cusum.cusum_star_statistic(x)
        assert arg_full == arg_star == 1
        assert star == pytest.approx(full)


def _rows_with_constants():
    X = np.random.default_rng(9).standard_normal((40, 33))
    X[3] = 2.5
    X[7] = 0.0
    return X


def _assert_batch_matches_rows(X):
    assert np.array_equal(cusum.cusum_transform(X), np.array([cusum.cusum_transform(r) for r in X]))
    for fn in (cusum.cusum_statistic, cusum.cusum_star_statistic):
        stats, points = fn(X)
        rows = [fn(r) for r in X]
        assert np.array_equal(stats, [s for s, _ in rows])
        assert np.array_equal(points, [k for _, k in rows])


class TestBatch:
    def test_batch_matches_rows(self):
        _assert_batch_matches_rows(_rows_with_constants())

    @settings(max_examples=60, deadline=None, database=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(4, 40)),
                  elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
    def test_batch_matches_rows_property(self, X):
        _assert_batch_matches_rows(X)

    @pytest.mark.parametrize(
        "fn", [cusum.cusum_transform, cusum.cusum_statistic, cusum.cusum_star_statistic]
    )
    def test_non_finite_in_any_row_raises(self, fn):
        X = _rows_with_constants()
        X[-1, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fn(X)


class TestThresholdsAndBounds:
    def test_null_threshold_value(self):
        assert cusum.null_threshold(100, 0.05) == pytest.approx(3.8990, abs=1e-4)

    def test_snr_threshold_value(self):
        assert cusum.snr_threshold(100, 1.0) == 5.0

    def test_star_threshold_value(self):
        assert cusum.snr_threshold_star(100, 1.0) == pytest.approx(2.8868, abs=1e-4)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            cusum.null_threshold(100, 1.0)
        with pytest.raises(ValueError):
            cusum.null_threshold(100, 0.0)
        with pytest.raises(ValueError):
            cusum.snr_threshold(100, -1.0)
        for fn in (cusum.snr_threshold, cusum.snr_threshold_star, cusum.misclassification_bound,
                   cusum.misclassification_bound_star):
            for bound in (math.nan, math.inf, 0.0):
                with pytest.raises(ValueError, match="finite positive"):
                    fn(100, bound)

    def test_bound_values(self):
        assert cusum.misclassification_bound(100, 1.0) == pytest.approx(100 * math.exp(-12.5))
        assert cusum.misclassification_bound_star(100, 1.0) == pytest.approx(
            12 * math.exp(-100 / 24)
        )

    def test_bound_monotone_in_snr(self):
        values = [cusum.misclassification_bound(100, b) for b in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-200


class TestSnr:
    def test_no_change_is_zero(self):
        assert cusum.snr(100, 30, 1.5, 1.5) == 0.0

    def test_midpoint_value(self):
        assert cusum.snr(100, 50, 0.0, 1.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert cusum.snr(64, 1, 0.0, 2.0) == pytest.approx(cusum.snr(64, 63, 0.0, 2.0))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            cusum.snr(10, 10, 0.0, 1.0)


class TestStepResponse:
    def test_matches_basis_product(self):
        for n, tau in ((10, 3), (37, 20), (64, 1), (64, 63)):
            mu = np.where(np.arange(1, n + 1) <= tau, 0.0, -1.7)
            expected = np.abs(cusum.cusum_basis(n) @ mu)
            np.testing.assert_allclose(cusum.step_response(n, tau, 1.7), expected, atol=1e-10)

    def test_peak_at_change(self):
        resp = cusum.step_response(50, 20)
        assert int(np.argmax(resp)) == 19
        assert resp[19] == pytest.approx(math.sqrt(50) * cusum.snr(50, 20, 0.0, 1.0))

    def test_array_of_taus_stacks_scalar_rows(self):
        n = 37
        taus = np.arange(1, n)
        resp = cusum.step_response(n, taus, -1.7)
        assert resp.shape == (n - 1, n - 1)
        expected = np.stack([cusum.step_response(n, int(t), -1.7) for t in taus])
        assert resp.tobytes() == expected.tobytes()
        assert cusum.step_response(n, 5).shape == (n - 1,)
        with pytest.raises(ValueError, match="tau"):
            cusum.step_response(n, np.array([3, n]))

    def test_rows_rise_to_the_change_and_fall_after_it(self):
        # The exact fact grid-check rests on: in floating point, row tau
        # is nondecreasing for i <= tau and nonincreasing for i >= tau, so
        # a window's minimum around tau sits at one of its endpoints.
        for n in range(16, 513):
            taus = np.arange(1, n)
            resp = cusum.step_response(n, taus)
            i = np.arange(1, n - 1)  # compares positions i and i + 1
            rising = i[None, :] < taus[:, None]
            assert np.all((resp[:, 1:] >= resp[:, :-1]) | ~rising), n
            assert np.all((resp[:, 1:] <= resp[:, :-1]) | rising), n

    def test_near_change_grid_floor_small_lengths(self):
        # Any scan point within half the shorter segment keeps at least
        # sqrt(3)/3 of the peak response; exhaustive over small lengths.
        floor = math.sqrt(3.0) / 3.0
        for n in range(16, 65):
            for tau in range(1, n):
                reach = min(tau, n - tau) / 2.0
                lo = math.ceil(tau - reach)
                hi = math.floor(tau + reach)
                resp = cusum.step_response(n, tau)[lo - 1:hi]
                assert resp.min() >= floor * cusum.step_response(n, tau)[tau - 1] - 1e-9
