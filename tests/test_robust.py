"""Tests for the rank scan statistic and z-score truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdlab import robust


class TestWilcoxonStatistic:
    def test_step_example(self):
        stat, k = robust.wilcoxon_statistic([0.0, 0.0, 1.0, 1.0])
        assert stat == pytest.approx(0.25)
        assert k == 2

    def test_fast_equals_bruteforce_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            if rng.random() < 0.3:
                x = rng.integers(0, 5, n).astype(float)  # force ties
            else:
                x = rng.standard_normal(n)
            assert robust.wilcoxon_statistic(x) == robust.wilcoxon_statistic_bruteforce(x)

    def test_reversal_invariance_distinct_values(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(3, 31))
            x = rng.standard_normal(n)  # distinct with probability one
            assert robust.wilcoxon_statistic(x)[0] == robust.wilcoxon_statistic(x[::-1])[0]

    def test_constant_series_follows_formula(self):
        # All pairs tie, each contributing -1/2; the statistic is nonzero
        # by the literal formula.
        stat, _ = robust.wilcoxon_statistic(np.zeros(6))
        brute, _ = robust.wilcoxon_statistic_bruteforce(np.zeros(6))
        assert stat == brute > 0


class TestWilcoxonProperties:
    @settings(max_examples=80, deadline=None, database=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 30)),
                  elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
                  | st.integers(-2, 2).map(float) | st.sampled_from([0.0, -0.0])))
    def test_batch_matches_rows(self, X):
        # Small integers and signed zeros force ties; 0.0 and -0.0 compare equal.
        stats, splits = robust.wilcoxon_statistic(X)
        rows = [robust.wilcoxon_statistic(x) for x in X]
        assert np.array_equal(stats, [s for s, _ in rows])
        assert np.array_equal(splits, [k for _, k in rows])
        assert rows == [robust.wilcoxon_statistic_bruteforce(x) for x in X]

    @settings(max_examples=60, deadline=None, database=None)
    @given(arrays(np.int64, st.integers(2, 40), elements=st.integers(-6, 6)),
           st.sampled_from(["exp", "cube", "affine"]))
    def test_strictly_increasing_transform_invariance(self, x, transform):
        # Small integers force ties; each map keeps their order and ties.
        x = x.astype(np.float64)
        y = {"exp": np.exp, "cube": lambda v: v**3 + v,
             "affine": lambda v: 3.5 * v - 2.0}[transform](x)
        assert robust.wilcoxon_statistic(y) == robust.wilcoxon_statistic(x)


class TestWilcoxonClassify:
    """The rank scan classifies a series as changed when ``statistic > threshold``."""

    def test_thresholds_around_example(self):
        stat, _ = robust.wilcoxon_statistic([0.0, 0.0, 1.0, 1.0])
        assert not stat > 0.3
        assert stat > 0.2

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        stats, _ = robust.wilcoxon_statistic(rng.standard_normal((5, 40)))
        labels = stats[None, :] > np.linspace(0.01, 2.0, 25)[:, None]
        assert np.all(labels[1:] <= labels[:-1])


class TestZscoreTruncate:
    def test_constant_unchanged(self):
        x = np.full(5, 3.0)
        np.testing.assert_array_equal(robust.zscore_truncate(x, 1.0), x)

    def test_two_point_boundary_case(self):
        np.testing.assert_array_equal(
            robust.zscore_truncate([0.0, 10.0], 1.0), [0.0, 10.0]
        )

    def test_single_outlier_clipped(self):
        out = robust.zscore_truncate([0.0, 0.0, 0.0, 0.0, 100.0], 1.0)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 0.0, 60.0])

    def test_output_within_input_band(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_cauchy(int(rng.integers(2, 200)))
            z = float(rng.uniform(0.5, 4.0))
            mean = x.mean()
            sd = np.sqrt(np.mean((x - mean) ** 2))
            out = robust.zscore_truncate(x, z)
            assert np.all(out >= mean - z * sd - 1e-12)
            assert np.all(out <= mean + z * sd + 1e-12)

    def test_location_scale_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_cauchy(30)
            a, c = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-5, 5))
            np.testing.assert_allclose(
                robust.zscore_truncate(a * x + c, 2.0),
                a * robust.zscore_truncate(x, 2.0) + c,
                atol=1e-10,
            )

    def test_batch_matches_rows(self):
        X = np.random.default_rng(5).standard_cauchy((30, 40))
        X[2] = 1.5  # constant row, returned as is
        for z in (1.0, 2.5):
            for batch in (X, np.asfortranarray(X)):
                expected = np.array([robust.zscore_truncate(r, z) for r in X])
                assert np.array_equal(robust.zscore_truncate(batch, z), expected)

    def test_batch_rejects_non_finite_row(self):
        X = np.zeros((4, 10))
        X[3, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            robust.zscore_truncate(X, 2.0)
