"""Tests for the sliding-window change-point localiser."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdlab import cusum
from cpdlab.localise import (
    WindowClassifier,
    cusum_star_window_classifier,
    localise,
    sliding_labels,
)
from cpdlab.simulate import gen_piecewise


def _straddle_classifier(n, tau):
    """Ideal oracle: label 1 iff the window contains the change at tau."""

    def label_series(series):
        count = series.size - n + 1
        labels = np.zeros(count, dtype=np.int64)
        # 1-based windows i in [tau-n+2, tau] contain the change at tau.
        labels[max(0, tau - n + 1):tau] = 1
        return labels

    return WindowClassifier(n, label_series)


def _fixed_labels_classifier(n, labels):
    """Give the windows of a series of length ``labels.size + n - 1`` these labels."""
    labels = np.asarray(labels, dtype=np.int64)
    return WindowClassifier(n, lambda series: labels.copy())


def _contained(inner, outer):
    """Every segment of ``inner`` lies inside one segment of ``outer``."""
    return all(any(s <= a and b <= e for s, e in outer) for a, b in inner)


def _constant_classifier(n, label):
    """Give every window of length n the same label."""
    return WindowClassifier(n, lambda series: np.full(series.size - n + 1, label))


class TestSlidingLabels:
    def test_constant_one_classifier(self):
        labels = sliding_labels(np.zeros(10), _constant_classifier(4, 1))
        assert labels.tolist() == [1] * 7
        assert labels.dtype == np.int64

    def test_output_length(self):
        clf = _constant_classifier(5, 0)
        for total in (5, 9, 23):
            labels = sliding_labels(np.zeros(total), clf)
            assert labels.size == total - 5 + 1

    def test_huge_threshold_scan_is_silent_on_noise(self):
        rng = np.random.default_rng(0)
        clf = cusum_star_window_classifier(16, 50.0)
        labels = sliding_labels(rng.standard_normal(200), clf)
        assert labels.sum() == 0

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.one_of(st.sampled_from([4, 8, 16, 32, 64, 128]), st.integers(4, 200)),
           st.integers(0, 2**32 - 1), st.floats(0.5, 4.0))
    def test_vectorised_path_matches_loop(self, n, seed, threshold):
        rng = np.random.default_rng(seed)
        series = rng.standard_normal(2 * n + 40)
        series[n + 20:] += 3.0
        fast = sliding_labels(series, cusum_star_window_classifier(n, threshold))
        windows = np.lib.stride_tricks.sliding_window_view(series, n)
        statistic = cusum.cusum_star_statistic(windows)[0]
        clear = np.abs(statistic - threshold) > 1e-9
        np.testing.assert_array_equal(fast[clear], (statistic > threshold)[clear])


class TestLocalise:
    def test_all_zero_classifier_finds_nothing(self):
        result = localise(np.zeros(64), _constant_classifier(8, 0))
        assert result.change_points == [] and result.segments == []

    def test_ideal_straddle_recovers_location(self):
        result = localise(np.zeros(3500), _straddle_classifier(700, 1000), 0.5)
        assert len(result.change_points) == 1
        assert result.change_points[0] == 1000
        s, e = result.segments[0]
        assert s <= 1000 <= e

    def test_running_mean_range_and_maximality(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 96)
        clf = WindowClassifier(8, lambda s: labels.copy())
        result = localise(np.zeros(96 + 8 - 1), clf, gamma=0.5)
        assert np.all(result.running_mean >= 0) and np.all(result.running_mean <= 1)
        for s, e in result.segments:
            lo, hi = s - 8, e - 8  # segment bounds as running-mean offsets
            assert np.all(result.running_mean[lo:hi + 1] >= 0.5)
            if lo > 0:
                assert result.running_mean[lo - 1] < 0.5
            if hi + 1 < result.running_mean.size:
                assert result.running_mean[hi + 1] < 0.5

    def test_translation_shifts_estimates(self):
        # Noiseless steps: labels depend only on window content, so a
        # shifted change moves the estimate by exactly the shift.
        clf = cusum_star_window_classifier(64, cusum.snr_threshold_star(64, 1.5))
        for tau in (600, 750):
            series, _ = gen_piecewise(2000, [tau], [0.0, 8.0], noise_sd=0.0, seed=0)
            result = localise(series, clf, 0.5)
            assert result.change_points == [tau]

    def test_monotone_gamma(self):
        series, _ = gen_piecewise(1200, [400, 800], [0.0, 7.0, 0.5], noise_sd=1.0, seed=4)
        clf = cusum_star_window_classifier(64, cusum.snr_threshold_star(64, 1.5))
        segments = [localise(series, clf, gamma).segments for gamma in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(_contained(high, low) for low, high in zip(segments, segments[1:]))

    def test_raising_gamma_can_split_a_segment(self):
        # The running mean dips to 0.5 between two peaks of 1: one segment
        # at gamma 0.5, two at 0.75, so the estimate count rises.
        labels = [int(c) for c in "0000" "11111" "00" "11111" "00000000"]
        clf = _fixed_labels_classifier(4, labels)
        series = np.zeros(len(labels) + 3)
        low, high = localise(series, clf, 0.5), localise(series, clf, 0.75)
        assert low.change_points == [8] and high.change_points == [8, 15]
        assert _contained(high.segments, low.segments)

    @settings(max_examples=200, deadline=None, database=None)
    @given(arrays(np.int64, st.integers(9, 120), elements=st.integers(0, 1)),
           st.integers(4, 8), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_segments_shrink_as_gamma_rises(self, labels, n, g1, g2):
        # At least n + 1 labels, so the series holds 2n points.
        clf = _fixed_labels_classifier(n, labels)
        series = np.zeros(labels.size + n - 1)
        low, high = sorted((g1, g2))
        assert _contained(localise(series, clf, high).segments,
                          localise(series, clf, low).segments)

    @settings(max_examples=300, deadline=None, database=None)
    @given(arrays(np.int64, st.integers(9, 150), elements=st.integers(0, 1)),
           st.integers(4, 8), st.floats(0.01, 1.0))
    def test_segments_match_plain_loop(self, labels, n, gamma):
        # At least n + 1 labels, so the series holds 2n points.
        result = localise(np.zeros(labels.size + n - 1), _fixed_labels_classifier(n, labels),
                          gamma)
        running = result.running_mean
        segments, change_points = [], []
        j = 0
        while j < running.size:
            if running[j] < gamma:
                j += 1
                continue
            start = j
            while j < running.size and running[j] >= gamma:
                j += 1
            peak = start + int(np.argmax(running[start:j]))
            segments.append((start + n, j - 1 + n))
            change_points.append(peak + n)
        assert result.segments == segments
        assert result.change_points == change_points
        assert all(type(t) is int for t in change_points + [i for s in segments for i in s])

    def test_unanimous_vote_reaches_gamma_for_any_window(self):
        # 9 of 10 windows fire on a clean step, so the peak vote must be
        # exactly 9/10 == 0.9 for gamma 0.9 to find the change.
        series, _ = gen_piecewise(200, [100], [0.0, 50.0], seed=0)
        result = localise(series, cusum_star_window_classifier(10, 3.0), 0.9)
        assert result.change_points == [100]

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(4, 300), st.integers(1, 400), st.integers(0, 2**32 - 1), st.data())
    def test_running_mean_is_the_exact_vote_count_over_n(self, n, extra, seed, data):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n + extra)
        run = data.draw(st.integers(0, extra), label="run start")
        labels[run:run + n] = 1
        result = localise(np.zeros(labels.size + n - 1), _fixed_labels_classifier(n, labels))
        counts = [int(labels[j:j + n].sum()) for j in range(extra + 1)]
        assert result.running_mean.tolist() == [k / n for k in counts]
        assert result.running_mean[run] == 1.0

    def test_input_validation(self):
        clf = _constant_classifier(16, 0)
        with pytest.raises(ValueError, match="length >= 32"):
            localise(np.zeros(20), clf)
        with pytest.raises(ValueError, match="gamma"):
            localise(np.zeros(64), clf, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            localise(np.zeros(64), clf, gamma=1.5)

    def test_noisy_multi_change_recovery(self):
        clf = cusum_star_window_classifier(128, cusum.snr_threshold_star(128, 1.8))
        series, _ = gen_piecewise(
            3500, [990, 1691, 2733], [0.0, 11.0, -1.0, 12.0], seed=5, min_spacing=256
        )
        result = localise(series, clf, 0.5)
        assert result.change_points == [990, 1691, 2733]


class TestNetworkWindowClassifier:
    def test_embedded_net_matches_scan_classifier(self):
        from cpdlab.localise import network_window_classifier
        from cpdlab.network import Preprocessor, embed_cusum

        rng = np.random.default_rng(6)
        lam = cusum.snr_threshold_star(64, 1.5)
        clf = network_window_classifier(embed_cusum(64, lam, "star"),
                                        Preprocessor((("identity",),)))
        assert clf.length == 64
        series, _ = gen_piecewise(600, [300], [0.0, 6.0], seed=7, min_spacing=128)
        labels = sliding_labels(series, clf)
        windows = np.lib.stride_tricks.sliding_window_view(series, 64)
        direct = (cusum.cusum_star_statistic(windows)[0] > lam).astype(np.int64)
        np.testing.assert_array_equal(labels, direct)

    def test_labels_equal_forward_on_materialised_windows(self):
        from cpdlab.localise import network_window_classifier
        from cpdlab.network import Preprocessor, embed_cusum, forward

        net, pre = embed_cusum(100, 1.5), Preprocessor()
        series, _ = gen_piecewise(3000, [700, 1500, 2300], [0.0, 1.5, -0.5, 1.0], seed=9,
                                  min_spacing=200)
        windows = np.lib.stride_tricks.sliding_window_view(series, 100)
        assert len(cusum._row_blocks(len(windows), net.architecture.hidden[0])) >= 3
        labels = sliding_labels(series, network_window_classifier(net, pre))
        direct = forward(net, pre.apply(np.ascontiguousarray(windows)))[1]
        np.testing.assert_array_equal(labels, direct)
        assert 0 < labels.sum() < labels.size

    def test_preprocessed_window_length(self):
        from cpdlab.localise import network_window_classifier
        from cpdlab.network import Architecture, Preprocessor, TrainConfig, train

        rng = np.random.default_rng(8)
        pre = Preprocessor((("unit_scale",), (("square",), ("unit_scale",))))
        X = rng.standard_normal((40, 32))
        y = (np.abs(X).max(axis=1) > 2.5).astype(int)
        net = train(pre.apply(X), y, Architecture(64, (4,), 1), TrainConfig(epochs=2, seed=0))
        clf = network_window_classifier(net, pre)
        assert clf.length == 32
        labels = sliding_labels(rng.standard_normal(100), clf)
        assert labels.size == 100 - 32 + 1
