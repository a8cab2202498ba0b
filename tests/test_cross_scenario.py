"""Robustness-transfer evaluation and location-error benchmarks."""

import numpy as np
import pytest

from cpdlab import cusum
from cpdlab.evaluate import localisation_rmse, mer_from_predictions
from cpdlab.network import Architecture, Preprocessor, TrainConfig, forward, train
from cpdlab.simulate import ScenarioSpec, gen_scenario, snr_base


def _trained_net(scenario, size, seed, epochs=200):
    train_set = gen_scenario(ScenarioSpec(scenario, size=size), seed)
    pre = Preprocessor()
    net = train(pre.apply(train_set.values), train_set.labels,
                Architecture(100, (198,), 1), TrainConfig(epochs=epochs, seed=seed))
    return net, pre


def test_transfer_to_heavy_tails_stays_finite():
    net, pre = _trained_net("S1", 200, seed=1, epochs=30)
    cauchy = gen_scenario(ScenarioSpec("S3", size=400, role="test"), seed=2)
    _, preds = forward(net, pre.apply(cauchy.values))
    report = mer_from_predictions(cauchy.labels, preds)
    assert 0.0 <= report.mer <= 1.0


def test_transfer_to_autocorrelated_noise_close_to_native_twin():
    # A detector trained on independent noise, evaluated under AR noise,
    # should stay within 0.10 MER of a twin trained on the AR noise.
    test_set = gen_scenario(ScenarioSpec("S1'", size=3000, role="test"), seed=40)
    mers = {}
    for scenario in ("S1", "S1'"):
        net, pre = _trained_net(scenario, 700, seed=41)
        _, preds = forward(net, pre.apply(test_set.values))
        mers[scenario] = mer_from_predictions(test_set.labels, preds).mer
    assert abs(mers["S1"] - mers["S1'"]) <= 0.10


def test_scan_mer_at_null_threshold_on_gaussian_scenario():
    ds = gen_scenario(ScenarioSpec("S1", size=1000, role="test"), seed=3)
    threshold = cusum.null_threshold(ds.n, 0.05)
    report = mer_from_predictions(ds.labels, cusum.cusum_statistic(ds.values)[0] > threshold)
    again = mer_from_predictions(ds.labels, cusum.cusum_statistic(ds.values)[0] > threshold)
    assert 0.0 < report.mer < 0.5
    assert report.mer == again.mer


def test_location_rmse_improves_with_signal_strength():
    rng = np.random.default_rng(4)
    length = 2000
    rmse = {}
    for name, lo, hi in (("weak", 0.5, 1.5), ("strong", 1.0, 3.0)):
        estimates, truths = [], []
        for _ in range(120):
            tau = int(rng.integers(750, 1251))
            b = snr_base(length, tau)
            mag = rng.uniform(lo * b, hi * b) * (1 if rng.integers(0, 2) else -1)
            x = (np.arange(1, length + 1) > tau) * mag + rng.standard_normal(length)
            estimates.append([cusum.cusum_statistic(x)[1]])
            truths.append(tau)
        report = localisation_rmse(estimates, truths)
        assert report.failed == 0
        rmse[name] = report.rmse
    assert rmse["strong"] < rmse["weak"]
