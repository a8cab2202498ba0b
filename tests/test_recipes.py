"""Smoke tests of the experiment recipes at reduced sizes."""

import math

import numpy as np
import pytest

from cpdlab import cusum
from cpdlab.evaluate import tune_threshold
from cpdlab.network import Preprocessor
from cpdlab.recipes import RECIPES, fig1a, fig1d, figb1, grid_check, run_recipe
from cpdlab.simulate import ScenarioSpec, gen_scenario


def test_registry_names():
    assert {"fig1a", "fig1d", "figb1", "table1", "thm-localisation",
            "null-rate", "detection-miss", "snr-risk", "grid-check"} == set(RECIPES)


def test_unknown_recipe_rejected():
    with pytest.raises(ValueError, match="unknown recipe"):
        run_recipe("fig9z")


def test_fig1a_report_fields_small():
    report = fig1a(3, train_size=60, test_size=200, n_seeds=1, epochs=3)
    assert "median_cusum_mer" in report and "median_network_mer" in report
    assert report["runs"][0].keys() >= {"cusum_mer", "network_mer", "threshold"}
    assert 0.0 <= report["median_network_mer"] <= 1.0


def test_fig1d_report_fields_small():
    report = fig1d(3, train_size=60, test_size=200, n_seeds=2, epochs=3)
    assert report.keys() == {"recipe", "seed", "scenario", "train_size", "test_size", "epochs",
                             "runs", "median_network_mer", "median_cusum_mer",
                             "median_mer_gain"}
    assert (report["recipe"], report["scenario"]) == ("fig1d", "S3")
    assert [r["seed"] for r in report["runs"]] == [3, 1003]
    for r in report["runs"]:
        assert r.keys() == {"seed", "threshold", "cusum_mer", "network_mer"}
    assert 0.0 <= report["median_network_mer"] <= 1.0


def test_figb1_report_fields_small():
    z, passes = 3.0, 2
    report = figb1(3, train_size=60, test_size=200, n_seeds=2, epochs=3, z=z,
                   clip_passes=passes)
    assert report.keys() == {"recipe", "seed", "scenario", "truncation_z", "clip_passes",
                             "train_size", "test_size", "epochs", "runs",
                             "median_network_mer", "median_wilcoxon_mer", "median_mer_margin"}
    assert (report["recipe"], report["scenario"]) == ("figb1", "S3")
    assert [r["seed"] for r in report["runs"]] == [3, 1003]
    pre = Preprocessor(((*(("truncate", z),) * passes, ("unit_scale",)),))
    for r in report["runs"]:
        assert r.keys() == {"seed", "wilcoxon_threshold", "scan_threshold", "wilcoxon_mer",
                            "network_mer"}
        train = gen_scenario(ScenarioSpec("S3", size=60, role="train"), r["seed"])
        stats = cusum.cusum_statistic(pre.apply(train.values))[0]
        assert r["scan_threshold"] == tune_threshold(stats, train.labels)
    assert 0.0 <= report["median_network_mer"] <= 1.0


def test_localisation_recipe_small():
    report = run_recipe("thm-localisation", 3, reps=100)
    assert report["passed"] is True
    assert report["empirical"] <= 0.05


@pytest.mark.parametrize("name, reps", [("thm-localisation", 100), ("null-rate", 2000),
                                        ("detection-miss", 2000), ("snr-risk", 2000)],
                         ids=["thm-localisation", "null-rate", "detection-miss", "snr-risk"])
def test_bound_recipes_accept_rep_override(name, reps):
    report = run_recipe(name, 3, reps=reps)
    assert report["recipe"] == name
    assert report["reps"] == reps and report["passed"] is True


def _grid_check_full_windows(n):
    """grid-check's worst ratio and violation count at length n, from every window entry."""
    tau = np.arange(1, n)
    i = np.arange(1, n)
    reach = np.minimum(tau, n - tau) / 2.0
    lo = np.ceil(tau - reach)[:, None]
    hi = np.floor(tau + reach)[:, None]
    resp = cusum.step_response(n, tau)
    ratio = np.where((lo <= i) & (i <= hi), resp, np.inf).min(axis=1) / resp[tau - 1, tau - 1]
    floor = math.sqrt(3.0) / 3.0
    return float(ratio.min()), int(np.count_nonzero(ratio < floor - 1e-9))


def test_grid_check_endpoints_equal_full_windows():
    # Exactly, not approximately: length by length, then over the range.
    reference = {n: _grid_check_full_windows(n) for n in range(16, 129)}
    for n, (worst, violations) in reference.items():
        report = grid_check(n_min=n, n_max=n)
        assert (report["worst_ratio"], report["violations"]) == (worst, violations)
    report = grid_check(n_min=16, n_max=128)
    assert report["worst_ratio"] == min(worst for worst, _ in reference.values())
    assert report["violations"] == sum(v for _, v in reference.values()) == 0
