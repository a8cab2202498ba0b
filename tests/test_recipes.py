"""Tests of the experiment recipes.

The Figure 1 tests read the full seed-7 reports from the session cache
of ``conftest.py`` (``recipe_report``), which the acceptance suite
shares, so no recipe runs twice for them.  The Monte-Carlo recipes are
also run at reduced ``reps``.
"""

import math
import statistics
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cpdlab import cusum, recipes, simulate
from cpdlab.evaluate import scan_statistics, tune_threshold
from cpdlab.network import Preprocessor, _init_network
from cpdlab.recipes import RECIPES, _grid_check_length, run_recipe
from cpdlab.simulate import MulticlassSpec, ScenarioSpec, gen_multiclass, gen_scenario

FIGURE1_KEYS = {"recipe", "seed", "scenario", "train_size", "test_size", "epochs", "runs",
                "median_network_mer"}


def _check_figure1_report(report, recipe, scenario, train_size):
    """The fields every Figure 1 row fixes: 3 runs of 5000 test rows and 200 epochs each."""
    assert (report["recipe"], report["seed"], report["scenario"]) == (recipe, 7, scenario)
    assert (report["train_size"], report["test_size"], report["epochs"]) == (train_size, 5000, 200)
    assert [r["seed"] for r in report["runs"]] == [7, 1007, 2007]
    assert 0.0 <= report["median_network_mer"] <= 1.0


def test_registry_names():
    assert {"fig1a", "fig1d", "figb1", "table1", "thm-localisation",
            "null-rate", "detection-miss", "snr-risk", "grid-check"} == set(RECIPES)


def test_unknown_recipe_rejected():
    with pytest.raises(ValueError, match="unknown recipe"):
        run_recipe("fig9z")


@pytest.mark.parametrize("name, keywords", [
    ("fig1a", ("train_size", "test_size", "n_seeds", "epochs")),
    ("fig1d", ("train_size", "test_size", "n_seeds", "epochs")),
    ("figb1", ("train_size", "test_size", "n_seeds", "epochs", "z", "clip_passes")),
    ("table1", ("regime", "per_class_train", "per_class_test", "epochs")),
    ("grid-check", ("n_min", "n_max")),
], ids=["fig1a", "fig1d", "figb1", "table1", "grid-check"])
def test_recipe_takes_no_size(name, keywords):
    for keyword in keywords:
        with pytest.raises(TypeError):
            run_recipe(name, 7, **{keyword: 60})


def test_cached_reports_are_copies(recipe_report):
    recipe_report("grid-check")["violations"] = -1
    assert recipe_report("grid-check")["violations"] == 0


def test_fig1a_report_fields_small(recipe_report):
    report = recipe_report("fig1a")
    assert report.keys() == FIGURE1_KEYS | {"median_cusum_mer", "median_mer_difference"}
    _check_figure1_report(report, "fig1a", "S1", 700)
    for r in report["runs"]:
        assert r.keys() == {"seed", "threshold", "cusum_mer", "network_mer"}


def test_fig1d_report_fields_small(recipe_report):
    report = recipe_report("fig1d")
    assert report.keys() == FIGURE1_KEYS | {"median_cusum_mer", "median_mer_gain"}
    _check_figure1_report(report, "fig1d", "S3", 1000)
    for r in report["runs"]:
        assert r.keys() == {"seed", "threshold", "cusum_mer", "network_mer"}


def test_figb1_report_fields_small(recipe_report):
    report = recipe_report("figb1")
    assert report.keys() == FIGURE1_KEYS | {"truncation_z", "clip_passes", "median_wilcoxon_mer",
                                            "median_mer_margin"}
    _check_figure1_report(report, "figb1", "S3", 1000)
    assert (report["truncation_z"], report["clip_passes"]) == (3.0, 12)
    pre = Preprocessor(((*(("truncate", 3.0),) * 12, ("unit_scale",)),))
    for r in report["runs"]:
        assert r.keys() == {"seed", "wilcoxon_threshold", "scan_threshold", "wilcoxon_mer",
                            "network_mer"}
        train = gen_scenario(ScenarioSpec("S3", size=1000, role="train"), r["seed"])
        stats = cusum.cusum_statistic(pre.apply(train.values))[0]
        assert r["scan_threshold"] == tune_threshold(stats, train.labels)


@pytest.mark.parametrize("name, key, minuend, subtrahend", [
    ("fig1a", "median_mer_difference", "network_mer", "cusum_mer"),
    ("fig1d", "median_mer_gain", "cusum_mer", "network_mer"),
    ("figb1", "median_mer_margin", "network_mer", "wilcoxon_mer"),
], ids=["fig1a", "fig1d", "figb1"])
def test_figure1_summary_is_the_median_run_difference(recipe_report, name, key, minuend,
                                                      subtrahend):
    report = recipe_report(name)
    expected = statistics.median(r[minuend] - r[subtrahend] for r in report["runs"])
    # Bit for bit: swapped operands would turn a 0.0 into -0.0.
    assert report[key].hex() == expected.hex()


def _untrained(X, y, arch, config, init=None):
    """An untrained network of ``arch``: it stands in for training, so a
    recipe runs in about a second when only its order or memory is under test."""
    net = _init_network(arch, np.random.default_rng(config.seed))
    return net if arch.output_dim == 1 else replace(net, classes=tuple(np.unique(y).tolist()))


def test_table1_trains_before_it_draws_its_test_mixture(monkeypatch):
    # The training mixture is streamed into its features, never built
    # whole: only the seed-8 test mixture goes through gen_multiclass,
    # after training, and the features are freed by then.
    events, features = [], []

    def fit(X, y, arch, config, init=None):
        events.append("train")
        features.append(weakref.ref(X))
        return _untrained(X, y, arch, config, init)

    def draw(spec, seed):
        events.append(("draw", seed, any(ref() is not None for ref in features)))
        return gen_multiclass(spec, seed)

    monkeypatch.setattr(recipes, "train", fit)
    monkeypatch.setattr(recipes, "gen_multiclass", draw)
    tracemalloc.start()
    try:
        report = run_recipe("table1", 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events == ["train", ("draw", 8, False)]
    assert report["network"]["size"] == 5 * report["per_class_test"]
    # Measured: 14.7 MiB, about the 12.2 MiB feature matrix.  Holding
    # the whole training mixture next to its features took 21.2 MiB.
    assert peak < 17 * 2**20


def test_table1_thresholds_are_tuned_on_the_whole_training_mixture(recipe_report):
    report = recipe_report("table1")
    spec = MulticlassSpec(report["regime"], per_class=report["per_class_train"])
    train = gen_multiclass(spec, report["seed"])
    for kind, method, fired, idle, _ in recipes._ORACLE_TESTS:
        mask = np.isin(train.labels, (fired, idle))
        stats = scan_statistics(method, train.values[mask])
        assert report["thresholds"][kind] == tune_threshold(stats, train.labels[mask] == fired)


@pytest.mark.parametrize("name", ["fig1a", "fig1d", "figb1"])
def test_figure1_trains_before_it_streams_its_test_set(monkeypatch, name):
    train_refs, alive_at_test_rows = [], []
    scenario_rows = simulate._scenario_rows

    def draw(spec, seed):
        dataset = gen_scenario(spec, seed)
        if spec.role == "train":
            train_refs.extend((weakref.ref(dataset), weakref.ref(dataset.values)))
        return dataset

    def rows(spec, seed, indices, out):
        if spec.role == "test":
            alive_at_test_rows.append(any(ref() is not None for ref in train_refs))
        return scenario_rows(spec, seed, indices, out)

    monkeypatch.setattr(recipes, "train", _untrained)
    monkeypatch.setattr(recipes, "gen_scenario", draw)
    monkeypatch.setattr(simulate, "_scenario_rows", rows)
    tracemalloc.start()
    try:
        report = run_recipe(name, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(train_refs) == 6 and alive_at_test_rows and not any(alive_at_test_rows)
    assert report["test_size"] == 5000
    # Measured: fig1a 2.3, fig1d 2.9 and figb1 3.4 MiB.  Drawing the
    # whole test set before training took 7.3, 7.9 and 8.4 MiB.
    assert peak < 6 * 2**20


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
    # Exactly, not approximately, length by length.
    for n in range(16, 129):
        assert _grid_check_length(n) == _grid_check_full_windows(n)
