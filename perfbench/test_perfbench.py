"""Tests of the benchmark's own machinery: tracing, checks, speed probe and BENCHMARK.json."""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import cpdlab.cli as cli  # noqa: E402
import cpdlab.network  # noqa: E402
import cpdlab.recipes  # noqa: E402
from perfbench import checks, run, tracing, workloads  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402


class _Clock:
    """A clock that advances by a fixed step each time it is read."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_subtracts_child_spans():
    targets = (tracing.Target("fake", "outer"), tracing.Target("fake", "inner"))
    tracer = tracing.Tracer(targets, clock=_Clock())
    inner = tracer.wrap("fake.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("fake.outer", body)
    with tracer.command("c1"):
        outer()
    outer()  # outside a command: not recorded
    # Clock reads: outer start 1, inner 2-3, inner 4-5, outer end 6.
    values = tracer.layer_metrics()
    assert values["fake.outer.calls"] == 1
    assert values["fake.outer.total_s"] == 5.0
    assert values["fake.outer.self_s"] == 3.0
    assert values["fake.inner.calls"] == 2
    assert values["fake.inner.total_s"] == 2.0
    assert values["fake.inner.self_s"] == 2.0
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert {s.command for s in tracer.spans} == {"c1"}


def test_errors_are_counted_and_reraised():
    tracer = tracing.Tracer((tracing.Target("fake", "boom"),), clock=_Clock())

    def boom():
        raise ValueError("boom")

    wrapped = tracer.wrap("fake.boom", boom)
    with tracer.command("c1"), pytest.raises(ValueError):
        wrapped()
    assert tracer.layer_metrics()["fake.boom.errors"] == 1


def test_wrappers_are_removed_after_the_traced_run():
    original_train = cpdlab.network.train
    original_apply = cpdlab.network.Preprocessor.__dict__["apply"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cpdlab.recipes.train is cpdlab.network.train is cli.train
        assert cpdlab.network.train is not original_train
        assert "cpdlab.network.Preprocessor.apply" in tracing.installed_wrappers()
        assert "cpdlab.cli.wilcoxon_statistic" in tracing.installed_wrappers()
    assert tracing.installed_wrappers() == []
    assert cpdlab.recipes.train is original_train
    assert cpdlab.network.Preprocessor.__dict__["apply"] is original_apply


@pytest.fixture(scope="module")
def small_scan_serve(tmp_path_factory):
    """A scan-serve workload with few rows, without the slow recipes."""
    sizes = {"S2_ROWS": 40, "S3_ROWS": 20, "MIXTURE_PER_CLASS": 4, "SERIES": 3}
    saved = {k: getattr(workloads, k) for k in sizes}
    for key, value in sizes.items():
        setattr(workloads, key, value)
    try:
        workload = workloads.setup("scan-serve", tmp_path_factory.mktemp("scan"), 3)
    finally:
        for key, value in saved.items():
            setattr(workloads, key, value)
    workload.commands = [c for c in workload.commands
                         if c.name.startswith(("detect", "localise")) or c.name.endswith("risk")]
    return workload


def test_traced_and_untraced_digests_agree(small_scan_serve):
    plain = run.run_pass(cli, small_scan_serve, 3)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_pass(cli, small_scan_serve, 3, tracer=tracer)
    assert [c.problems for c in plain.commands] == [[]] * len(plain.commands)
    assert [c.digest for c in plain.commands] == [c.digest for c in traced.commands]
    values = tracer.layer_metrics()
    assert values["cli.main.calls"] == len(small_scan_serve.commands)
    assert values["network.forward.rows"] == 40
    assert values["localise.localise.samples"] == 3 * workloads.SERIES_LENGTH


def _reports(workload):
    earlier = {}
    run.run_pass(cli, workload, 3)
    for command in workload.commands:
        earlier[command.name] = json.loads(command.out.read_text())
    return earlier


def test_checks_reject_a_flipped_decision(small_scan_serve):
    reports = _reports(small_scan_serve)
    by_name = {c.name: c for c in small_scan_serve.commands}
    for name in ("detect cusum", "detect cusum-star", "detect net", "detect wilcoxon",
                 "detect variance", "detect slope"):
        command = by_name[name]
        assert command.check(reports[name], reports) == []
        wrong = copy.deepcopy(reports[name])
        wrong["decisions"][0] = 1 - wrong["decisions"][0]
        assert command.check(wrong, reports), name


def test_checks_reject_a_wrong_statistic(small_scan_serve):
    reports = _reports(small_scan_serve)
    by_name = {c.name: c for c in small_scan_serve.commands}
    for name in ("detect cusum", "detect cusum-star", "detect wilcoxon",
                 "detect variance", "detect slope"):
        wrong = copy.deepcopy(reports[name])
        wrong["statistics"][0] *= 1.001
        assert by_name[name].check(wrong, reports), name


def test_checks_reject_a_moved_change_point(small_scan_serve):
    reports = _reports(small_scan_serve)
    command = next(c for c in small_scan_serve.commands if c.name == "localise")
    assert command.check(reports["localise"], reports) == []
    moved = copy.deepcopy(reports["localise"])
    moved["results"][1]["change_points"][0] += 5
    assert command.check(moved, reports)
    dropped = copy.deepcopy(reports["localise"])
    dropped["results"][2]["change_points"].pop()
    assert command.check(dropped, reports)


def _fig1a_report():
    runs = [{"seed": s, "cusum_mer": c, "network_mer": n}
            for s, c, n in ((7, 0.10, 0.12), (1007, 0.11, 0.12), (2007, 0.09, 0.15))]
    return {"recipe": "fig1a", "seed": 7, "runs": runs,
            "median_network_mer": 0.12, "median_cusum_mer": 0.10,
            "median_mer_difference": 0.12 - 0.10}


def test_recipe_checks_and_claims():
    good = _fig1a_report()
    assert checks.check_recipe("fig1a", 7, good) == []
    assert checks.recipe_claims("fig1a", good) == []
    wrong = copy.deepcopy(good)
    wrong["median_network_mer"] = 0.15
    assert checks.check_recipe("fig1a", 7, wrong)
    assert checks.check_recipe("fig1a", 8, good)
    missed = copy.deepcopy(good)
    missed["runs"][0]["network_mer"] = 0.19
    missed["runs"][1]["network_mer"] = 0.19
    missed["median_network_mer"] = 0.19
    missed["median_mer_difference"] = 0.19 - 0.11
    assert checks.check_recipe("fig1a", 7, missed) == []
    assert checks.recipe_claims("fig1a", missed)
    bound = {"recipe": "null-rate", "seed": 7, "empirical": 0.06, "bound": 0.05,
             "slack": 0.004, "passed": True}
    assert checks.check_recipe("null-rate", 7, bound)
    assert checks.recipe_claims("null-rate", dict(bound, passed=False))
    table = {"recipe": "table1", "oracle_accuracy": 0.9, "adaptive_accuracy": 0.95,
             "network_accuracy": 0.7}
    assert len(checks.recipe_claims("table1", table)) == 2


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval=0.01)
    with probe.sampling():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.mark() >= 1
    assert probe.factor(0, probe.mark()) > 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
