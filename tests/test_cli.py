"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpdlab import cli, cusum
from cpdlab.cli import main
from cpdlab.dataio import load_dataset, save_values
from cpdlab.evaluate import SCAN_METHODS, scan_statistics, tune_threshold
from cpdlab.network import (Architecture, Preprocessor, _init_network, embed_cusum,
                             network_to_json)
from cpdlab.recipes import RECIPES
from cpdlab.simulate import gen_piecewise


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_writes_expected_schema(tmp_path):
    out = tmp_path / "d.csv"
    code = run(["simulate", "--scenario", "S1", "--n", 100, "--N", 40,
                "--seed", 7, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    assert lines[0].startswith("label,tau,x1,") and lines[0].endswith(",x100")
    ds = load_dataset(out)
    assert len(ds) == 40 and ds.n == 100


def test_simulate_same_argv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "--scenario", "S2", "--N", 20, "--seed", 3, "--out", a])
    run(["simulate", "--scenario", "S2", "--N", 20, "--seed", 3, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_seed_comes_from_the_flag_alone(tmp_path, monkeypatch):
    a, b, c, d = (tmp_path / f"{name}.csv" for name in "abcd")
    run(["simulate", "--N", 10, "--seed", 11, "--out", a])
    run(["simulate", "--N", 10, "--seed", 12, "--out", b])
    assert a.read_bytes() != b.read_bytes()
    # The environment has no say: without --seed the seed is 7.
    monkeypatch.setenv("CPD_SEED", "11")
    run(["simulate", "--N", 10, "--out", c])
    run(["simulate", "--N", 10, "--seed", 7, "--out", d])
    assert c.read_bytes() == d.read_bytes()


def test_train_detect_pipeline(tmp_path):
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    net_json = tmp_path / "net.json"
    run(["simulate", "--scenario", "S1", "--N", 200, "--seed", 1, "--out", train_csv])
    run(["simulate", "--scenario", "S1", "--N", 200, "--seed", 2, "--role", "test",
         "--out", test_csv])
    code = run(["train", "--data", train_csv, "--hidden", "24", "--epochs", 20,
                "--seed", 5, "--out", net_json])
    assert code == 0
    payload = json.loads(net_json.read_text())
    assert payload["schema_version"] == 1

    report_json = tmp_path / "detect.json"
    code = run(["detect", "--method", "net", "--net", net_json, "--data", test_csv,
                "--out", report_json])
    assert code == 0
    report = json.loads(report_json.read_text())
    assert 0.0 <= report["report"]["mer"] <= 0.5
    assert len(report["decisions"]) == 200

    tuned_json = tmp_path / "tuned.json"
    code = run(["detect", "--method", "cusum", "--train", train_csv,
                "--data", test_csv, "--out", tuned_json])
    assert code == 0
    assert json.loads(tuned_json.read_text())["report"]["mer"] < 0.5


def test_detect_requires_threshold_for_scans(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--out", data])
    out = tmp_path / "r.json"
    assert run(["detect", "--method", "cusum", "--data", data, "--out", out]) == 2
    assert "provide --threshold or --train" in capsys.readouterr().err
    assert not out.exists()


def test_detect_train_tunes_the_threshold_it_reports(tmp_path):
    # On the CI's s.csv, detect --train reports what tune_threshold and
    # scan_statistics give when called directly.
    data = tmp_path / "s.csv"
    assert run(["simulate", "--N", 200, "--seed", 1, "--out", data]) == 0
    dataset = load_dataset(data)
    out = tmp_path / "r.json"
    for method in SCAN_METHODS:
        assert run(["detect", "--method", method, "--train", data, "--data", data,
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        stats = scan_statistics(method, dataset.values)
        threshold = tune_threshold(stats, dataset.labels)
        decisions = (stats > threshold).astype(int)
        assert report["report"]["threshold"] == threshold, method
        assert report["report"]["mer"] == np.mean(decisions != dataset.labels), method
        assert report["decisions"] == decisions.tolist(), method


def test_detect_train_needs_zero_one_labels(tmp_path, capsys):
    train, data = tmp_path / "m.csv", tmp_path / "s.csv"
    run(["simulate", "--multiclass", "strong", "--per-class", 20, "--seed", 1, "--out", train])
    run(["simulate", "--N", 200, "--seed", 1, "--out", data])
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["detect", "--method", "cusum", "--train", train, "--data", data,
                "--out", out]) == 2
    assert "0/1 labels" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_two_naming_the_option(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--N", 10, "--out", "s.csv"]) == 0
    argv = {"simulate": ["simulate", "--N", 10], "train": ["train", "--data", "s.csv"],
            "reproduce": ["reproduce", "grid-check"]}
    seeded = {name for name, parser in _commands().items()
              if any(a.dest == "seed" for a in parser._actions)}
    assert seeded == set(argv)
    for command in sorted(seeded):
        capsys.readouterr()
        assert run([*argv[command], "--seed", -1, "--out", "r.out"]) == 2, command
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert run(["reproduce", "null-rate", "--seed", -1, "--out", "r.out"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_detect_threshold_tie_is_zero(tmp_path):
    # A statistic equal to the threshold does not exceed it: decision 0.
    data = tmp_path / "d.csv"
    run(["simulate", "--scenario", "S1", "--N", 20, "--seed", 4, "--out", data])
    stats = cusum.cusum_statistic(load_dataset(data).values)[0]
    row = int(np.argmax(stats))
    out = tmp_path / "r.json"
    for threshold, decision in ((stats[row], 0), (np.nextafter(stats[row], 0.0), 1)):
        assert run(["detect", "--method", "cusum", "--threshold", repr(float(threshold)),
                    "--data", data, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["statistics"][row] == stats[row]
        assert report["decisions"][row] == decision


def test_localise_command(tmp_path):
    series, _ = gen_piecewise(2000, [900], [0.0, 9.0], seed=0, min_spacing=256)
    data = tmp_path / "series.csv"
    save_values(series[None, :], data)
    out = tmp_path / "loc.json"
    code = run(["localise", "--data", data, "--window", 128, "--snr-bound", 1.8,
                "--out", out])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["results"][0]["change_points"] == [900]


def test_reproduce_writes_report_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["reproduce", "grid-check", "--seed", 7, "--out", a]) == 0
    assert run(["reproduce", "grid-check", "--seed", 7, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["passed"] is True and report["violations"] == 0


def test_exit_codes(tmp_path, capsys):
    # unknown recipe, or the removed evaluate command -> argparse error 2
    assert run(["reproduce", "figZZ", "--out", tmp_path / "x.json"]) == 2
    assert run(["evaluate", "--method", "cusum", "--threshold", 3, "--test", tmp_path / "d.csv",
                "--out", tmp_path / "x.json"]) == 2
    assert not (tmp_path / "x.json").exists()
    # missing file -> config error 2
    assert run(["detect", "--method", "cusum", "--threshold", 1.0,
                "--data", tmp_path / "absent.csv", "--out", tmp_path / "y.json"]) == 2
    # a scenario that is not one of S1, S1', S2, S3 as spelled -> 2
    for scenario in ("S9", "s2"):
        capsys.readouterr()
        assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "z.csv"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
    assert not (tmp_path / "z.csv").exists()
    # a threshold that is not a finite positive number -> 2, before any report
    data, values = tmp_path / "d.csv", tmp_path / "v.csv"
    run(["simulate", "--N", 10, "--out", data])
    save_values(load_dataset(data).values, values)
    out = tmp_path / "r.json"
    for threshold in ("nan", "inf", "-inf", "-5", "0"):
        assert run(["detect", "--method", "cusum", "--threshold", threshold,
                    "--data", data, "--out", out]) == 2
        assert run(["localise", "--window", 4, "--threshold", threshold,
                    "--data", values, "--out", out]) == 2
    # an SNR bound that is not finite, or whose threshold overflows to inf -> 2
    for snr_bound in ("inf", "1e308"):
        assert run(["localise", "--window", 4, "--snr-bound", snr_bound,
                    "--data", values, "--out", out]) == 2
    # --threshold with method net -> 2: the network's own threshold decides
    net = tmp_path / "net.json"
    net.write_text(network_to_json(embed_cusum(100, 3.0), Preprocessor((("identity",),))))
    assert run(["detect", "--method", "net", "--net", net, "--threshold", 50,
                "--data", data, "--out", out]) == 2
    assert not out.exists()
    # an option the requested use of a command does not read -> 2, before any output
    for train in (tmp_path / "nonexistent.csv", data):
        assert run(["detect", "--method", "cusum", "--threshold", 3, "--train", train,
                    "--data", data, "--out", out]) == 2
    assert run(["localise", "--threshold", 3, "--snr-bound", 1.5, "--window", 4,
                "--data", values, "--out", out]) == 2
    for net_file in (tmp_path / "absent.json", net):
        assert run(["detect", "--method", "cusum", "--threshold", 3, "--net", net_file,
                    "--data", data, "--out", out]) == 2
    assert run(["detect", "--method", "net", "--net", net, "--train", data,
                "--data", data, "--out", out]) == 2
    assert run(["simulate", "--multiclass", "strong", "--scenario", "S3", "--n", 50,
                "--role", "test", "--out", out]) == 2
    assert run(["simulate", "--scenario", "S3", "--per-class", 7, "--out", out]) == 2
    assert run(["detect", "--method", "cusum", "--threshold", 3, "--seed", 1,
                "--data", data, "--out", out]) == 2
    assert not out.exists()
    # a non-finite optimiser constant -> 2, not a divergence failure
    for flag in ("--learning-rate", "--lr-decay"):
        assert run(["train", "--data", data, "--epochs", 1, flag, "nan",
                    "--out", tmp_path / "net.json"]) == 2
    # a path that is a directory, or that runs through a file -> 2, not an internal failure
    for data_path, out_path in ((tmp_path, out), (data / "x.csv", out), (data, tmp_path)):
        assert run(["detect", "--method", "cusum", "--threshold", 3, "--data", data_path,
                    "--out", out_path]) == 2
    assert run(["localise", "--window", 4, "--threshold", 3, "--data", values,
                "--out", values / "r.json"]) == 2
    assert run(["train", "--data", data, "--epochs", 1, "--out", tmp_path]) == 2
    assert run(["simulate", "--N", 10, "--out", tmp_path]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, out, error", [
    ("train", ".", "Is a directory"),
    ("reproduce", "missing/x.json", "No such file or directory"),
    ("reproduce", "s.csv/x.json", "Not a directory"),
])
def test_bad_out_exits_two_before_the_work(tmp_path, capsys, monkeypatch, command, out, error):
    def work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "train", work)
    monkeypatch.setattr(cli, "run_recipe", work)
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--N", 10, "--out", "s.csv"]) == 0
    argv = {"train": ["train", "--data", "s.csv"], "reproduce": ["reproduce", "grid-check"]}
    capsys.readouterr()
    assert run([*argv[command], "--out", out]) == 2
    assert error in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_unread_option_is_named(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["simulate", "--multiclass", "weak", "--n", 50, "--role", "test",
                "--out", out]) == 2
    assert "simulate with --multiclass does not read --n, --role" in capsys.readouterr().err
    assert not out.exists()


def test_reads_table_covers_every_option():
    # Every option of a command in the table is read by at least one use
    # of it, and an option that some use does not read defaults to None,
    # so that giving it can be told apart from leaving it out.
    parser = cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert {command for command, _ in cli._READS} == set(commands) - {"train", "reproduce"}
    for (command, use), reads in cli._READS.items():
        options = [a for a in commands[command]._actions if a.dest not in ("help", "out")]
        uses = [r for (name, _), r in cli._READS.items() if name == command]
        assert set().union(*uses) == {a.dest for a in options}, command
        for action in options:
            if action.dest not in reads:
                assert action.default is None, (command, use, action.dest)


@pytest.mark.parametrize("recipe, floor", [("null-rate", 1000), ("detection-miss", 1000),
                                           ("snr-risk", 1000), ("thm-localisation", 100)])
def test_reps_below_the_floor_is_a_usage_error(tmp_path, capsys, recipe, floor):
    out = tmp_path / "r.json"
    assert run(["reproduce", recipe, "--reps", floor - 1, "--out", out]) == 2
    assert f"need at least {floor} replications, got {floor - 1}" in capsys.readouterr().err
    assert not out.exists()


def test_reps_support_comes_from_the_recipe_signature(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    # a recipe that takes no reps -> usage error 2, and no report
    for name in ("fig1a", "fig1d", "figb1", "table1", "grid-check"):
        assert run(["reproduce", name, "--reps", 5, "--out", out]) == 2
        assert not out.exists()

    def broken(seed, *, reps=10):
        raise TypeError("internal bug")

    # a TypeError raised inside a recipe is a runtime failure, with or without --reps
    monkeypatch.setitem(RECIPES, "grid-check", broken)
    assert run(["reproduce", "grid-check", "--out", out]) == 1
    assert run(["reproduce", "grid-check", "--reps", 5, "--out", out]) == 1


def test_non_finite_csv_exits_two(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("label,tau,x1,x2,x3,x4\n0,,0.0,1.0,0.5,0.2\n"
                    "1,2,nan,0.0,1.0,1.0\n1,2,0.0,inf,1.0,1.0\n")
    net = tmp_path / "net.json"
    net.write_text(network_to_json(embed_cusum(4, 1.0), Preprocessor((("identity",),))))
    out = tmp_path / "r.json"
    assert run(["detect", "--method", "net", "--net", net, "--data", data, "--out", out]) == 2
    assert run(["detect", "--method", "cusum", "--threshold", 1.0, "--data", data,
                "--out", out]) == 2
    assert not out.exists()
    values = tmp_path / "v.csv"
    values.write_text("0.0,1.0,0.0,1.0,0.0,1.0,0.0,1.0\n0.0,1.0,0.0,-inf,0.0,1.0,0.0,1.0\n")
    assert run(["localise", "--data", values, "--window", 4, "--threshold", 1.0,
                "--out", out]) == 2


_MISSING = object()


def _with_first_number(entry):
    """An edit of a field that puts ``entry`` in place of the first number of its nested lists."""

    def edit(nested):
        inner = nested
        while isinstance(inner[0], list):
            inner = inner[0]
        inner[0] = entry
        return nested

    return edit


@pytest.mark.parametrize("field, value, message", [
    ("threshold", float("nan"), "threshold"),
    ("threshold", float("inf"), "threshold"),
    ("classes", [0, 1], "classes"),
    (None, None, "JSON object"),
    ("architecture", _MISSING, "'architecture'"),
    ("weights", _MISSING, "'weights'"),
    ("threshold", None, "'threshold'"),
    ("classes", 3, "'classes'"),
    ("preprocessor", 5, "'preprocessor'"),
    ("preprocessor", _MISSING, "'preprocessor'"),
    ("preprocessor", None, "'preprocessor'"),
    ("architecture.hidden", None, "'hidden'"),
    ("threshold", "0.5", "'threshold'"),
    ("threshold", True, "'threshold'"),
    ("architecture.output_dim", True, "'output_dim'"),
    ("architecture.hidden", [True], "'hidden'"),
    ("classes", [1.5, 2, 3], "'classes'"),
    ("classes", "abc", "'classes'"),
    ("schema_version", True, "'schema_version'"),
    ("output_bias", ["0.5"], "'output_bias'"),
    ("output_bias", [True], "'output_bias'"),
    ("weights", _with_first_number("0.5"), "'weights'"),
    ("weights", _with_first_number(None), "'weights'"),
    ("biases", _with_first_number(True), "'biases'"),
    ("preprocessor", [["identity"]], "'preprocessor' is malformed: expected a JSON list"),
    ("preprocessor", ["identity"], "'preprocessor' is malformed: expected a JSON list"),
    ("preprocessor", [], "'preprocessor' is malformed: a preprocessor needs"),
    ("preprocessor", [[]], "'preprocessor' is malformed: a preprocessor needs"),
    ("classes", [1, 1, 2], "classes must be distinct"),
    ("weights", lambda ws: [ws[0][:-1], *ws[1:]], "weights[0] has shape (197, 100)"),
    ("biases", lambda bs: [*bs, bs[0]], "got 2 weights and 2 biases"),
    ("output_bias", [0.0, 0.0], "output_bias has shape (2,), expected (1,)"),
    ("threshold", 123.0, "a multiclass network decides by argmax and takes threshold 0"),
], ids=["nan-threshold", "inf-threshold", "class-count", "top-level-list", "no-architecture",
        "no-weights", "null-threshold", "int-classes", "int-preprocessor",
        "no-preprocessor", "null-preprocessor", "null-hidden",
        "string-threshold", "bool-threshold", "bool-output-dim", "bool-hidden", "float-classes",
        "string-classes", "bool-schema-version", "string-output-bias", "bool-output-bias",
        "string-weight", "null-weight", "bool-bias", "string-step", "string-channel",
        "no-channel", "empty-channel", "repeated-classes", "short-weight", "extra-bias",
        "wide-output-bias", "multiclass-threshold"])
def test_malformed_network_file_exits_two(tmp_path, capsys, field, value, message):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--seed", 5, "--out", data])
    arch_net = embed_cusum(100, 3.0)
    if field == "classes" or "multiclass" in message:
        arch_net = _init_network(Architecture(100, (4,), 3), np.random.default_rng(0))
    payload = json.loads(network_to_json(arch_net, Preprocessor((("identity",),))))
    if field is None:
        payload = [payload]
    else:
        *path, key = field.split(".")
        owner = payload[path[0]] if path else payload
        if value is _MISSING:
            del owner[key]
        elif callable(value):
            owner[key] = value(owner[key])
        else:
            owner[key] = value
    net = tmp_path / "net.json"
    net.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["detect", "--method", "net", "--net", net, "--data", data, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_parameter_on_parameterless_step_exits_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--seed", 5, "--out", data])
    out = tmp_path / "net.json"
    for spec in ("unit_scale:3", "truncate:3+square:7|unit_scale"):
        assert run(["train", "--data", data, "--epochs", 1, "--preprocess", spec,
                    "--out", out]) == 2
        assert "takes no parameter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--preprocess", "|"), ("--preprocess", "unit_scale|"), ("--preprocess", "unit_scale++square"),
    ("--preprocess", ""), ("--preprocess", " + "), ("--hidden", "4,"), ("--hidden", "4,,8"),
    ("--hidden", ""),
])
def test_empty_preprocessing_step_or_width_exits_two(tmp_path, capsys, option, value):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--seed", 5, "--out", data])
    out = tmp_path / "net.json"
    capsys.readouterr()
    assert run(["train", "--data", data, "--epochs", 1, option, value, "--out", out]) == 2
    assert f"{option} {value!r} has an empty" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_truncation_level_exits_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--seed", 5, "--out", data])
    out = tmp_path / "net.json"
    for spec in ("truncate:inf", "truncate:nan", "truncate:0"):
        assert run(["train", "--data", data, "--epochs", 1, "--preprocess", spec,
                    "--out", out]) == 2
        assert "positive finite parameter" in capsys.readouterr().err
    assert not out.exists()


def test_detect_flat_csv_output(tmp_path):
    data = tmp_path / "d.csv"
    run(["simulate", "--scenario", "S1", "--N", 20, "--seed", 4, "--out", data])
    out = tmp_path / "decisions.csv"
    code = run(["detect", "--method", "cusum", "--threshold", 3.0,
                "--data", data, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "row,label,decision,statistic"
    assert len(lines) == 21
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[2] in ("0", "1")
    float(fields[3])  # statistic parses back


def test_runtime_failure_exits_one(tmp_path):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 20, "--seed", 6, "--out", data])
    out = tmp_path / "net.json"
    with np.errstate(all="ignore"):  # divergence overflows by design
        code = run(["train", "--data", data, "--hidden", "4", "--epochs", 5,
                    "--learning-rate", "1e155", "--seed", 0, "--out", out])
    assert code == 1


# Every option of every command: flags, dest, default, type, choices and
# required.  Editing this table changes what a user can type.
_METHODS = ("cusum", "cusum-star", "wilcoxon", "variance", "slope", "net")
_RECIPES = ("detection-miss", "fig1a", "fig1d", "figb1", "grid-check", "null-rate", "snr-risk",
            "table1", "thm-localisation")
_OPTIONS = {
    "simulate": [
        (("--seed",), "seed", 7, int, None, False),
        (("--scenario",), "scenario", None, None, None, False),
        (("--multiclass",), "multiclass", None, None, ("weak", "strong"), False),
        (("--n",), "n", None, int, None, False),
        (("--N",), "size", None, int, None, False),
        (("--per-class",), "per_class", None, int, None, False),
        (("--role",), "role", None, None, ("train", "test"), False),
        (("--out",), "out", None, None, None, True),
    ],
    "train": [
        (("--seed",), "seed", 7, int, None, False),
        (("--data",), "data", None, None, None, True),
        (("--hidden",), "hidden", "198", None, None, False),
        (("--epochs",), "epochs", 200, int, None, False),
        (("--batch-size",), "batch_size", 32, int, None, False),
        (("--learning-rate",), "learning_rate", 1e-3, float, None, False),
        (("--lr-decay",), "lr_decay", 0.0, float, None, False),
        (("--preprocess",), "preprocess", "unit_scale", None, None, False),
        (("--out",), "out", None, None, None, True),
    ],
    "detect": [
        (("--method",), "method", "cusum", None, _METHODS, False),
        (("--threshold",), "threshold", None, float, None, False),
        (("--train",), "train", None, None, None, False),
        (("--net",), "net", None, None, None, False),
        (("--data",), "data", None, None, None, True),
        (("--out",), "out", None, None, None, True),
    ],
    "localise": [
        (("--data",), "data", None, None, None, True),
        (("--window",), "window", None, int, None, True),
        (("--threshold",), "threshold", None, float, None, False),
        (("--snr-bound",), "snr_bound", None, float, None, False),
        (("--gamma",), "gamma", 0.5, float, None, False),
        (("--out",), "out", None, None, None, True),
    ],
    "reproduce": [
        (("--seed",), "seed", 7, int, None, False),
        ((), "recipe", None, None, _RECIPES, True),
        (("--reps",), "reps", None, int, None, False),
        (("--out",), "out", None, None, None, True),
    ],
}


def _commands():
    return cli._build_parser()._subparsers._group_actions[0].choices


def test_every_option_is_frozen():
    for command, parser in _commands().items():
        declared = sorted([(tuple(a.option_strings), a.dest, a.default, a.type,
                            tuple(a.choices) if a.choices else None, a.required)
                           for a in parser._actions if a.dest != "help"], key=str)
        assert declared == sorted(_OPTIONS[command], key=str), command
    assert set(_commands()) == set(_OPTIONS)


def test_unread_dataset_size_is_named_as_typed(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["simulate", "--multiclass", "strong", "--N", 50, "--out", out]) == 2
    assert "simulate with --multiclass does not read --N" in capsys.readouterr().err
    assert not out.exists()


def test_scan_methods_are_the_scans_and_the_cli_choices():
    x = np.random.default_rng(0).standard_normal((3, 12))
    for method in SCAN_METHODS:
        assert scan_statistics(method, x).shape == (3,)
    for method in ("net", "CUSUM", "cusum_star", ""):
        with pytest.raises(ValueError, match="unknown method"):
            scan_statistics(method, x)
    (method,) = [a for a in _commands()["detect"]._actions if a.dest == "method"]
    assert tuple(method.choices) == (*SCAN_METHODS, "net")


def _value(action):
    """A value that ``action`` accepts."""
    return action.choices[0] if action.choices else {int: "1", float: "1.0"}.get(action.type, "x")


def _unique_prefixes():
    """``(argv, prefix, action)`` for every unique proper prefix of a long option.

    ``argv`` is the command with its required arguments in full, so it
    parses; the prefix matches no other option string of the command,
    so an abbreviating parser would take it for ``action``'s option.
    The top-level parser has the empty ``argv``.
    """
    parsers = {(): cli._build_parser(), **{(name,): p for name, p in _commands().items()}}
    for command, parser in parsers.items():
        argv = list(command)
        for action in parser._actions:
            if command and action.required:
                argv += [*action.option_strings[:1], _value(action)]
        flags = {flag: action for action in parser._actions for flag in action.option_strings
                 if flag.startswith("--")}
        for flag, action in flags.items():
            for end in range(3, len(flag)):
                prefix = flag[:end]
                if [f for f in flags if f.startswith(prefix)] == [flag]:
                    yield argv, prefix, action


def test_no_option_prefix_is_accepted(tmp_path, capsys, monkeypatch):
    # Every option has one spelling: no prefix of it parses, so the
    # command exits 2 and writes nothing.
    monkeypatch.chdir(tmp_path)
    cases = list(_unique_prefixes())
    for argv, prefix, action in cases:
        capsys.readouterr()
        value = [] if action.nargs == 0 else [_value(action)]
        assert run([*argv, prefix, *value]) == 2, (argv, prefix)
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())
    for argv in {tuple(argv) for argv, _, _ in cases} - {()}:
        assert cli._build_parser().parse_args(list(argv)).command == argv[0]
    prefixes = {(tuple(argv[:1]), prefix) for argv, prefix, _ in cases}
    assert {(("train",), "--learn"), (("simulate",), "--mult"), (("detect",), "--thr"),
            (("detect",), "--da"), ((), "--h")} <= prefixes


def test_undeclared_options_are_named_before_missing_ones(tmp_path, capsys, monkeypatch):
    # argparse alone would report only the missing --data.
    monkeypatch.chdir(tmp_path)
    assert run(["detect", "--thr", "3", "--da", "s.csv", "--out", "d.json"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --thr --da" in err and "required" not in err
    assert run(["detect", "--threshold", "3", "--epochs=2", "--out", "d.json"]) == 2
    assert "unrecognized arguments: --epochs=2" in capsys.readouterr().err
    assert run(["detect", "--threshold", "3", "--out", "d.json"]) == 2
    assert "the following arguments are required: --data" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_import_leaves_numpy_random_unloaded():
    # Loading numpy.random when the package is imported raised the
    # heavy-tail benchmark's set-up from 0.19 to 0.25 s; the generators
    # load it on their first draw.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import cpdlab.cli; "
            "print(before, 'numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    before, after = result.stdout.split()
    if before == "True":
        pytest.skip("this numpy loads numpy.random on its own import")
    assert after == "False"
