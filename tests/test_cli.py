"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from cpdlab import cli, cusum
from cpdlab.cli import main
from cpdlab.dataio import load_dataset, save_values
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


def test_seed_env_fallback_and_flag_priority(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    monkeypatch.setenv("CPD_SEED", "11")
    run(["simulate", "--N", 10, "--out", a])
    monkeypatch.delenv("CPD_SEED")
    run(["simulate", "--N", 10, "--seed", 11, "--out", b])
    run(["simulate", "--N", 10, "--seed", 12, "--out", c])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_train_detect_evaluate_pipeline(tmp_path):
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

    eval_json = tmp_path / "eval.json"
    code = run(["evaluate", "--method", "cusum", "--train", train_csv,
                "--test", test_csv, "--out", eval_json])
    assert code == 0
    assert json.loads(eval_json.read_text())["report"]["mer"] < 0.5


def test_detect_requires_threshold_for_scans(tmp_path):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--out", data])
    out = tmp_path / "r.json"
    assert run(["detect", "--method", "cusum", "--data", data, "--out", out]) == 2


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


def test_exit_codes(tmp_path):
    # unknown recipe -> argparse error 2
    assert run(["reproduce", "figZZ", "--out", tmp_path / "x.json"]) == 2
    # missing file -> config error 2
    assert run(["detect", "--method", "cusum", "--threshold", 1.0,
                "--data", tmp_path / "absent.csv", "--out", tmp_path / "y.json"]) == 2
    # bad scenario -> 2
    assert run(["simulate", "--scenario", "S9", "--out", tmp_path / "z.csv"]) == 2
    # a threshold that is not a finite positive number -> 2, before any report
    data, values = tmp_path / "d.csv", tmp_path / "v.csv"
    run(["simulate", "--N", 10, "--out", data])
    save_values(load_dataset(data).values, values)
    out = tmp_path / "r.json"
    for threshold in ("nan", "inf", "-inf", "-5", "0"):
        assert run(["detect", "--method", "cusum", "--threshold", threshold,
                    "--data", data, "--out", out]) == 2
        assert run(["evaluate", "--method", "cusum", "--threshold", threshold,
                    "--test", data, "--out", out]) == 2
        assert run(["localise", "--window", 4, "--threshold", threshold,
                    "--data", values, "--out", out]) == 2
    # --threshold with method net -> 2: the network's own threshold decides
    net = tmp_path / "net.json"
    net.write_text(network_to_json(embed_cusum(100, 3.0), Preprocessor((("identity",),))))
    assert run(["detect", "--method", "net", "--net", net, "--threshold", 50,
                "--data", data, "--out", out]) == 2
    assert run(["evaluate", "--method", "net", "--net", net, "--threshold", 50,
                "--test", data, "--out", out]) == 2
    assert not out.exists()
    # an option the requested use of a command does not read -> 2, before any output
    for train in (tmp_path / "nonexistent.csv", data):
        assert run(["evaluate", "--method", "cusum", "--threshold", 3, "--train", train,
                    "--test", data, "--out", out]) == 2
    assert run(["localise", "--threshold", 3, "--snr-bound", 1.5, "--window", 4,
                "--data", values, "--out", out]) == 2
    for net_file in (tmp_path / "absent.json", net):
        assert run(["detect", "--method", "cusum", "--threshold", 3, "--net", net_file,
                    "--data", data, "--out", out]) == 2
    assert run(["evaluate", "--method", "net", "--net", net, "--train", data,
                "--test", data, "--out", out]) == 2
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


def test_reps_support_comes_from_the_recipe_signature(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    # grid-check takes no reps -> usage error 2
    assert run(["reproduce", "grid-check", "--reps", 5, "--out", out]) == 2

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
    ("architecture.hidden", None, "'hidden'"),
], ids=["nan-threshold", "inf-threshold", "class-count", "top-level-list", "no-architecture",
        "no-weights", "null-threshold", "int-classes", "int-preprocessor", "null-hidden"])
def test_malformed_network_file_exits_two(tmp_path, capsys, field, value, message):
    data = tmp_path / "d.csv"
    run(["simulate", "--N", 10, "--seed", 5, "--out", data])
    arch_net = embed_cusum(100, 3.0)
    if field == "classes":
        arch_net = _init_network(Architecture(100, (4,), 3), np.random.default_rng(0))
    payload = json.loads(network_to_json(arch_net, Preprocessor((("identity",),))))
    if field is None:
        payload = [payload]
    else:
        *path, key = field.split(".")
        owner = payload[path[0]] if path else payload
        if value is _MISSING:
            del owner[key]
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
