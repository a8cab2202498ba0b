"""Tests for dataset CSV and JSON report round trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdlab.dataio import (
    load_dataset,
    load_values,
    read_report,
    save_dataset,
    save_values,
    write_report,
)
from cpdlab.simulate import LabeledDataset, ScenarioSpec, gen_scenario

# Finite floats, with the extremes a decimal round trip must keep: signed
# zeros, subnormals and values next to the largest double.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
)


@st.composite
def datasets(draw):
    size, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    values = draw(arrays(np.float64, (size, n), elements=FINITE))
    labels = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    taus = draw(st.lists(st.none() | st.integers(1, max(n - 1, 1)), min_size=size,
                         max_size=size))
    metadata = [{"tau": tau, "label": label} for tau, label in zip(taus, labels)]
    return LabeledDataset(values, np.asarray(labels), metadata)


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = gen_scenario(ScenarioSpec("S3", size=20), seed=0)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.values, ds.values)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    for a, b in zip(loaded.metadata, ds.metadata):
        assert a["tau"] == b["tau"]


@settings(max_examples=80, deadline=None, database=None)
@given(datasets())
def test_dataset_roundtrip_property(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
    assert loaded.values.shape == ds.values.shape
    assert loaded.values.tobytes() == ds.values.tobytes()  # bit-exact, signs of zero too
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert [m["tau"] for m in loaded.metadata] == [m["tau"] for m in ds.metadata]


def test_save_is_deterministic(tmp_path):
    ds = gen_scenario(ScenarioSpec("S1", size=10), seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_schema(tmp_path):
    ds = gen_scenario(ScenarioSpec("S1", n=5, size=4), seed=2)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "label,tau,x1,x2,x3,x4,x5"


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(path)


def test_header_mismatch_names_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,tau,x1,z2\n1,,0.0,1.0\n")
    with pytest.raises(ValueError, match="x2"):
        load_dataset(path)


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,tau,x1,x2\n1,,0.0,1.0\n1,,oops,1.0\n")
    with pytest.raises(ValueError, match="3"):
        load_dataset(path)


def test_field_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,tau,x1,x2\n1,,0.0\n")
    with pytest.raises(ValueError, match="expected 4 fields"):
        load_dataset(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_values_name_line(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,tau,x1,x2\n1,,0.0,1.0\n0,,{token},1.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite"):
        load_dataset(path)
    path = tmp_path / "v.csv"
    path.write_text(f"0.0,1.0\n\n1.0,{token}\n")  # blank lines still count
    with pytest.raises(ValueError, match=r"v\.csv:3: non-finite"):
        load_values(path)


def test_values_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.standard_cauchy((5, 11))
    path = tmp_path / "v.csv"
    save_values(rows, path)
    np.testing.assert_array_equal(load_values(path), rows)


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(
           lambda n: arrays(np.float64, st.tuples(st.integers(1, 6), st.just(n)),
                            elements=FINITE)),
       st.lists(st.integers(0, 7), max_size=4))
def test_values_roundtrip_property(rows, blank_at):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        save_values(rows, path)
        lines = path.read_text().splitlines()
        for k in sorted(blank_at, reverse=True):  # blank lines are skipped on read
            lines.insert(min(k, len(lines)), "")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_values(path)
    assert loaded.shape == rows.shape
    assert loaded.tobytes() == rows.tobytes()  # bit-exact, signs of zero too


def test_values_malformed_row_names_line(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("0.0,1.0\n\n1.0,oops\n")
    with pytest.raises(ValueError, match=r"v\.csv:3: malformed row .*'oops'"):
        load_values(path)
    path.write_text("0.0,1.0\n1.0\n")
    with pytest.raises(ValueError, match=r"v\.csv:2: expected 2 fields, found 1"):
        load_values(path)


def test_report_roundtrip_and_version(tmp_path):
    path = tmp_path / "r.json"
    write_report({"alpha": np.float64(0.25), "items": [np.int64(3)]}, path)
    loaded = read_report(path)
    assert loaded["alpha"] == 0.25 and loaded["items"] == [3]
    path.write_text('{"schema_version": 42}')
    with pytest.raises(ValueError, match="schema version"):
        read_report(path)


def test_report_bytes_deterministic(tmp_path):
    report = {"b": 1.5, "a": [1, 2, 3], "nested": {"y": 0.1, "x": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, p1)
    write_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
