"""Tests for dataset CSV and JSON report round trips."""

import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdlab import dataio
from cpdlab.dataio import (
    load_dataset,
    load_values,
    read_report,
    save_dataset,
    save_values,
    write_report,
)
from cpdlab.evaluate import mer_from_predictions
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


def test_header_error_quotes_only_what_it_checks(tmp_path):
    # A plain-values file given as a dataset: the error quotes the two
    # fields the check reads, not the whole first line.
    path = tmp_path / "values.csv"
    save_values(np.full((2, 600), 0.123456789), path)
    with pytest.raises(ValueError, match="header must start with 'label,tau'") as info:
        load_dataset(path)
    assert "got '0.123456789,0.123456789'" in str(info.value)
    assert len(str(info.value)) < 100 + len(str(path))


def test_header_without_value_columns_says_so(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("label,tau\n")
    with pytest.raises(ValueError, match="no value columns after 'label,tau'"):
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


def test_written_bytes(tmp_path):
    ds = LabeledDataset(np.array([[0.1, -0.0], [1e300, 5e-324]]), np.array([1, 0]),
                        [{"tau": 1, "label": 1}, {"tau": None, "label": 0}])
    save_dataset(ds, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == (
        b"label,tau,x1,x2\n1,1,0.1,-0.0\n0,,1e+300,5e-324\n")
    save_values(ds.values, tmp_path / "v.csv")
    assert (tmp_path / "v.csv").read_bytes() == b"0.1,-0.0\n1e+300,5e-324\n"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
def test_line_endings_blank_lines_and_final_newline(tmp_path, ending, final):
    """Every newline convention, blank and whitespace-only lines, and no final newline."""
    rows = ["label,tau,x1,x2", "", "1,1,0.5,-2.0", " \t ", "0,,3.0,4.0"]
    path = tmp_path / "d.csv"
    path.write_bytes((ending.join(rows) + (ending if final else "")).encode("ascii"))
    ds = load_dataset(path)
    assert ds.values.tobytes() == np.array([[0.5, -2.0], [3.0, 4.0]]).tobytes()
    assert ds.labels.tolist() == [1, 0] and [m["tau"] for m in ds.metadata] == [1, None]
    values = tmp_path / "v.csv"
    values.write_bytes((ending.join(["", "0.5,-2.0", " \t ", "3.0,4.0"])
                        + (ending if final else "")).encode("ascii"))
    assert load_values(values).tobytes() == ds.values.tobytes()
    bad = ["0.5,-2.0", "", "3.0,oops", "1.0"]
    values.write_bytes((ending.join(bad) + (ending if final else "")).encode("ascii"))
    message = "v.csv:3: malformed row (could not convert string to float: 'oops')"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_values(values)
    values.write_bytes((ending.join(bad[:2] + bad[3:]) + (ending if final else ""))
                       .encode("ascii"))
    with pytest.raises(ValueError, match=re.escape("v.csv:3: expected 2 fields, found 1")):
        load_values(values)
    path.write_bytes((ending.join(rows[:3] + ["0,,3.0,oops"]) + (ending if final else ""))
                     .encode("ascii"))
    message = "d.csv:4: malformed row (could not convert string to float: 'oops')"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(path)


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_only_newlines_end_lines(tmp_path, char):
    """``str.splitlines`` breaks at these characters; the loaders do not.

    A line holding only such a character is blank, and a field with one
    between two numbers is malformed on its own line (split at it, the
    second number would be a short row on the next line).
    """
    path = tmp_path / "v.csv"
    path.write_text(f"0.5,1.0\n{char}\n2.0,3.0\n", encoding="ascii")
    assert load_values(path).tobytes() == np.array([[0.5, 1.0], [2.0, 3.0]]).tobytes()
    path.write_text(f"0.5,1.0\n2.0,3.0{char}4.0\n", encoding="ascii")
    token = f"3.0{char}4.0"
    message = f"v.csv:2: malformed row (could not convert string to float: {token!r})"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_values(path)


def reference_load(path, dataset: bool):
    """The loaders' contract, row by row: ``float`` parses every field.

    Returns ``(values, labels, taus)``, or raises the message of the
    first error in the file: a wrong field count, a malformed field, or
    (once every row is read) the first non-finite value.
    """
    with open(path, encoding="ascii") as fh:
        lines = list(enumerate(fh, start=1))
    width = len(lines.pop(0)[1].split(",")) if dataset else None
    rows, labels, taus, linenos = [], [], [], []
    for lineno, line in lines:
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(",")
        if dataset and len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, found {len(fields)}")
        try:
            if dataset:
                labels.append(int(fields[0]))
                taus.append(None if fields[1] == "" else int(fields[1]))
                fields = fields[2:]
            row = [float(field) for field in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
        if width is None:  # the first row sets the width of a values file
            width = len(row)
        elif not dataset and len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, found {len(row)}")
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows" if dataset else f"{path}: empty values file")
    values = np.array(rows)
    for r, c in np.argwhere(~np.isfinite(values))[:1]:
        raise ValueError(f"{path}:{linenos[r]}: non-finite value {float(values[r, c])!r}")
    return values, labels, taus


def loaded(path, dataset: bool):
    """``(values, labels, taus)`` from the loader under test, in ``reference_load``'s shape."""
    if not dataset:
        return load_values(path), [], []
    ds = load_dataset(path)
    return ds.values, ds.labels.tolist(), [m["tau"] for m in ds.metadata]


def outcome(load, path, dataset: bool):
    try:
        values, labels, taus = load(path, dataset)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", (values.shape, values.tobytes(), labels, taus)


# Fields that ``float`` accepts: shortest round-trip decimals, long digit
# strings, and spellings numpy's reader refuses (``1_0``) or that are not
# finite, with the ASCII whitespace ``float`` strips (``\v`` and ``\f`` too).
STRIPPED = st.sampled_from(["", "", " ", "\t", "\v", "\f"])
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.lists(st.sampled_from("0123456789"), min_size=1, max_size=25).map("".join),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "-Infinity", "1_0", "1e5_0", "1.", ".5", "-0"]),
)
CLEAN = st.tuples(STRIPPED, NUMBERS, STRIPPED).map("".join)
# Any field: a clean one, or pieces of one (digits, sign, point, exponents,
# inf and nan, underscores, whitespace, and ``\x1c`` to ``\x1f``, which
# numpy strips at a field's edge and ``float`` does not).  "" is an empty field.
TOKENS = list("0123456789+-.eE_ \t\v\f\x1c\x1d\x1e\x1f") + ["inf", "nan", "e-5"]
FIELDS = st.one_of(CLEAN, st.lists(st.sampled_from(TOKENS), max_size=6).map("".join))
ROW_ENDS = st.sampled_from(["\n", "\n", "\n\n", "\n \t\n", "\n\x1c\n"])  # blank lines too


@st.composite
def csv_texts(draw, dataset: bool):
    """Rows of 1-4 fields; in a mixed file each row may be dirty.

    A clean row has the file's width and fields ``float`` accepts; a
    dirty row has any width, any fields and, in a dataset, maybe a
    malformed label.
    """
    n, mixed = draw(st.integers(1, 4)), draw(st.booleans())
    lines = ["label,tau," + ",".join(f"x{j}" for j in range(1, n + 1)) + "\n"] if dataset else []
    for _ in range(draw(st.integers(0, 6))):
        dirty = mixed and draw(st.booleans())
        width = draw(st.integers(1, 4)) if dirty else n
        fields = draw(st.lists(FIELDS if dirty else CLEAN, min_size=width, max_size=width))
        prefixes = ["0,,", "1,7,"] + (["x,,"] if dirty else [])
        prefix = draw(st.sampled_from(prefixes)) if dataset else ""
        lines.append(prefix + ",".join(fields) + draw(ROW_ENDS))
    return "".join(lines)


@pytest.mark.parametrize("dataset", [False, True], ids=["load_values", "load_dataset"])
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), block=st.integers(1, 64))
def test_loaders_agree_with_float_per_field(dataset, data, block):
    """Blocks that end inside the file parse as ``float`` parses each field.

    The file is accepted exactly when the reference accepts it, with
    bit-identical values; otherwise the message, line number included,
    is the reference's.
    """
    text = data.draw(csv_texts(dataset))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode("ascii"))
        expected = outcome(reference_load, path, dataset)
        with mock.patch.object(dataio, "_BLOCK", block):
            assert outcome(loaded, path, dataset) == expected


def test_first_malformed_row_outranks_a_later_short_row(tmp_path):
    """The pending block is parsed before a later row's field count is reported."""
    values = tmp_path / "v.csv"
    values.write_text("0.5,1.0\n2.0,3.0\n1.0,oops\n4.0\n")
    message = "v.csv:3: malformed row (could not convert string to float: 'oops')"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_values(values)
    path = tmp_path / "d.csv"
    path.write_text("label,tau,x1,x2\n0,,0.5,1.0\n1,1,oops,3.0\n0,,4.0\n")
    message = "d.csv:3: malformed row (could not convert string to float: 'oops')"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(path)


def test_load_memory_is_about_one_array(tmp_path):
    """Writing holds one row at a time; reading holds the array and one row."""
    ds = gen_scenario(ScenarioSpec("S2", size=3000, role="test"), seed=7)
    path = tmp_path / "d.csv"
    values = tmp_path / "v.csv"
    peaks = {}
    for name, call in [("save_dataset", lambda: save_dataset(ds, path)),
                       ("load_dataset", lambda: load_dataset(path)),
                       ("save_values", lambda: save_values(ds.values, values)),
                       ("load_values", lambda: load_values(values))]:
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    array = ds.values.nbytes  # 2.3 MiB
    # Measured: saves 0.04 MiB, load_dataset 3.2 MiB (with 3000 metadata
    # dicts), load_values 2.6 MiB.  Reading every line first took 11.3 MiB
    # and joining the written text 16.8 MiB.
    assert peaks["save_dataset"] < 0.5 * 2**20 and peaks["save_values"] < 0.5 * 2**20
    assert peaks["load_dataset"] < array + 1.5 * 2**20
    assert peaks["load_values"] < array + 1.0 * 2**20


def test_report_roundtrip_and_version(tmp_path):
    path = tmp_path / "r.json"
    write_report({"alpha": np.float64(0.25), "items": [np.int64(3)]}, path)
    loaded = read_report(path)
    assert loaded["alpha"] == 0.25 and loaded["items"] == [3]
    path.write_text('{"schema_version": 42}')
    with pytest.raises(ValueError, match="schema version"):
        read_report(path)


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_report_version_must_be_an_int(tmp_path, version):
    """``True`` and ``1.0`` compare equal to 1 but are not schema version 1."""
    path = tmp_path / "r.json"
    path.write_text(f'{{"schema_version": {version}}}')
    with pytest.raises(ValueError, match=re.escape(f"schema version {json.loads(version)!r}")):
        read_report(path)


def test_report_bytes_deterministic(tmp_path):
    report = {"b": 1.5, "a": [1, 2, 3], "nested": {"y": 0.1, "x": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, p1)
    write_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text", ["[]", "[1, 2]", '"report"', "3", "null"])
def test_report_must_be_a_json_object(tmp_path, text):
    path = tmp_path / "r.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="must hold a JSON object"):
        read_report(path)


# One report byte for byte: every change of the encoder shows here.
_REPORT = """\
{
  "array": [
    [
      1.0,
      2.0
    ],
    [
      3.0,
      4.5
    ]
  ],
  "count": 2,
  "pair": [
    1,
    2.5
  ],
  "report": {
    "accuracy": 0.75,
    "fingerprint": "abc",
    "mer": 0.25,
    "per_class": {
      "0": {
        "correct": 1,
        "count": 1,
        "tpr": 1.0
      },
      "1": {
        "correct": 1,
        "count": 2,
        "tpr": 0.5
      },
      "2": {
        "correct": 1,
        "count": 1,
        "tpr": 1.0
      }
    },
    "seed": 3,
    "size": 4,
    "threshold": 0.5
  },
  "scalar": 0.125,
  "schema_version": 1
}
"""


def test_report_written_bytes(tmp_path):
    """A dataclass, a tuple, numpy scalars and an array become plain JSON values."""
    report = mer_from_predictions([0, 1, 1, 2], [0, 1, 0, 2], threshold=0.5, seed=3,
                                  fingerprint="abc")
    path = tmp_path / "r.json"
    write_report({"report": report, "pair": (1, 2.5), "scalar": np.float64(0.125),
                  "count": np.int64(2), "array": np.array([[1.0, 2.0], [3.0, 4.5]])}, path)
    assert path.read_text(encoding="ascii") == _REPORT
