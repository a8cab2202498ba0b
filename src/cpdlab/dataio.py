"""CSV dataset files and JSON reports.

Dataset CSV schema: header ``label,tau,x1,...,xn``; one example per
row, ``tau`` left empty for no-change rows.  Floats are written with
shortest round-trip decimals (at most 17 significant digits), so
``load_dataset(save_dataset(d))`` reproduces the array bit-exactly and
identical inputs produce byte-identical files.  All output uses '.' as
the decimal separator and newline-terminated rows regardless of locale.
The loaders count the non-blank lines first, then parse each row with
``float`` straight into a preallocated float64 array, so only one row
at a time is held as Python floats.  A malformed row, a wrong field
count or a non-finite value is reported with its line number.

JSON reports carry a ``schema_version`` field and are written with
sorted keys, so equal report dictionaries serialise to equal bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .simulate import LabeledDataset

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_values",
    "load_values",
    "jsonable",
    "write_report",
    "read_report",
]

REPORT_SCHEMA_VERSION = 1


def save_dataset(dataset: LabeledDataset, path) -> None:
    """Write a labelled dataset as ``label,tau,x1..xn`` CSV."""
    n = dataset.n
    header = "label,tau," + ",".join(f"x{j}" for j in range(1, n + 1))
    lines = [header]
    for row, label, meta in zip(dataset.values.tolist(), dataset.labels, dataset.metadata):
        tau = meta.get("tau")
        tau_text = "" if tau is None else str(int(tau))
        lines.append(f"{int(label)},{tau_text}," + ",".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_dataset(path) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset`.

    Raises ``ValueError`` naming the offending column or line on any
    schema mismatch or non-finite value.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "label" or header[1] != "tau":
        raise ValueError(f"{path}: header must start with 'label,tau', got {lines[0]!r}")
    n = len(header) - 2
    for j, name in enumerate(header[2:], start=1):
        if name != f"x{j}":
            raise ValueError(f"{path}: expected column 'x{j}', found {name!r}")
    linenos = _data_lines(lines, start=1)
    if not linenos:
        raise ValueError(f"{path}: no data rows")
    values = np.empty((len(linenos), n))
    labels, metas = [], []
    for r, lineno in enumerate(linenos):
        fields = lines[lineno - 1].split(",")
        if len(fields) != n + 2:
            raise ValueError(
                f"{path}:{lineno}: expected {n + 2} fields, found {len(fields)}"
            )
        try:
            label = int(fields[0])
            tau = None if fields[1] == "" else int(fields[1])
            values[r] = list(map(float, fields[2:]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
        labels.append(label)
        metas.append({"tau": tau, "label": label})
    return LabeledDataset(_check_finite(path, values, linenos), np.asarray(labels), metas)


def save_values(rows: np.ndarray, path) -> None:
    """Write plain series rows (no labels) as CSV, one series per line."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    lines = [",".join(map(repr, row)) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_values(path) -> np.ndarray:
    """Read plain series rows written by :func:`save_values`; non-finite values raise."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    linenos = _data_lines(lines, start=0)
    if not linenos:
        raise ValueError(f"{path}: empty values file")
    width = lines[linenos[0] - 1].count(",") + 1
    values = np.empty((len(linenos), width))
    for r, lineno in enumerate(linenos):
        try:
            row = list(map(float, lines[lineno - 1].split(",")))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, found {len(row)}")
        values[r] = row
    return _check_finite(path, values, linenos)


def _data_lines(lines: list, start: int) -> list:
    """1-based numbers of the non-blank lines after the first ``start`` lines."""
    return [k for k, line in enumerate(lines[start:], start=start + 1) if line.strip()]


def _check_finite(path, values: np.ndarray, linenos) -> np.ndarray:
    """Return ``values``, rejecting ``nan`` and ``inf`` with the first offending line."""
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"{path}:{linenos[r]}: non-finite value {float(values[r, c])!r}")
    return values


def jsonable(obj):
    """Recursively convert numpy scalars and arrays to plain Python values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_report(report: dict, path) -> None:
    """Write a JSON report with a schema version and deterministic bytes."""
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **jsonable(report)}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )


def read_report(path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    if payload.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported report schema version")
    return payload
