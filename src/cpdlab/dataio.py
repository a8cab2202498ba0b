"""CSV dataset files and JSON reports.

Dataset CSV schema: header ``label,tau,x1,...,xn``; one example per
row, ``tau`` left empty for no-change rows.  Floats are written with
shortest round-trip decimals (at most 17 significant digits), so
``load_dataset(save_dataset(d))`` reproduces the array bit-exactly and
identical inputs produce byte-identical files.  All output uses '.' as
the decimal separator and newline-terminated rows regardless of locale.

The writers write one row at a time to the open file, and the loaders
stream the file: they bound the row count by counting newlines in fixed-size
chunks, preallocate the float64 array, parse each non-blank line once
with ``float`` as the file iterator yields it, and return the filled
rows.  So beyond the array itself only one row at a time is held, as
text and as Python floats.  A line ends at ``\\n``, ``\\r\\n`` or ``\\r``;
the other characters that ``str.splitlines`` breaks at (``\\v``, ``\\f``,
``\\x1c`` to ``\\x1e``) do not end a line.  A malformed row, a wrong
field count or a non-finite value is reported with its line number.

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
# Characters per read when counting the lines of a CSV file.
_CHUNK = 1 << 16


def save_dataset(dataset: LabeledDataset, path) -> None:
    """Write a labelled dataset as ``label,tau,x1..xn`` CSV, one row at a time."""
    n = dataset.n
    with open(path, "w", encoding="ascii") as fh:
        fh.write("label,tau," + ",".join(f"x{j}" for j in range(1, n + 1)) + "\n")
        for row, label, meta in zip(dataset.values, dataset.labels, dataset.metadata):
            tau = meta.get("tau")
            tau_text = "" if tau is None else str(int(tau))
            fh.write(f"{int(label)},{tau_text}," + ",".join(map(repr, row.tolist())) + "\n")


def load_dataset(path) -> LabeledDataset:
    """Read a dataset written by :func:`save_dataset`.

    Raises ``ValueError`` naming the offending column or line on any
    schema mismatch or non-finite value.
    """
    with open(path, encoding="ascii") as fh:
        bound = _line_bound(fh)
        first = next(fh, "").rstrip("\n")
        if not first.strip():
            raise ValueError(f"{path}: empty dataset file")
        header = first.split(",")
        if len(header) < 3 or header[0] != "label" or header[1] != "tau":
            raise ValueError(f"{path}: header must start with 'label,tau', got {first!r}")
        n = len(header) - 2
        for j, name in enumerate(header[2:], start=1):
            if name != f"x{j}":
                raise ValueError(f"{path}: expected column 'x{j}', found {name!r}")
        values = np.empty((bound - 1, n))
        linenos = np.empty(bound - 1, dtype=np.int64)
        labels, metas = [], []
        for r, (lineno, line) in enumerate(_data_lines(fh, start=1)):
            fields = line.split(",")
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
            linenos[r] = lineno
            labels.append(label)
            metas.append({"tau": tau, "label": label})
    if not labels:
        raise ValueError(f"{path}: no data rows")
    values = _check_finite(path, values[:len(labels)], linenos)
    return LabeledDataset(values, np.asarray(labels), metas)


def save_values(rows: np.ndarray, path) -> None:
    """Write plain series rows (no labels) as CSV, one series per line."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def load_values(path) -> np.ndarray:
    """Read plain series rows written by :func:`save_values`; non-finite values raise."""
    values = linenos = None
    count = 0
    with open(path, encoding="ascii") as fh:
        bound = _line_bound(fh)
        for count, (lineno, line) in enumerate(_data_lines(fh, start=0), start=1):
            try:
                row = list(map(float, line.split(",")))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            if values is None:  # the first row sets the width
                values = np.empty((bound, len(row)))
                linenos = np.empty(bound, dtype=np.int64)
            if len(row) != values.shape[1]:
                raise ValueError(
                    f"{path}:{lineno}: expected {values.shape[1]} fields, found {len(row)}")
            values[count - 1] = row
            linenos[count - 1] = lineno
    if values is None:
        raise ValueError(f"{path}: empty values file")
    return _check_finite(path, values[:count], linenos)


def _line_bound(fh) -> int:
    """An upper bound on the lines of the text file ``fh``, which is left at its start.

    The count reads the file in chunks through the same newline
    translation as the line iterator, so a lone carriage return counts too.
    """
    bound = 1 + sum(chunk.count("\n") for chunk in iter(lambda: fh.read(_CHUNK), ""))
    fh.seek(0)
    return bound


def _data_lines(lines, start: int):
    """``(line number, text)`` of the non-blank lines, numbered from ``start + 1``.

    ``text`` is the line without its newline, so that an error message
    quotes a field as it stands in the file.
    """
    for lineno, line in enumerate(lines, start=start + 1):
        if line.strip():
            yield lineno, line.rstrip("\n")


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
