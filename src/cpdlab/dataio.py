"""CSV dataset files and JSON reports.

Dataset CSV schema: header ``label,tau,x1,...,xn``; one example per
row, ``tau`` left empty for no-change rows.  Floats are written with
shortest round-trip decimals (at most 17 significant digits), so
``load_dataset(save_dataset(d))`` reproduces the array bit-exactly and
identical inputs produce byte-identical files.  All output uses '.' as
the decimal separator and newline-terminated rows regardless of locale.

The writers write one row at a time to the open file, and the loaders
stream the file: they bound the row count by counting newlines in
fixed-size chunks and preallocate the float64 array.  Each non-blank
line is read once; its label and ``tau`` are parsed with ``int`` and its
field count is checked as the file iterator yields it.  The numeric text
of consecutive rows is gathered into blocks of about ``_BLOCK``
characters, and numpy's C reader parses each block straight into its
rows.  ``float`` decides every block that reader refuses, so the
accepted input, the values and the messages are those of ``float``.
Beyond the array only one block is held, as text and as parsed floats.
A line ends at ``\\n``, ``\\r\\n`` or ``\\r``; the other characters that
``str.splitlines`` breaks at (``\\v``, ``\\f``, ``\\x1c`` to ``\\x1e``) do
not end a line.  A malformed row, a wrong field count or a non-finite
value is reported with its line number; the first error in the file
wins.

:func:`dumps` is the one JSON encoder of reports and network files:
sorted keys, a two-space indent and a final newline, so equal payloads
serialise to equal bytes.  Reports carry a ``schema_version`` field.
"""

from __future__ import annotations

import dataclasses
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
    "dumps",
    "write_report",
    "read_report",
]

REPORT_SCHEMA_VERSION = 1
# Characters per read when counting the lines of a CSV file.
_CHUNK = 1 << 16
# Characters of numeric text that one call of numpy's C reader parses.
_BLOCK = 1 << 18
# numpy strips these at a field's edge; ``float`` rejects them there.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


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
        if header[:2] != ["label", "tau"]:
            got = ",".join(header[:2])  # the fields checked; a data line can run to kilobytes
            raise ValueError(f"{path}: header must start with 'label,tau', got {got!r}")
        if len(header) < 3:
            raise ValueError(f"{path}: header has no value columns after 'label,tau'")
        n = len(header) - 2
        for j, name in enumerate(header[2:], start=1):
            if name != f"x{j}":
                raise ValueError(f"{path}: expected column 'x{j}', found {name!r}")
        rows = _Rows(path, bound - 1, n)
        labels, metas = [], []
        for lineno, line in _data_lines(fh, start=1):
            if line.count(",") != n + 1:
                rows.flush()
                raise ValueError(
                    f"{path}:{lineno}: expected {n + 2} fields, found {line.count(',') + 1}"
                )
            label_text, tau_text, numbers = line.split(",", 2)
            try:
                label = int(label_text)
                tau = None if tau_text == "" else int(tau_text)
            except ValueError as exc:
                rows.flush()
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            rows.add(lineno, numbers)
            labels.append(label)
            metas.append({"tau": tau, "label": label})
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return LabeledDataset(rows.filled(), np.asarray(labels), metas)


def save_values(rows: np.ndarray, path) -> None:
    """Write plain series rows (no labels) as CSV, one series per line."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    with open(path, "w", encoding="ascii") as fh:
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def load_values(path) -> np.ndarray:
    """Read plain series rows written by :func:`save_values`; non-finite values raise."""
    rows = None
    with open(path, encoding="ascii") as fh:
        bound = _line_bound(fh)
        for lineno, line in _data_lines(fh, start=0):
            width = line.count(",") + 1
            if rows is None:  # the first row sets the width
                rows = _Rows(path, bound, width)
            elif width != rows.values.shape[1]:
                rows.flush()
                _floats(path, lineno, line)  # a malformed field outranks the count
                raise ValueError(
                    f"{path}:{lineno}: expected {rows.values.shape[1]} fields, found {width}")
            rows.add(lineno, line)
    if rows is None:
        raise ValueError(f"{path}: empty values file")
    return rows.filled()


class _Rows:
    """A preallocated float64 array, filled from its rows' numeric text a block at a time.

    ``add`` queues a row; once the queued text reaches ``_BLOCK``
    characters the block is parsed.  A loader calls ``flush`` before it
    raises a later row's error, so that the first error in the file wins.
    """

    def __init__(self, path, bound: int, n: int):
        self.path = path
        self.values = np.empty((bound, n))
        self.linenos = np.empty(bound, dtype=np.int64)
        self.count = 0
        self._texts: list[str] = []
        self._chars = 0

    def add(self, lineno: int, text: str) -> None:
        self.linenos[self.count] = lineno
        self.count += 1
        self._texts.append(text)
        self._chars += len(text)
        if self._chars >= _BLOCK:
            self.flush()

    def flush(self) -> None:
        """Parse the queued rows, raising the first malformed row's error."""
        texts, start = self._texts, self.count - len(self._texts)
        self._texts, self._chars = [], 0
        if not texts:
            return
        rows = self.values[start:self.count]
        if not _parse_block(texts, rows):
            for r, text in enumerate(texts):
                rows[r] = _floats(self.path, self.linenos[start + r], text)

    def filled(self) -> np.ndarray:
        """The rows added, once parsed and checked finite."""
        self.flush()
        return _check_finite(self.path, self.values[:self.count], self.linenos)


def _parse_block(texts: list[str], rows: np.ndarray) -> bool:
    """Parse ``texts`` into ``rows`` with numpy's C reader, or return False.

    It returns False, leaving ``float`` to decide, when numpy refuses a
    field (``float`` takes ``1_0``), when a text is empty (numpy skips
    empty lines) or when a field holds a character numpy strips at its
    edge and ``float`` rejects.  On any other field the two agree bit for
    bit.
    """
    if "" in texts or any(c in text for text in texts for c in _NUMPY_ONLY_SPACE):
        return False
    try:
        parsed = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return False
    if parsed.shape != rows.shape:
        return False
    rows[...] = parsed
    return True


def _floats(path, lineno: int, text: str) -> list[float]:
    """The comma-separated fields of ``text`` parsed by ``float``, or a malformed-row error."""
    try:
        return list(map(float, text.split(",")))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None


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
    """Recursively convert dataclass instances, tuples and numpy values to plain Python values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def dumps(payload) -> str:
    """The JSON text of ``payload`` as every artifact is written: sorted keys, indent 2, newline."""
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    """Write a JSON report with a schema version and deterministic bytes."""
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **report}
    Path(path).write_text(dumps(payload), encoding="ascii")


def read_report(path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a report must hold a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != REPORT_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported report schema version {version!r}")
    return payload
