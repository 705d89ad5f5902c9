"""CSV ingestion for monthly panels, and flat-file emission (CSV or JSON).

Schema: one row per month, a `date` column in YYYY-MM form, then named value
columns.  Missing cells are empty.  Rows must be contiguous ascending months;
every downstream module consumes the :class:`MonthlySeries` built here.

Both directions work a column at a time: ingest splits a plain file's cells
with one ``str.split``, checks every date with one list comparison and
parses every value cell with one ``map(float, ...)``; emission turns each
column into string tokens once and joins them into rows (JSON records from
one flat list of keys and tokens).
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

import numpy as np

from .series import MonthDate, MonthlySeries, require_aligned


class SchemaError(ValueError):
    """Input file violates the panel CSV schema."""


def read_panel(path: str | Path) -> dict[str, MonthlySeries]:
    """Read a panel CSV into one MonthlySeries per value column.

    A leading UTF-8 byte-order mark is skipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    panel = _read_plain(path, text)
    return _read_rows(path, text) if panel is None else panel


def _read_plain(path: Path, text: str) -> dict[str, MonthlySeries] | None:
    """The panel of a CSV text that needs no CSV parsing, or None.

    Text with no quote or NUL, whose lines all end in LF or all in CRLF, is
    one cell list per line split on commas, which is what `csv.reader`
    returns for it.  When every data line has the header's number of
    cells, all cells come from one split of the joined body.  Anything else
    (quoting, a lone CR, blank or ragged lines, a failing check) returns
    None for the `csv.reader` path.
    """
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\r\n" if "\r" in text else "\n")
    if lines[-1] == "":  # the last line's end
        lines.pop()
    if not lines or not lines[0]:
        return None
    header, rows = lines[0], lines[1:]
    body = ",".join(rows)
    if any("\r" in part or "\n" in part for part in (header, body)):
        return None  # mixed line ends or a lone CR
    names = _column_names(path, header.split(","))
    if not rows or set(map(str.count, rows, repeat(","))) != {len(names)}:
        return None
    try:
        # float ignores the padding str.strip removes, and rejects a
        # whitespace-only cell, which the csv.reader path reads as missing
        return _columns(names, body.split(","), len(rows))
    except ValueError:
        return None


def _read_rows(path: Path, text: str) -> dict[str, MonthlySeries]:
    """The panel of any CSV text, parsed by `csv.reader`, or the
    SchemaError of its first fault."""
    lines = list(csv.reader(io.StringIO(text, newline="")))
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header, body = lines[0], lines[1:]
    names = _column_names(path, header)

    # rows whose cells are all blank are skipped
    rows = list(compress(body, map(str.strip, map("".join, body))))
    try:
        if set(map(len, rows)) != {len(names) + 1}:
            raise ValueError("bad width")
        return _columns(names, list(map(str.strip, chain.from_iterable(rows))),
                        len(rows))
    except ValueError:
        _raise_first_fault(path, names, body)


def _column_names(path: Path, header: list[str]) -> list[str]:
    """The value-column names of a header row, or its SchemaError."""
    if not header or header[0].strip() != "date":
        raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
    names = [h.strip() for h in header[1:]]
    if len(names) == 0:
        raise SchemaError(f"{path}: no value columns")
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}: duplicate column names")
    return names


def _columns(names: list[str], cells: list[str], n: int) -> dict[str, MonthlySeries]:
    """One series per name from the `n` rows of `cells`, flat in row order;
    ValueError unless every date and value cell is valid."""
    width = len(names) + 1
    dates = list(map(str.strip, cells[::width]))
    del cells[::width]
    start = MonthDate.parse(dates[0])
    # a valid date cell is exactly its month's YYYY-MM, so one comparison
    # checks the format and contiguity of every row
    if dates != _dates(start, n):
        raise ValueError("bad date")
    # float keeps the number grammar; a blank cell is missing
    values = np.fromiter(map(float, map({"": "nan"}.get, cells, cells)),
                         dtype=float, count=len(cells))
    if np.isinf(values).any():
        raise ValueError("infinite cell")
    values = values.reshape(n, len(names))
    return {name: MonthlySeries(start, values[:, j]) for j, name in enumerate(names)}


def _raise_first_fault(path: Path, names: list[str], body: list[list[str]]) -> NoReturn:
    """Raise the SchemaError for the first faulty data row of a panel that
    failed the columnar checks in `read_panel`."""
    previous: MonthDate | None = None
    for lineno, row in enumerate(body, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(names) + 1:
            raise SchemaError(f"{path}:{lineno}: expected {len(names) + 1} cells, "
                              f"got {len(row)}")
        try:
            month = MonthDate.parse(row[0])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        if previous is not None and previous.shift(1) != month:
            raise SchemaError(f"{path}:{lineno}: non-contiguous month {month} "
                              f"after {previous}")
        previous = month
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            try:
                value = float(cell or "nan")
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: non-numeric cell {cell!r} "
                                  f"in column {name!r}") from None
            if math.isinf(value):
                raise SchemaError(f"{path}:{lineno}: non-finite cell {cell!r} "
                                  f"in column {name!r}")
    if previous is None:
        raise SchemaError(f"{path}: no data rows")
    raise RuntimeError(f"{path}: columnar parse failed but no row is faulty")


def require_columns(panel: Mapping[str, MonthlySeries], *names: str) -> None:
    """Raise SchemaError naming every requested column that is absent."""
    missing = [n for n in names if n not in panel]
    if missing:
        raise SchemaError(f"missing required columns: {', '.join(missing)}")


def _json_safe(x):
    """A JSON-ready scalar: NaN becomes null, numpy scalars Python ones."""
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, (np.floating, np.integer)):
        return _json_safe(x.item())
    return x


_MONTH_SUFFIXES = [f"-{m:02d}" for m in range(1, 13)]


def _dates(start: MonthDate, n: int) -> list[str]:
    """The `n` months from `start` as YYYY-MM strings: each year's prefix is
    formatted once and joined with the twelve month suffixes."""
    first = 12 * start.year + start.month - 1
    years = range(first // 12, (first + n - 1) // 12 + 1)
    months = [y + m for y in map("{:04d}".format, years) for m in _MONTH_SUFFIXES]
    return months[first % 12:first % 12 + n]


# CSV (excel dialect, minimal quoting) quotes a cell holding any of these
_CSV_SPECIAL = (",", '"', "\r", "\n")
_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _csv_quote(text: str) -> str:
    if any(c in text for c in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_tokens(a: np.ndarray) -> list[str]:
    """A column's CSV cells: floats as their repr, NaN (or None) empty."""
    kind = a.dtype.kind
    if kind == "f":
        tokens = list(map(float.__repr__, a.tolist()))
        for i in np.flatnonzero(np.isnan(a)).tolist():
            tokens[i] = ""
        return tokens
    if kind in "iub":
        return list(map(str, a.tolist()))
    if kind == "U":
        cells = a.tolist()
        joined = "".join(cells)
        if any(c in joined for c in _CSV_SPECIAL):
            return list(map(_csv_quote, cells))
        return cells
    return ["" if x is None or x != x
            else _csv_quote(float.__repr__(x) if isinstance(x, float) else str(x))
            for x in a.tolist()]


def _json_tokens(a: np.ndarray) -> list[str]:
    """A column's JSON values, as `json.dumps` writes them: NaN (or None)
    null, infinities as ``Infinity`` and strings ASCII-escaped."""
    kind = a.dtype.kind
    if kind == "f":
        tokens = list(map(float.__repr__, a.tolist()))
        for i in np.flatnonzero(~np.isfinite(a)).tolist():
            tokens[i] = _JSON_NONFINITE[tokens[i]]
        return tokens
    if kind in "iu":
        return list(map(str, a.tolist()))
    if kind == "b":
        return ["true" if x else "false" for x in a.tolist()]
    if kind == "U":
        return list(map(json.encoder.encode_basestring_ascii, a.tolist()))
    return ["null" if x is None or x != x else json.dumps(x) for x in a.tolist()]


def _json_records(columns: Mapping[str, Sequence], n: int) -> str:
    """The `n` (at least one) records of `write_table` as JSON text.

    Record i's pieces are each key's separator followed by its value; one
    flat list holds them all, each column's separators and tokens filled in
    by one slice assignment, and is joined once.
    """
    names = sorted(columns)
    keys = [json.encoder.encode_basestring_ascii(name) + ": " for name in names]
    # the first record opens the list instead of closing the one before it
    seps = ["\n  },\n  {\n    " + keys[0], *[",\n    " + key for key in keys[1:]]]
    step = 2 * len(names)
    parts = [""] * (step * n)
    for j, (sep, name) in enumerate(zip(seps, names)):
        parts[2 * j::step] = [sep] * n
        parts[2 * j + 1::step] = _json_tokens(np.asarray(columns[name]))
    parts[0] = "[\n  {\n    " + keys[0]
    return "".join(parts) + "\n  }\n]\n"


def write_table(path: str | Path, columns: Mapping[str, Sequence]) -> int:
    """Write equal-length named columns as a table; returns the number of rows.

    A column holds strings, written as given, or numbers: floats as their
    shortest round-trip ``repr``, NaN as a missing value.  A path ending in
    ``.json`` gets a sorted-key list of records (missing values as null),
    laid out as ``json.dumps(records, indent=2, sort_keys=True)``; any other
    path CSV with the columns in order (missing values empty).
    """
    path = Path(path)
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    n = next(iter(lengths.values()), 0)
    if path.suffix == ".json":
        text = _json_records(columns, n) if n else "[]\n"
    else:
        tokens = [_csv_tokens(np.asarray(column)) for column in columns.values()]
        head = [_csv_quote(str(name)) for name in columns]
        if len(tokens) == 1:  # csv quotes a row that is one empty cell
            tokens = [['""' if t == "" else t for t in tokens[0]]]
            head = ['""' if t == "" else t for t in head]
        text = "\r\n".join([",".join(head), *map(",".join, zip(*tokens))]) + "\r\n"
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return n


def write_panel(path: str | Path, columns: Mapping[str, MonthlySeries]) -> int:
    """Write aligned series as a panel in the schema above (JSON for a
    ``.json`` path); returns the number of data rows."""
    series = list(columns.values())
    if not series:
        raise ValueError("nothing to write")
    require_aligned(*series)
    return write_table(path, {"date": _dates(series[0].start, len(series[0])),
                              **{name: s.values for name, s in columns.items()}})
