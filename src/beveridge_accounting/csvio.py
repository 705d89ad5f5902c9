"""CSV ingestion for monthly panels, and flat-file emission (CSV or JSON).

Schema: one row per month, a `date` column in YYYY-MM form, then named value
columns.  Missing cells are empty.  Rows must be contiguous ascending months;
every downstream module consumes the :class:`MonthlySeries` built here.

Both directions work a column at a time: ingest splits a plain file's cells
with one ``str.split``, checks every date with one list comparison and
parses every value cell with one ``map(float, ...)``.  Emission spells every
float column of a table in one :func:`floatrepr.float_reprs` call, byte for
byte ``float.__repr__`` with no Python string per cell, and turns any other
column into string tokens once.  Rows are then laid out a block at a time
as one byte matrix (separators and each column's cells side by side) and
written as its bytes less the padding.
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
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except IsADirectoryError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
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
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        lines = list(reader)
    except csv.Error as exc:  # a quoted field over the module's size limit, say
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
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
_BLOCK_BYTES = 1 << 20  # rows are assembled and written about this much at a time


def _csv_quote(text: str) -> str:
    if any(c in text for c in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _strings(column: Sequence, a: np.ndarray) -> list[str]:
    """The cells of a string column `a` made from `column`: the given strings
    where all of them are ``str``, since numpy drops trailing NULs."""
    if not isinstance(column, np.ndarray) and set(map(type, column)) == {str}:
        return list(column)
    return a.tolist()


def _csv_tokens(column: Sequence, a: np.ndarray) -> list[str]:
    """A non-float column's CSV cells: NaN (or None) empty."""
    kind = a.dtype.kind
    if kind in "iub":
        return list(map(str, a.tolist()))
    if kind == "U":
        cells = _strings(column, a)
        joined = "".join(cells)
        if any(c in joined for c in _CSV_SPECIAL):
            return list(map(_csv_quote, cells))
        return cells
    return ["" if x is None or x != x
            else _csv_quote(float.__repr__(x) if isinstance(x, float) else str(x))
            for x in a.tolist()]


def _json_tokens(column: Sequence, a: np.ndarray) -> list[str]:
    """A non-float column's JSON values, as `json.dumps` writes them: NaN (or
    None) null, infinities as ``Infinity`` and strings ASCII-escaped."""
    kind = a.dtype.kind
    if kind in "iu":
        return list(map(str, a.tolist()))
    if kind == "b":
        return ["true" if x else "false" for x in a.tolist()]
    if kind == "U":
        return list(map(json.encoder.encode_basestring_ascii, _strings(column, a)))
    return ["null" if x is None or x != x else json.dumps(x) for x in a.tolist()]


def _float_cells(values: np.ndarray, spelling: tuple[bytes, bytes, bytes]) -> np.ndarray:
    """The cells of float values: one row of bytes each, NUL where there is
    no byte, with nan, inf and -inf spelled as given."""
    # imported here, so importing the package (for --help, say) compiles
    # and runs none of the kernel
    from .floatrepr import float_reprs

    chars = float_reprs(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        spelled = np.zeros((3, chars.shape[1]), dtype=np.uint8)
        for row, text in zip(spelled, spelling):
            row[:len(text)] = list(text)
        v = values[bad]
        chars[bad] = spelled[np.where(np.isnan(v), 0, np.where(v > 0, 1, 2))]
    return chars


def _token_cells(tokens: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """The cells of string tokens: their UTF-8 bytes one row each, NUL
    padded, and which bytes are the token's (None: the nonzero ones)."""
    encoded = list(map(str.encode, tokens))
    chars = np.array(encoded, dtype=bytes)
    chars = chars.view(np.uint8).reshape(len(encoded), chars.dtype.itemsize)
    if "\0" not in "".join(tokens):
        return chars, None
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    return chars, np.arange(chars.shape[1]) < lengths[:, None]


def _column_cells(columns: dict[str, Sequence], n: int, json_format: bool) -> list:
    """Each column's cells for `_write_rows`; every float column goes
    through one `float_reprs` call, widened to float64."""
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    floats = [name for name, a in arrays.items() if a.dtype.kind == "f"]
    cells = {}
    if floats and n:
        if json_format:  # nan, inf and -inf as json.dumps spells them
            spelling = (b"null", b"Infinity", b"-Infinity")
        else:  # csv quotes a row that is one empty cell
            spelling = (b'""' if len(arrays) == 1 else b"", b"inf", b"-inf")
        chars = _float_cells(np.concatenate([arrays[name] for name in floats],
                                            dtype=np.float64), spelling)
        for j, name in enumerate(floats):
            column = chars[j * n:(j + 1) * n]
            # the byte slots no value of this column uses
            cells[name] = (column.take(np.flatnonzero(column.any(axis=0)), axis=1), None)
    for name, a in arrays.items():
        if name not in cells:
            tokens = (_json_tokens if json_format else _csv_tokens)(columns[name], a)
            if len(arrays) == 1 and not json_format:
                tokens = ['""' if t == "" else t for t in tokens]
            cells[name] = _token_cells(tokens)
    return [cells[name] for name in arrays]


def _write_rows(fh, n: int, slots: list, first: int | None = None) -> None:
    """Write `n` rows, each the concatenation of its slots: a string written
    on every row, or a column's (chars, mask) cells.  `first` replaces the
    first byte written.

    Each block of rows is laid out as one byte matrix, slot by slot, and
    written as its bytes that are not NUL padding, in order.
    """
    parts = [(np.frombuffer(s.encode(), dtype=np.uint8), None) if isinstance(s, str)
             else s for s in slots]
    edges = np.cumsum([0, *(chars.shape[-1] for chars, _ in parts)]).tolist()
    spans = list(zip(parts, edges, edges[1:]))
    step = max(1, _BLOCK_BYTES // max(edges[-1], 1))
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = np.empty((stop - start, edges[-1]), dtype=np.uint8)
        for (chars, _), a, b in spans:
            block[:, a:b] = chars if chars.ndim == 1 else chars[start:stop]
        keep = block != 0
        for (_, mask), a, b in spans:
            if mask is not None:
                keep[:, a:b] = mask[start:stop]
        if start == 0 and first is not None:
            block[0, 0] = first
        fh.write(block[keep])


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
    json_format = path.suffix == ".json"
    names = sorted(columns) if json_format else list(columns)
    cells = _column_cells({name: columns[name] for name in names}, n, json_format)
    with path.open("wb") as fh:
        if json_format and not n:
            fh.write(b"[]\n")
        elif json_format:
            keys = [json.encoder.encode_basestring_ascii(name) + ": " for name in names]
            # each record opens with ",": the first one's becomes the list's "["
            seps = [",\n  {\n    " + keys[0], *[",\n    " + key for key in keys[1:]]]
            _write_rows(fh, n, [*chain.from_iterable(zip(seps, cells)), "\n  }"],
                        first=ord("["))
            fh.write(b"\n]\n")
        else:
            head = [_csv_quote(str(name)) for name in names]
            if head == [""]:  # csv quotes a row that is one empty cell
                head = ['""']
            fh.write((",".join(head) + "\r\n").encode())
            seps = [","] * (len(cells) - 1) + ["\r\n"]
            _write_rows(fh, n, [*chain.from_iterable(zip(cells, seps))])
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
