"""CSV ingestion for monthly panels, and flat-file emission (CSV or JSON).

Schema: one row per month, a `date` column in YYYY-MM form (years 0000 to
9999), then named value columns.  Missing cells are empty.  Rows must be
contiguous ascending months; every downstream module consumes the
:class:`MonthlySeries` built here.

Ingest reads a plain file's bytes once, a column at a time: one array scan
finds every comma and line end, one comparison of 8-byte words checks every
date, and :func:`floatrepr.parse_floats` parses the value cells with no
Python object per cell, leaving ``float`` only the cells outside its
grammar.  Any other file (quoting, blank or ragged lines, a failed check)
is read by `csv.reader` one row at a time, each row checked as it is read,
so the first fault in the file is the one reported.  Emission works a
column at a time too: it spells every float column of a table in one
:func:`floatrepr.float_reprs` call, byte for byte ``float.__repr__`` with
no Python string per cell, its rows packed and each column cut to its own
longest text.  A numpy string column of ASCII text that needs no quoting or
escaping (such as the dates, built as words by the same arithmetic that
checks them on ingest) becomes cells by one cast of its code points to
bytes; any other column is turned into string tokens once.  Rows are then
laid out a block at a time as one byte matrix (separators and each
column's cells side by side) and written as its bytes less the padding.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .series import MonthDate, MonthlySeries, require_aligned


_LF, _CR, _COMMA, _ZERO = b"\n\r,0"


class SchemaError(ValueError):
    """Input file violates the panel CSV schema."""


def read_panel(path: str | Path) -> dict[str, MonthlySeries]:
    """Read a panel CSV into one MonthlySeries per value column.

    A leading UTF-8 byte-order mark is skipped.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except IsADirectoryError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
    data = data.removeprefix(codecs.BOM_UTF8)
    if not data.isascii():
        data.decode()  # a file that is not UTF-8 fails here, as a text read does
    panel = _read_plain(path, data)
    return _read_rows(path, data.decode()) if panel is None else panel


def _read_plain(path: Path, data: bytes) -> dict[str, MonthlySeries] | None:
    """The panel of a CSV file's bytes that need no CSV parsing, or None.

    Bytes with no quote or NUL, whose lines all end in LF or all in CRLF,
    are one cell list per line split on commas, which is what `csv.reader`
    returns for them.  Line ends and commas are found by array scans, and
    when every data line has the header's number of cells, the cells are
    read a column at a time (`_month_start`, `_values`).  Anything else
    (quoting, a lone CR, blank or ragged lines, a failing check) returns
    None for the `csv.reader` path.
    """
    if b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((buf == _COMMA) | (buf == _LF))
    kinds = buf[seps]
    unended = not data.endswith(b"\n")
    if unended:  # the last line ends with the data
        seps, kinds = np.append(seps, len(data)), np.append(kinds, _LF)
    crlf = b"\r" in data
    if crlf:  # then every line end is CRLF, and there is no other CR
        breaks = seps[kinds == _LF]
        if unended:
            breaks = breaks[:-1]
        if (np.count_nonzero(buf == _CR) != breaks.size
                or (buf[breaks - 1] != _CR).any()):
            return None
    head = int(np.argmax(kinds == _LF))
    if seps[head] - crlf <= 0:  # a blank header
        return None
    names = _column_names(path, data[:seps[head] - crlf].decode().split(","))
    # each data line: a comma after each of its cells but the last, then its end
    lines, kinds = seps[head + 1:], kinds[head + 1:]
    n = lines.size // (len(names) + 1)
    if n == 0 or lines.size != n * (len(names) + 1):
        return None
    lines = lines.reshape(n, len(names) + 1)
    if (kinds.reshape(lines.shape) != np.array([*[_COMMA] * len(names), _LF])).any():
        return None
    starts = np.append(seps[head], lines[:-1, -1]) + 1
    ends = lines[:, -1] - crlf
    if unended:  # no CR before the end of data
        ends[-1] = len(data)
    try:
        start = _month_start(data, starts, lines[:, 0])
        values = _values(data, (lines[:, :-1] + 1).ravel(),
                         np.column_stack([lines[:, 1:-1], ends]).ravel())
        return _series(names, start, values)
    except ValueError:
        return None


# each month's "-MM" and a NUL, as the high half of the little-endian word
# of its YYYY-MM text
_MONTH_TAILS = np.frombuffer(b"".join(b"-%02d\0" % m for m in range(1, 13)),
                             dtype="<u4").astype(np.uint64) << np.uint64(32)
_COMMA_BYTE = np.uint64(_COMMA) << np.uint64(56)  # the top byte of a word


def _month_words(first: int, n: int) -> np.ndarray:
    """The `n` months from month number `first` (12 * year + month - 1) to
    9999-12 at most, as little-endian words of their YYYY-MM text and a
    NUL: each year's digits are spelled once, beside the twelve months."""
    years = np.arange(first // 12, (first + n - 1) // 12 + 1)
    digits = (years[:, None] // [1000, 100, 10, 1] % 10 + _ZERO).astype(np.uint8)
    words = (digits.view("<u4").astype(np.uint64) | _MONTH_TAILS).ravel()
    return words[first % 12:][:n]


def _month_start(data: bytes, starts: np.ndarray, ends: np.ndarray) -> MonthDate:
    """The month of the first date cell ``data[starts[i]:ends[i]]``;
    ValueError unless each cell is its month's YYYY-MM, padding aside.

    A valid cell is exactly that text, so one comparison checks the format
    and contiguity of every row: of 8-byte words (the cell and the comma
    after it) when no cell is padded.
    """
    start = MonthDate.parse(data[starts[0]:ends[0]].decode())
    first, n = 12 * start.year + start.month - 1, starts.size
    if first + n > 12 * 10000:  # past 9999-12, which YYYY-MM cannot spell
        raise ValueError("bad date")
    if (ends - starts == 7).all():
        words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
        if not np.array_equal(words[starts], _month_words(first, n) | _COMMA_BYTE):
            raise ValueError("bad date")
    elif [data[a:b].decode().strip() for a, b in zip(starts.tolist(), ends.tolist())] \
            != _dates(start, n).tolist():
        raise ValueError("bad date")
    return start


def _values(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The values of the cells ``data[starts[i]:ends[i]]``, a blank one
    missing; ValueError unless every other cell is a number to ``float``."""
    # imported here, so importing the package (for --help, say) compiles
    # and runs none of the kernel
    from .floatrepr import parse_floats

    values, undecided = parse_floats(data, starts, ends)
    for i in np.flatnonzero(undecided & (starts != ends)).tolist():
        # float keeps the number grammar beyond the kernel's (padding, nan,
        # underscores, non-ASCII digits); it rejects a whitespace-only
        # cell, which the csv.reader path reads as missing
        values[i] = float(data[starts[i]:ends[i]].decode())
    return values


def _read_rows(path: Path, text: str) -> dict[str, MonthlySeries]:
    """The panel of any CSV text, its rows read by `csv.reader` and checked
    one at a time in file order, or the SchemaError of its first fault."""
    rows = _rows(path, text)
    header = next(rows, None)
    if header is None:
        raise SchemaError(f"{path}: empty file")
    names = _column_names(path, header)
    start = previous = None
    values: list[float] = []
    for lineno, row in enumerate(rows, start=2):
        if not "".join(row).strip():  # a row whose cells are all blank is skipped
            continue
        if len(row) != len(names) + 1:
            raise SchemaError(f"{path}:{lineno}: expected {len(names) + 1} cells, "
                              f"got {len(row)}")
        try:
            month = MonthDate.parse(row[0])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        if previous is None:
            start = month
        elif previous.months_until(month) != 1:
            raise SchemaError(f"{path}:{lineno}: non-contiguous month {month} "
                              f"after {previous}")
        previous = month
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            try:
                value = float(cell or "nan")  # a blank cell is missing
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: non-numeric cell {cell!r} "
                                  f"in column {name!r}") from None
            if math.isinf(value):
                raise SchemaError(f"{path}:{lineno}: non-finite cell {cell!r} "
                                  f"in column {name!r}")
            values.append(value)
    if start is None:
        raise SchemaError(f"{path}: no data rows")
    return _series(names, start, np.array(values))


def _rows(path: Path, text: str) -> Iterator[list[str]]:
    """The rows `csv.reader` reads from `text`, as it reads them; its error
    is the SchemaError of the line where it happens."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:  # a quoted field over the module's size limit, say
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


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


def _series(names: list[str], start: MonthDate, values: np.ndarray
            ) -> dict[str, MonthlySeries]:
    """One series per name from `values`, flat in row order; ValueError if
    any value is infinite."""
    if np.isinf(values).any():
        raise ValueError("infinite cell")
    values = values.reshape(-1, len(names))
    return {name: MonthlySeries(start, values[:, j]) for j, name in enumerate(names)}


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


def _dates(start: MonthDate, n: int) -> np.ndarray:
    """The `n` months from `start` as an array of YYYY-MM strings."""
    text = _month_words(12 * start.year + start.month - 1, n).astype("<u8")
    return text.view(np.uint8).reshape(n, 8)[:, :7].astype(np.uint32).view("U7").ravel()


# CSV (excel dialect, minimal quoting) quotes a cell holding any of these
_CSV_SPECIAL = (",", '"', "\r", "\n")
# the ASCII bytes a CSV cell (row 0) or a JSON string (row 1) cannot hold as
# they are: CSV quotes the ones above, and JSON escapes '"', "\\" and every
# control character; NUL is numpy's padding after a string's text
_SPECIAL_BYTES = np.zeros((2, 128), dtype=bool)
_SPECIAL_BYTES[0, list(b',"\r\n')] = True
_SPECIAL_BYTES[1, [*range(1, 0x20), 0x7F, *b'"\\']] = True
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


def _float_cells(values: np.ndarray, spelling: tuple[bytes, bytes, bytes]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The cells of float values: one row of bytes each, the text from its
    first byte and NUL padding after it, with nan, inf and -inf spelled as
    given; and each text's length."""
    # imported here, so importing the package (for --help, say) compiles
    # and runs none of the kernel
    from .floatrepr import float_reprs

    chars, lengths = float_reprs(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        width = max(chars.shape[1], *map(len, spelling))
        if width > chars.shape[1]:  # JSON's -Infinity beside short reprs
            chars = np.pad(chars, ((0, 0), (0, width - chars.shape[1])))
        spelled = np.zeros((3, width), dtype=np.uint8)
        for row, text in zip(spelled, spelling):
            row[:len(text)] = list(text)
        v = values[bad]
        kind = np.where(np.isnan(v), 0, np.where(v > 0, 1, 2))
        chars[bad] = spelled[kind]
        lengths[bad] = np.array(list(map(len, spelling)))[kind]
    return chars, lengths


def _string_cells(column: Sequence, a: np.ndarray, json_format: bool,
                  lone: bool) -> np.ndarray | None:
    """The cells of a numpy string column by one cast of its code points to
    bytes, where every string is ASCII text written as it is (JSON's within
    quotes); None for any other column."""
    if not isinstance(column, np.ndarray) or a.dtype.kind != "U" or not a.itemsize:
        return None
    codes = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("=")).view(np.uint32)
    if codes.size and codes.max() >= 128:
        return None
    chars = codes.astype(np.uint8).reshape(a.size, a.itemsize // 4)
    if (_SPECIAL_BYTES[int(json_format)].take(chars).any()
            or ((chars[:, :-1] == 0) & (chars[:, 1:] != 0)).any()  # a NUL in the text
            or lone and not json_format and (chars[:, 0] == 0).any()):  # quoted ""
        return None
    if not json_format:
        return chars
    quoted = np.empty((a.size, chars.shape[1] + 2), dtype=np.uint8)
    quoted[:, [0, -1]] = ord('"')  # the NULs between text and quote are dropped
    quoted[:, 1:-1] = chars
    return quoted


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
    through one `float_reprs` call, widened to float64, and is cut to its
    own longest text."""
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    floats = [name for name, a in arrays.items() if a.dtype.kind == "f"]
    cells = {}
    if floats and n:
        if json_format:  # nan, inf and -inf as json.dumps spells them
            spelling = (b"null", b"Infinity", b"-Infinity")
        else:  # csv quotes a row that is one empty cell
            spelling = (b'""' if len(arrays) == 1 else b"", b"inf", b"-inf")
        chars, lengths = _float_cells(np.concatenate([arrays[name] for name in floats],
                                                     dtype=np.float64), spelling)
        for j, name in enumerate(floats):
            rows = slice(j * n, (j + 1) * n)
            cells[name] = (chars[rows, :lengths[rows].max()], None)
    lone = len(arrays) == 1
    for name, a in arrays.items():
        if name in cells:
            continue
        chars = _string_cells(columns[name], a, json_format, lone)
        if chars is not None:
            cells[name] = (chars, None)
        else:
            tokens = (_json_tokens if json_format else _csv_tokens)(columns[name], a)
            if lone and not json_format:
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
