"""CSV ingestion for monthly panels, and flat-file emission (CSV or JSON).

Schema: one row per month, a `date` column in YYYY-MM form (years 0000 to
9999), then named value columns.  Missing cells are empty.  Rows must be
contiguous ascending months; every downstream module consumes the
:class:`MonthlySeries` built here.

Ingest reads a plain file's bytes once, a column at a time: one array scan
finds every comma and line end, one comparison of 8-byte words checks every
date, and :func:`floatrepr.parse_floats` parses the value cells with no
Python object per cell, leaving ``float`` only the cells outside its
grammar (an exponent, padding, ``nan``).  Any other file (quoting, no final
line end, padded dates, blank or ragged lines, a failed check) is read by
`csv.reader` one row at a time, each row checked as it is read, so the
first fault in the file is the one reported.  Emission works a column at a
time too: it spells every float column of a table in one
:func:`floatrepr.float_reprs` call, byte for byte ``float.__repr__`` with
no Python string per cell in fixed notation, its rows packed and each
column cut to its own longest text.  Every other column (integers, booleans
or strings, such as the dates and the months a decomposition keeps, built as
words by the same arithmetic that checks dates on ingest, see `_dates`) is
one string array that becomes cells by one cast of its code points to bytes.
The writer takes only tables whose bytes need no quoting or escaping: two or
more columns, and text of printable ASCII with no ``,`` ``"`` or ``\\``;
anything else (an object column, say) is a ValueError naming the column.
Rows are then laid out a block at a time as one byte matrix (separators and
each column's cells side by side) and written as its bytes less the padding.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from itertools import chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .series import DataError, MonthDate, MonthlySeries, require_aligned


_LF, _CR, _COMMA, _ZERO = b"\n\r,0"


class SchemaError(DataError):
    """Input file violates the panel CSV schema, or cannot be read as text."""


def read_panel(path: str | Path) -> dict[str, MonthlySeries]:
    """Read a panel CSV into one MonthlySeries per value column.

    A leading UTF-8 byte-order mark is skipped.  A missing file, a
    directory and bytes that are not UTF-8 are each a SchemaError.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise SchemaError(str(exc)) from None
    except IsADirectoryError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from None
    data = data.removeprefix(codecs.BOM_UTF8)
    if not data.isascii():
        try:
            data.decode()  # a file that is not UTF-8 fails here, as a text read does
        except UnicodeDecodeError as exc:
            raise SchemaError(str(exc)) from None
    panel = _read_plain(path, data)
    return _read_rows(path, data.decode()) if panel is None else panel


def _read_plain(path: Path, data: bytes) -> dict[str, MonthlySeries] | None:
    """The panel of a CSV file's bytes that need no CSV parsing, or None.

    Bytes with no quote or NUL, whose lines all end in LF or all in CRLF
    (the last included), are one cell list per line split on commas, which
    is what `csv.reader` returns for them.  Line ends and commas are found
    by array scans, and when every data line has the header's number of
    cells, the cells are read a column at a time (`_month_start`,
    `_values`).  Anything else (quoting, a lone CR, no final line end, blank
    or ragged lines, a failing check) returns None for the `csv.reader` path.
    """
    if b'"' in data or b"\0" in data or not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((buf == _COMMA) | (buf == _LF))
    kinds = buf[seps]
    crlf = b"\r" in data
    if crlf:  # then every line end is CRLF, and there is no other CR
        breaks = seps[kinds == _LF]
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
    ValueError unless each cell is exactly its month's YYYY-MM, which one
    comparison of 8-byte words (each cell and the comma after it) checks."""
    if (ends - starts != 7).any():
        raise ValueError("bad date")
    start = MonthDate.parse(data[starts[0]:ends[0]].decode())
    first, n = 12 * start.year + start.month - 1, starts.size
    if first + n > 12 * 10000:  # past 9999-12, which YYYY-MM cannot spell
        raise ValueError("bad date")
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    if not np.array_equal(words[starts], _month_words(first, n) | _COMMA_BYTE):
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
        # float keeps the number grammar beyond the kernel's (an exponent,
        # padding, nan, underscores, non-ASCII digits); it rejects a
        # whitespace-only cell, which the csv.reader path reads as missing
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
    """The `n` months from `start` as an array of YYYY-MM strings, which a
    grid index array picks months from (`decompose`'s, say)."""
    text = _month_words(12 * start.year + start.month - 1, n).astype("<u8")
    return text.view(np.uint8).reshape(n, 8)[:, :7].astype(np.uint32).view("U7").ravel()


# the bytes a cell's row may hold: printable ASCII but the ones CSV quotes
# (',' and '"') or JSON escapes ('"' and '\\'), and NUL, numpy's padding
# after a string's text
_CELL_BYTES = np.zeros(128, dtype=bool)
_CELL_BYTES[[0, *range(0x20, 0x7F)]] = True
_CELL_BYTES[list(b',"\\')] = False
_BLOCK_BYTES = 1 << 20  # rows are assembled and written about this much at a time


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


def _text_cells(what: str, column: Sequence, a: np.ndarray,
                json_format: bool) -> np.ndarray:
    """The cells of a column `a`, made from `column`, that holds no floats:
    one cast of its text's code points to bytes.  Integers are spelled as
    ``str`` spells them, booleans as ``csv.writer`` or ``json.dumps`` does,
    and strings as given (JSON's within quotes).  ValueError naming `what`
    for a column of any other kind, or for text that CSV would quote or
    JSON escape."""
    strings = a.dtype.kind == "U"
    if a.dtype.kind == "b":
        a = np.where(a, "true", "false") if json_format else np.where(a, "True", "False")
    elif a.dtype.kind in "iu":
        a = a.astype(str)
    elif a.dtype.kind != "U":
        raise ValueError(f"{what}: {a.dtype} cells are not floats, integers, booleans "
                         f"or strings")
    codes = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("=")).view(np.uint32)
    chars = codes.astype(np.uint8).reshape(a.size, a.itemsize // 4)
    if ((codes.size and codes.max() >= 128) or not _CELL_BYTES[chars].all()
            or ((chars[:, :-1] == 0) & (chars[:, 1:] != 0)).any()  # a NUL in the text
            # numpy drops a string's trailing NULs, so look in the strings
            or strings and not isinstance(column, np.ndarray)
            and "\0" in "".join(map(str, column))):
        raise ValueError(f"{what}: text must be printable ASCII with no ',', "
                         f"'\"' or '\\'")
    if not (strings and json_format):
        return chars
    cells = np.empty((a.size, chars.shape[1] + 2), dtype=np.uint8)
    cells[:, [0, -1]] = ord('"')  # the NULs between text and quote are dropped
    cells[:, 1:-1] = chars
    return cells


def _column_cells(columns: dict[str, Sequence], n: int, json_format: bool
                  ) -> list[np.ndarray]:
    """Each column's cells for `_write_rows`; every float column goes
    through one `float_reprs` call, widened to float64, and is cut to its
    own longest text, and every other column through `_text_cells`."""
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    floats = [name for name, a in arrays.items() if a.dtype.kind == "f"]
    cells = {}
    if floats:
        # nan, inf and -inf as csv.writer or json.dumps spells them
        spelling = (b"null", b"Infinity", b"-Infinity") if json_format \
            else (b"", b"inf", b"-inf")
        chars, lengths = _float_cells(np.concatenate([arrays[name] for name in floats],
                                                     dtype=np.float64), spelling)
        for j, name in enumerate(floats):
            rows = slice(j * n, (j + 1) * n)
            cells[name] = chars[rows, :lengths[rows].max(initial=0)]
    return [cells[name] if name in cells
            else _text_cells(f"column {name!r}", columns[name], a, json_format)
            for name, a in arrays.items()]


def _write_rows(fh, n: int, slots: list, first: int | None = None) -> None:
    """Write `n` rows, each the concatenation of its slots: a string written
    on every row, or a column's cells.  `first` replaces the first byte
    written.

    Each block of rows is laid out as one byte matrix, slot by slot, and
    written as its bytes that are not NUL padding, in order.
    """
    parts = [np.frombuffer(s.encode(), dtype=np.uint8) if isinstance(s, str) else s
             for s in slots]
    edges = np.cumsum([0, *(chars.shape[-1] for chars in parts)]).tolist()
    spans = list(zip(parts, edges, edges[1:]))
    step = max(1, _BLOCK_BYTES // max(edges[-1], 1))
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = np.empty((stop - start, edges[-1]), dtype=np.uint8)
        for chars, a, b in spans:
            block[:, a:b] = chars if chars.ndim == 1 else chars[start:stop]
        if start == 0 and first is not None:
            block[0, 0] = first
        fh.write(block[block != 0])


def write_table(path: str | Path, columns: Mapping[str, Sequence]) -> int:
    """Write equal-length named columns as a table; returns the number of rows.

    A table has two or more columns.  A column holds floats, written as
    their shortest round-trip ``repr`` (NaN as a missing value), or
    integers, booleans or strings, each column one numpy array.  A column
    of any other kind (objects, say), text in a cell or a column name that
    is not printable ASCII, or that holds ',', '"' or '\\', and a table of
    fewer than two columns raise ValueError naming the column, before the
    file is opened.  A path ending in ``.json`` gets a sorted-key list of
    records (missing values as null), laid out as ``json.dumps(records,
    indent=2, sort_keys=True)``; any other path CSV with the columns in
    order (missing values empty), as ``csv.writer`` writes it.
    """
    path = Path(path)
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    if len(columns) < 2:
        raise ValueError(f"a table needs two or more columns, got {list(columns)}")
    n = next(iter(lengths.values()))
    json_format = path.suffix == ".json"
    names = sorted(columns) if json_format else list(columns)
    _text_cells(f"column names {names}", names, np.asarray(names), False)
    cells = _column_cells({name: columns[name] for name in names}, n, json_format)
    with path.open("wb") as fh:
        if json_format and not n:
            fh.write(b"[]\n")
        elif json_format:
            keys = [f'"{name}": ' for name in names]
            # each record opens with ",": the first one's becomes the list's "["
            seps = [",\n  {\n    " + keys[0], *[",\n    " + key for key in keys[1:]]]
            _write_rows(fh, n, [*chain.from_iterable(zip(seps, cells)), "\n  }"],
                        first=ord("["))
            fh.write(b"\n]\n")
        else:
            fh.write((",".join(names) + "\r\n").encode())
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
