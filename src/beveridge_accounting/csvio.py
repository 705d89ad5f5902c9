"""CSV ingestion for monthly panels, and flat-file emission (CSV or JSON).

Schema: one row per month, a `date` column in YYYY-MM form, then named value
columns.  Missing cells are empty.  Rows must be contiguous ascending months;
every downstream module consumes the :class:`MonthlySeries` built here.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .series import MonthDate, MonthlySeries, require_aligned


class SchemaError(ValueError):
    """Input file violates the panel CSV schema."""


def read_panel(path: str | Path) -> dict[str, MonthlySeries]:
    """Read a panel CSV into one MonthlySeries per value column."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if not header or header[0].strip() != "date":
            raise SchemaError(f"{path}: first column must be 'date', got {header[:1]}")
        names = [h.strip() for h in header[1:]]
        if len(names) == 0:
            raise SchemaError(f"{path}: no value columns")
        if len(set(names)) != len(names):
            raise SchemaError(f"{path}: duplicate column names")

        months: list[MonthDate] = []
        columns: list[list[float]] = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names) + 1:
                raise SchemaError(f"{path}:{lineno}: expected {len(names) + 1} cells, "
                                  f"got {len(row)}")
            try:
                month = MonthDate.parse(row[0])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if months and months[-1].shift(1) != month:
                raise SchemaError(f"{path}:{lineno}: non-contiguous month {month} "
                                  f"after {months[-1]}")
            months.append(month)
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell == "":
                    columns[j].append(np.nan)
                    continue
                try:
                    columns[j].append(float(cell))
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: non-numeric cell {cell!r} "
                                      f"in column {names[j]!r}") from None

    if not months:
        raise SchemaError(f"{path}: no data rows")
    start = months[0]
    return {name: MonthlySeries(start, col) for name, col in zip(names, columns)}


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


def _dates(series: MonthlySeries) -> list[str]:
    """The series' months as YYYY-MM strings, without a MonthDate for each."""
    first = 12 * series.start.year + series.start.month - 1
    years, months = np.divmod(first + np.arange(len(series)), 12)
    return [f"{y:04d}-{m + 1:02d}" for y, m in zip(years.tolist(), months.tolist())]


def write_table(path: str | Path, columns: Mapping[str, Sequence]) -> int:
    """Write equal-length named columns as a table; returns the number of rows.

    A column holds strings, written as given, or numbers: floats as their
    shortest round-trip ``repr``, NaN as a missing value.  A path ending in
    ``.json`` gets a sorted-key list of records (missing values as null),
    any other path CSV with the columns in order (missing values empty).
    """
    path = Path(path)
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    # one conversion per column, to Python scalars with NaN as None
    arrays = [np.asarray(column) for column in columns.values()]
    cells = [np.where(a != a, None, a.astype(object)).tolist() for a in arrays]
    if path.suffix == ".json":
        records = [dict(zip(columns, row)) for row in zip(*cells)]
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    else:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            # csv writes None as an empty cell and a float as its repr
            writer.writerows(zip(*cells))
    return next(iter(lengths.values()), 0)


def write_panel(path: str | Path, columns: Mapping[str, MonthlySeries]) -> int:
    """Write aligned series as a panel in the schema above (JSON for a
    ``.json`` path); returns the number of data rows."""
    series = list(columns.values())
    if not series:
        raise ValueError("nothing to write")
    require_aligned(*series)
    return write_table(path, {"date": _dates(series[0]),
                              **{name: s.values for name, s in columns.items()}})
