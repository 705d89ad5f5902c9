"""Calendar-indexed monthly series and the basic transformations applied to them.

Everything downstream (flow construction, matching estimation, curve
decompositions) consumes :class:`MonthlySeries` built here.  Missing
observations are carried as NaN and propagate through every transformation:
a window that touches a missing value yields a missing result, never a
fabricated one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$", re.ASCII)


class Refusal(Exception):
    """An input the program refuses, as opposed to a fault of the program:
    `cli.main` writes ``f"{label}: {message}"`` on stderr and returns
    `exit_code`, the README's exit-code contract."""

    exit_code: int
    label: str


class ConfigError(Refusal):
    """A run configuration the program cannot use: a flag's value, or a
    month or window outside the data."""

    exit_code, label = 2, "configuration error"


class DataError(Refusal, ValueError):
    """Input data the program refuses, which a panel file or a flag can
    reach; to a library caller it is a ValueError."""

    exit_code, label = 3, "data error"


class InfeasibleError(DataError):
    """Data that leave the result empty."""

    exit_code, label = 4, "infeasible"


@dataclass(frozen=True, order=True)
class MonthDate:
    """A Gregorian calendar month, totally ordered by (year, month), in the
    years that YYYY spells (0000 to 9999)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 0 <= self.year <= 9999:
            raise ValueError(f"year must be in 0..9999, got {self.year}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    def shift(self, months: int) -> "MonthDate":
        """The month `months` steps later (negative steps go back);
        ValueError if it is outside the years 0000 to 9999."""
        q, r = divmod(self.month - 1 + months, 12)
        return MonthDate(self.year + q, r + 1)

    def months_until(self, other: "MonthDate") -> int:
        """Signed number of months from self to other."""
        return (other.year - self.year) * 12 + (other.month - self.month)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    @classmethod
    def parse(cls, text: str) -> "MonthDate":
        m = _MONTH_RE.match(text.strip())
        if m is None:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))


_LAST_MONTH = MonthDate(9999, 12)


@dataclass(frozen=True)
class MonthlySeries:
    """Contiguous monthly real-valued series starting at `start`.

    Index t corresponds to the calendar month ``start + t``, so the series
    ends by 9999-12.  Values are a read-only float array; NaN marks a
    missing entry.  Infinities are rejected so that "finite unless
    explicitly missing" holds by construction.
    """

    start: MonthDate
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if np.isinf(arr).any():  # a computed value that overflowed, say
            raise DataError("non-finite (infinite) value in series")
        if self.start.months_until(_LAST_MONTH) < arr.size - 1:
            raise ValueError(f"{arr.size} months from {self.start} run past {_LAST_MONTH}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> MonthDate:
        if len(self.values) == 0:
            raise ValueError("empty series has no end month")
        return self.start.shift(len(self.values) - 1)

    def months(self) -> list[MonthDate]:
        return [self.start.shift(t) for t in range(len(self.values))]

    def covers(self, month: MonthDate) -> bool:
        t = self.start.months_until(month)
        return 0 <= t < len(self.values)

    def index_of(self, month: MonthDate) -> int:
        t = self.start.months_until(month)
        if not 0 <= t < len(self.values):
            raise KeyError(f"{month} outside series coverage "
                           f"[{self.start}, {self.end}]")
        return t

    def with_values(self, values: Iterable[float]) -> "MonthlySeries":
        """A new series on the same calendar grid."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=float)
        if arr.shape != self.values.shape:
            raise ValueError("replacement values must match series length")
        return MonthlySeries(self.start, arr)


def _reject_first(bad: np.ndarray, start: MonthDate, message: str,
                  values: np.ndarray | None = None) -> None:
    """DataError(message) at the first month where `bad` holds, its date
    as ``{month}`` and its entry of `values` as ``{value}``."""
    if bad.any():
        t = int(bad.argmax())
        raise DataError(message.format(
            month=start.shift(t), value=None if values is None else float(values[t])))


def _reject_nonshares(name: str, values: np.ndarray, start: MonthDate) -> None:
    """DataError naming `name`, and the first month and value outside (0, 1)."""
    _reject_first((values <= 0.0) | (values >= 1.0), start,
                  name + " outside (0, 1) at {month}: {value!r}", values)


def require_aligned(*series: MonthlySeries) -> None:
    """Raise unless all series share the same start month and length."""
    first = series[0]
    for s in series[1:]:
        if s.start != first.start or len(s) != len(first):
            raise ValueError(
                f"calendar misalignment: [{first.start}, len {len(first)}] "
                f"vs [{s.start}, len {len(s)}]")


def moving_average(series: MonthlySeries, window: int,
                   alignment: str = "centered") -> MonthlySeries:
    """Arithmetic moving average; months lacking a full window are missing.

    `centered` places the window around each month (for even windows the
    extra month falls after); `trailing` ends the window at each month.
    Any window containing a missing value yields a missing output.
    """
    if len(series) == 0:
        raise ValueError("empty input")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > len(series):
        raise ValueError(f"window {window} exceeds series length {len(series)}")
    if alignment not in ("centered", "trailing"):
        raise ValueError(f"alignment must be 'centered' or 'trailing', got {alignment!r}")

    sums = np.convolve(series.values, np.ones(window), mode="valid")
    out = np.full(len(series), np.nan)
    if alignment == "centered":
        first = (window - 1) // 2
    else:
        first = window - 1
    out[first:first + len(sums)] = sums / window
    return series.with_values(out)


def normalize_shares(stocks: Sequence[MonthlySeries]) -> list[MonthlySeries]:
    """Divide each stock by the per-month total so shares sum to one.

    A month with any missing stock is missing in every output; a negative
    stock or a zero total is an error naming the first such month.
    """
    if len(stocks) == 0:
        raise ValueError("empty input")
    require_aligned(*stocks)
    mat = np.vstack([s.values for s in stocks])
    least = np.fmin.reduce(mat, axis=0)  # each month's least observed stock
    _reject_first(least < 0.0, stocks[0].start,
                  "negative stock value at {month}: {value!r}", least)
    total = mat.sum(axis=0)
    _reject_first(~np.isnan(total) & (total <= 0.0), stocks[0].start,
                  "empty population month {month}")
    return [s.with_values(s.values / total) for s in stocks]


def delta(series: MonthlySeries) -> MonthlySeries:
    """Forward difference placed at t: value[t+1] - value[t]; last month missing."""
    out = np.full(len(series), np.nan)
    out[:-1] = series.values[1:] - series.values[:-1]
    return series.with_values(out)


def delta_log(series: MonthlySeries) -> MonthlySeries:
    """Forward log difference placed at t; last month missing."""
    with np.errstate(invalid="ignore", divide="ignore"):
        logs = np.log(series.values)
    out = np.full(len(series), np.nan)
    out[:-1] = logs[1:] - logs[:-1]
    return series.with_values(out)
