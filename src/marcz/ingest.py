"""Price CSV ingestion, log returns, and the writer of every tabular artifact."""

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime
from itertools import chain

import numpy as np

from .errors import DomainError, EmptyDataError, LengthError, SchemaError

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y", "%d/%m/%Y")
_BLOCK_ROWS = 256


def _parse_date(text):
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text.strip(), fmt).date()
        except ValueError:
            continue
    return None


@dataclass
class PriceSeries:
    dates: list
    adj_close: np.ndarray
    label: str


def load_prices(path, column_name="Adj Close", label=None):
    """Read a Yahoo-format CSV, coercing the price column to numbers and
    dropping rows that fail to parse."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: no header row")
        if column_name not in reader.fieldnames:
            raise SchemaError(f"{path}: missing column {column_name!r}")
        date_col = "Date" if "Date" in reader.fieldnames else None
        dates, prices = [], []
        for row in reader:
            try:
                value = float(row[column_name])
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                continue
            prices.append(value)
            dates.append(_parse_date(row[date_col]) if date_col else None)
    if not prices:
        raise EmptyDataError(f"{path}: no numeric rows in column {column_name!r}")
    if label is None:
        label = str(path)
    return PriceSeries(dates=dates, adj_close=np.array(prices), label=label)


def log_returns(series):
    """r_t = ln(S_t) - ln(S_{t-1}) with r_1 = 0 by the self-prepend convention."""
    prices = series.adj_close
    if prices.size < 2:
        raise LengthError("need at least two prices")
    if np.any(prices <= 0):
        raise DomainError("prices must be positive")
    lp = np.log(prices)
    out = np.empty_like(lp)
    out[0] = 0.0
    out[1:] = np.diff(lp)
    return out


def select_window(values, end_offset=100, length=2601):
    """The fixed analysis window: `length` points ending `end_offset` before
    the final observation."""
    values = np.asarray(values)
    n = values.size
    if n < length + end_offset:
        raise LengthError(f"series length {n} < required {length + end_offset}")
    return values[n - length - end_offset:n - end_offset]


def select_window_by_dates(series, values, start=date(2009, 10, 23),
                           end=date(2020, 2, 25)):
    """Date-pinned alternative used when the file carries parseable dates."""
    if any(d is None for d in series.dates):
        raise SchemaError("series has unparsed dates; use select_window instead")
    idx = [i for i, d in enumerate(series.dates) if start <= d <= end]
    if not idx:
        raise EmptyDataError("no observations inside the requested date range")
    values = np.asarray(values)
    return values[idx[0]:idx[-1] + 1]


def write_rows(path, header, row_format, *columns):
    """Write `header`, then `row_format` once per row of the equal-length
    `columns`. Each block of _BLOCK_ROWS rows is formatted with a single `%`
    and written in one call, so memory stays bounded by the block."""
    with open(path, "w") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [np.asarray(c[start:start + _BLOCK_ROWS]).tolist() for c in columns]
            rows = chain.from_iterable(zip(*block))
            fh.write(row_format * len(block[0]) % tuple(rows))
