"""Price CSV ingestion, log returns, and the writer of every tabular artifact."""

import csv
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, EmptyDataError, LengthError, SchemaError

_BLOCK_ROWS = 256


@dataclass
class PriceSeries:
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
        prices = []
        for row in reader:
            try:
                value = float(row[column_name])
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                continue
            prices.append(value)
    if not prices:
        raise EmptyDataError(f"{path}: no numeric rows in column {column_name!r}")
    if label is None:
        label = str(path)
    return PriceSeries(adj_close=np.array(prices), label=label)


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
