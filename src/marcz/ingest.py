"""Price CSV ingestion, log returns, and the writer of every tabular artifact."""

import csv
import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, EmptyDataError, LengthError, SchemaError

_BLOCK_ROWS = 4096  # the fastest of 256..65536 for 18 traces of 2^16 rows


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


@functools.lru_cache(maxsize=1)
def _numbered_blocks(first, rows, tail):
    """One format string per block of _BLOCK_ROWS rows for the row numbers
    first .. first + rows - 1, each number followed by `tail`: ("1,%.17g\\n"
    "2,%.17g\\n" ...) for tail ",%.17g\\n". One entry, so the traces of one
    run share it and a new length or tail replaces it."""
    row = "%d" + tail.replace("%", "%%")
    stop = first + rows
    return tuple(row * (min(start + _BLOCK_ROWS, stop) - start)
                 % tuple(range(start, min(start + _BLOCK_ROWS, stop)))
                 for start in range(first, stop, _BLOCK_ROWS))


def write_rows(path, header, row_format, *columns):
    """Write `header`, then `row_format` once per row of the equal-length
    `columns`. Each block of _BLOCK_ROWS rows is formatted with a single `%`
    and written in one call, so memory stays bounded by the block.

    A leading `range` column of step 1 under a leading "%d" is taken as row
    numbers: they are baked into cached per-block format strings, so only
    the other columns are formatted per row."""
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise LengthError(f"columns have unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    row_numbers = columns[0] if columns else None
    templates = None
    if (isinstance(row_numbers, range) and row_numbers.step == 1
            and row_format.startswith("%d")):
        templates = _numbered_blocks(row_numbers.start, n, row_format[2:])
        columns = columns[1:]
    with open(path, "w") as fh:
        fh.write(header)
        for i, start in enumerate(range(0, n, _BLOCK_ROWS)):
            block = [np.asarray(c[start:start + _BLOCK_ROWS]).tolist() for c in columns]
            values = block[0] if len(block) == 1 else chain.from_iterable(zip(*block))
            if templates is None:
                fh.write(row_format * min(_BLOCK_ROWS, n - start) % tuple(values))
            else:
                fh.write(templates[i] % tuple(values))
