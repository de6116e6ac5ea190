"""Price CSV ingestion, log returns, and the writer of every tabular artifact."""

import csv
import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, EmptyDataError, LengthError, SchemaError

_BLOCK_ROWS = 4096  # the fastest of 256..65536 for 18 traces of 2^16 rows
PAPER_LENGTH = 2601  # points in the paper's analysis window (select_window)
_END_OFFSET = 100    # observations after the window's end


@dataclass
class PriceSeries:
    adj_close: np.ndarray
    label: str


def load_prices(path, label=None):
    """Read the Adj Close column of a Yahoo-format CSV, coercing it to
    numbers and dropping rows that fail to parse."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: no header row")
            if "Adj Close" not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column 'Adj Close'")
            prices = []
            for row in reader:
                try:
                    value = float(row["Adj Close"])
                except (TypeError, ValueError):
                    continue
                if math.isfinite(value):
                    prices.append(value)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not prices:
        raise EmptyDataError(f"{path}: no numeric rows in column 'Adj Close'")
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


def select_window(values):
    """The fixed analysis window: PAPER_LENGTH points ending _END_OFFSET
    before the final observation."""
    values = np.asarray(values)
    n = values.size
    if n < PAPER_LENGTH + _END_OFFSET:
        raise LengthError(f"series length {n} < required {PAPER_LENGTH + _END_OFFSET}")
    return values[n - PAPER_LENGTH - _END_OFFSET:n - _END_OFFSET]


@functools.lru_cache(maxsize=1)
def _numbered_blocks(rows, tail):
    """One format string per block of _BLOCK_ROWS row numbers of the range
    `rows`, each number followed by `tail`: ("1,%.17g\\n" "2,%.17g\\n" ...)
    for tail ",%.17g\\n". One entry, so the traces of one run share it and
    new row numbers or a new tail replace it."""
    row = "%d" + tail.replace("%", "%%")
    blocks = (rows[i:i + _BLOCK_ROWS] for i in range(0, len(rows), _BLOCK_ROWS))
    return tuple(row * len(b) % tuple(b) for b in blocks)


def write_rows(path, header, rows, row_format, *columns):
    """Write `header`, then one line per number of the range `rows`: the
    number, then `row_format` applied to that row of the equal-length
    `columns`.

    The row numbers are baked into cached per-block format strings, so only
    the columns are formatted per row. Each block of _BLOCK_ROWS rows is
    formatted with a single `%` and written in one call, so memory stays
    bounded by the block."""
    lengths = {len(rows), *map(len, columns)}
    if len(lengths) > 1:
        raise LengthError(f"columns have unequal lengths {sorted(lengths)}")
    templates = _numbered_blocks(rows, row_format)
    with open(path, "w") as fh:
        fh.write(header)
        for start, template in zip(range(0, len(rows), _BLOCK_ROWS), templates):
            block = [np.asarray(c[start:start + _BLOCK_ROWS]).tolist() for c in columns]
            values = block[0] if len(block) == 1 else chain.from_iterable(zip(*block))
            fh.write(template % tuple(values))
