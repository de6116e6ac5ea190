"""Price CSV ingestion, log returns, and the writer of every tabular artifact."""

import csv
import functools
import math
from dataclasses import dataclass

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


@functools.cache
def _pow10(m):
    """10^m as a double-double hi + lo, each rounded from exact integers."""
    num, den = (10 ** m, 1) if m >= 0 else (1, 10 ** -m)
    n, d = (num / den).as_integer_ratio()
    return n / d, (num * d - n * den) / (den * d)


def _halves(v):
    """Dekker's split of doubles into two halves of at most 26 bits."""
    c = v * 134217729.0  # 2^27 + 1
    return c - (c - v), v - (c - (c - v))


def _scaled(a, m):
    """floor(a * 10^m) as int64 and its fraction in [0, 1), from Dekker's
    two-product of a with 10^m as a double-double: the sum errs by less
    than 2^-46 where a * 10^m < 10^17."""
    first = int(m.min())
    hi, lo = np.array([_pow10(k) for k in range(first, int(m.max()) + 1)]).T[:, m - first]
    (a_high, a_low), (high, low) = _halves(a), _halves(hi)
    p = a * hi
    lo = (((a_high * high - p) + a_high * low + a_low * high) + a_low * low) + a * lo
    whole, r = np.floor(p), (p - np.floor(p)) + lo
    return whole.astype(np.int64) + np.floor(r).astype(np.int64), r - np.floor(r)


def _digits(v, width):
    """ASCII digits of the non-negative int64s v, zero-padded: a (width, n)
    uint8 array. Six digits and their floors over powers of ten are exact in
    float32."""
    if width > 6:
        return np.vstack([_digits(v // 10 ** 6, width - 6), _digits(v % 10 ** 6, 6)])
    powers = np.array([10 ** k for k in range(width - 1, -1, -1)], dtype=np.float32)
    prefixes = np.floor(v.astype(np.float32) / powers[:, None])
    prefixes[1:] -= 10 * prefixes[:-1]
    return (prefixes + 48).astype(np.uint8)


def _decimal(x, p):
    """The p-digit integer d in [10^(p-1), 10^p) and decimal exponent e of
    each |x| rounded half-even, and where they are certain: not for 0, inf,
    nan, |x| outside [1e-280, 1e280), where a power of ten or a Dekker half
    would leave the normal doubles, or a fraction too near 1/2."""
    a = np.abs(x)
    certain = (a >= 1e-280) & (a < 1e280)
    a[~certain] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    low, high = 10 ** (p - 1), 10 ** p
    whole, frac = _scaled(a, p - 1 - e)
    d = whole + (frac > 0.5)
    # next to a power of ten log10 can miss the decade by one, which leaves
    # the whole double-double, though perhaps not its high part, outside
    # [10^(p-1), 10^p]; those rows fall back
    certain &= (whole >= low) & (d <= high) & (np.abs(frac - 0.5) > 1e-9)
    carry = d == high
    return np.where(carry, low, d), e + carry, certain


def _format_floats(x, p):
    """'%.{p}g' of each float64 of x as NUL-padded uint8 columns, one row
    per slot: a sign, the "0.000" of fixed notation below 1, p digits each
    followed by a slot for the point, then "e+XXX". Values _decimal is not
    certain of take Python's own conversion."""
    d, e, certain = _decimal(x, p)
    fixed = (e >= -4) & (e < p)
    point = np.where(fixed, np.maximum(e + 1, 0), 1)  # digits before the point
    digits = _digits(d, p)
    last = ((digits != 48) * np.arange(1, p + 1, dtype=np.uint8)[:, None]).max(axis=0)
    shown = np.maximum(last, point)  # digits left once trailing zeros go
    digits[np.arange(p)[:, None] >= shown] = 0
    out = np.zeros((11 + 2 * p, x.size), np.uint8)
    out[0] = (x < 0) * 45
    zero_point = (np.arange(5)[:, None] < 1 - e) & fixed & (e < 0)
    out[1:6] = zero_point * np.frombuffer(b"0.000", np.uint8)[:, None]
    out[6:6 + 2 * p:2] = digits
    dotted = np.flatnonzero((point > 0) & (shown > point))
    out[5 + 2 * point[dotted], dotted] = 46
    out[6 + 2 * p] = 101
    out[7 + 2 * p] = 43 + 2 * (e < 0)  # "+" or "-"
    out[8 + 2 * p:] = _digits(abs(e), 3)
    out[8 + 2 * p, abs(e) < 100] = 0
    out[6 + 2 * p:, fixed] = 0
    for i in np.flatnonzero(~certain):
        text = ("%.*g" % (p, x[i])).encode().ljust(len(out), b"\0")
        out[:, i] = np.frombuffer(text, np.uint8)
    return out


def write_rows(path, header, rows, sep, precision, *columns):
    """Write `header`, then one line per number of the range `rows` of
    non-negative row numbers: the number, then for each of the equal-length
    `columns` `sep` and that row's value as '%.{precision}g'. Each block of
    _BLOCK_ROWS rows is formatted in numpy to the bytes of Python's `%` and
    written in one call, so memory stays bounded by the block."""
    lengths = {len(rows), *map(len, columns)}
    if len(lengths) > 1:
        raise LengthError(f"columns have unequal lengths {sorted(lengths)}")
    width = len(str(rows[-1])) if rows else 1
    sep = np.frombuffer(sep.encode(), np.uint8)[:, None]
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            numbers = _digits(np.arange(block.start, block.stop, block.step), width)
            numbers[:-1][np.logical_and.accumulate(numbers[:-1] == 48)] = 0
            slots = [numbers]
            for column in columns:
                values = np.asarray(column[start:start + _BLOCK_ROWS], dtype=np.float64)
                slots += [np.broadcast_to(sep, (sep.size, len(block))),
                          _format_floats(values, precision)]
            slots.append(np.full((1, len(block)), 10, np.uint8))
            fh.write(np.concatenate(slots).T.tobytes().translate(None, b"\0"))
