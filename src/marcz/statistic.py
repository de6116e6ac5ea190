"""Running means, the normalized partial-sum trace f(n), and the
convergence/divergence verdict rule."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, LengthError
from .ingest import PAPER_LENGTH, write_rows
from .tables import DEFAULT_EXPONENTS, DEFAULT_S_LIST, Verdict, VerdictTable

# verdict rule: half/quarter window offsets past cfg.start, and the mean ratios
TRAILING_OFFSETS = (1000, 1500)
THRESHOLDS = (1.2, 1.05)


@dataclass(frozen=True)
class RunningMeanConfig:
    epsilon: float = 0.005
    rho: float = 0.005
    start: int = 601

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must be in (0,1), got {self.rho}")
        if self.start < 1:
            raise ConfigurationError(f"start must be >= 1, got {self.start}")


def ewma(series, epsilon):
    """Exponential moving average y_t = (1-epsilon) y_{t-1} + epsilon x_t,
    seeded so that y_0 = x_0.

    Blocked form: within a block of length B,
    y_j = a^j (a c + epsilon * sum_{i<=j} a^-i x_i) with a = 1-epsilon and c
    the last value of the previous block (x_0 for the first). B is chosen so
    that a^-B <= e^30, which keeps the rescaled cumsum finite for every
    epsilon in (0, 1). Each y_k is computed from x_0..x_k alone, in the same
    operations whatever follows it.
    """
    x = np.ascontiguousarray(series, dtype=np.float64)
    n = x.size
    if n == 0:
        raise LengthError("series must be non-empty")
    a = 1.0 - epsilon
    block = int(min(n, max(1.0, 30.0 / -math.log1p(-epsilon))))
    decay = a ** np.arange(block, dtype=np.float64)
    gain = epsilon / decay
    out = np.empty(n)
    carry = x[0]
    for lo in range(0, n, block):
        y = out[lo:lo + block]
        np.multiply(x[lo:lo + block], gain[:y.size], out=y)
        y[0] += a * carry
        np.cumsum(y, out=y)
        y *= decay[:y.size]
        carry = y[-1]
    return out


@dataclass
class MarcTrace:
    s: int
    exponent: float
    f: np.ndarray

    def to_csv(self, path):
        write_rows(path, "k,f\n", range(1, self.f.size + 1), ",%.17g\n", self.f)


def _finite_series(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError(f"series must be one-dimensional, got shape {x.shape}")
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise DomainError(f"series has {bad} non-finite value(s)")
    return x


def _partial_sums(residual, m):
    """|sum_{j<=k} (residual_j - m_j)| for k = 1..n; m is a scalar or a
    length-n trace."""
    out = np.subtract(residual, m)
    np.cumsum(out, out=out)
    return np.abs(out, out=out)


def _traces(x, grid, cfg):
    """Yield the MarcTrace of every cell of `grid`, exponent by exponent,
    with f(k) = k^(-e) * |sum_{j<=k} (|x_j - mu_j|^s - m_j)| and mu, m the
    running means of x and of the residual.

    mu is computed once, and the residual, its m and its partial sums once
    per s; mu and each m are dropped once the sums exist. Each k^e is
    computed once, and the last exponent's f is written into its row's
    partial-sum buffer: a grid whose traces are dropped as they come then
    peaks no higher in memory than with one trace per cell.

    A row whose last partial sum is not finite (inf or NaN stays in a
    cumsum), or whose residuals lost to underflow where x != mu (each one
    < tiny) could outweigh the rounding of their sum, raises DomainError.
    """
    tiny, eps = np.finfo(np.float64).tiny, np.finfo(np.float64).eps
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        mu = ewma(x, cfg.epsilon)
        exact = np.count_nonzero(x == mu)  # residuals that are 0 without underflow
        for s in grid.s_list:
            residual = np.abs(x - mu) ** s
            sums = _partial_sums(residual, ewma(residual, cfg.rho))
            lost = np.count_nonzero(residual < tiny) - exact
            if not np.isfinite(sums[-1]) or lost * tiny > eps * residual.sum():
                raise DomainError(f"|x - mu|^{s} leaves the float range; no verdict for s = {s}")
            rows.append(sums)
    del mu, residual
    k = np.arange(1, x.size + 1, dtype=np.float64)
    for i, e in enumerate(grid.exponent_list, 1):
        norm = k ** e
        for s, sums in zip(grid.s_list, rows):
            f = np.divide(sums, norm, out=sums if i == len(grid.exponent_list) else None)
            yield MarcTrace(s=s, exponent=e, f=f)


def marcinkiewicz_trace(x, s, exponent, cfg=RunningMeanConfig()):
    """f(k) = k^(-exponent) * |sum_{j<=k} (|x_j - mu_j|^s - m_j)| with mu
    and m the running exponential means of the published procedure: the
    one-cell grid of verdict_table, checked as a grid is."""
    x = _finite_series(x)
    grid = VerdictTable(label="", s_list=(s,), exponent_list=(exponent,))
    return next(_traces(x, grid, cfg))


def convergence_verdict(trace, cfg=RunningMeanConfig(), offsets=TRAILING_OFFSETS):
    """Two-stage trailing-average rule: diverges unless the whole-window
    average exceeds 1.2x the last-half average and that exceeds 1.05x the
    last-quarter average. A mean that is not finite (NaN or overflowed) raises."""
    f = trace.f
    need = cfg.start + offsets[1] + 1
    if f.size < need:
        raise LengthError(f"trace length {f.size} < required {need}")
    tails = (f[cfg.start - 1 + o:] for o in (0, *offsets))
    # np.cumsum sums sequentially (np.mean pairwise), which keeps the means' bits
    with np.errstate(over="ignore"):
        mean_whole, mean_half, mean_quarter = (np.cumsum(v)[-1] / v.size for v in tails)
    if not all(map(math.isfinite, (mean_whole, mean_half, mean_quarter))):
        raise DomainError(f"a mean of f leaves the float range; no verdict for s = {trace.s}")
    outcome = ("Converges" if mean_whole >= THRESHOLDS[0] * mean_half
               and mean_half >= THRESHOLDS[1] * mean_quarter else "Diverges")
    # Python float division: a subnormal divisor gives inf with no overflow warning
    ratios = (float(mean_whole) / float(mean_half) if mean_half != 0 else math.inf,
              float(mean_half) / float(mean_quarter) if mean_quarter != 0 else math.inf)
    return Verdict(outcome=outcome, mean_whole=mean_whole, mean_half=mean_half,
                   mean_quarter=mean_quarter, ratios=ratios)


def verdict_table(x, s_list=DEFAULT_S_LIST, exponent_list=DEFAULT_EXPONENTS,
                  cfg=RunningMeanConfig(), label="", proportional=False,
                  collect_traces=False):
    """Grid of verdicts over powers s and exponents 1/p.

    The traces come from _traces, of which marcinkiewicz_trace is the
    one-cell case. With collect_traces the table keeps every cell's
    MarcTrace in `traces`, keyed and ordered as `cells`.
    """
    x = _finite_series(x)
    if x.size > 1 and x.min() == x.max():
        # f would be EWMA rounding noise, and its verdict meaningless
        raise DomainError(f"series is constant ({x[0]:g}); no verdict")
    offsets = TRAILING_OFFSETS
    if proportional:
        if x.size < PAPER_LENGTH:  # scaled windows only ever grow from the paper's
            raise LengthError(f"proportional windows need at least {PAPER_LENGTH} "
                              f"values, got {x.size}")
        factor = x.size / PAPER_LENGTH
        cfg = replace(cfg, start=max(1, int(round(cfg.start * factor))))
        offsets = tuple(int(round(o * factor)) for o in offsets)
    table = VerdictTable(label=label, s_list=tuple(s_list),
                         exponent_list=tuple(exponent_list))
    # the cells are computed exponent-major; the dicts keep row-major order
    keys = [(s, e) for s in table.s_list for e in table.exponent_list]
    table.cells = dict.fromkeys(keys)
    if collect_traces:
        table.traces = dict.fromkeys(keys)
    for tr in _traces(x, table, cfg):
        table.cells[(tr.s, tr.exponent)] = convergence_verdict(tr, cfg, offsets)
        if collect_traces:
            table.traces[(tr.s, tr.exponent)] = tr
    return table
