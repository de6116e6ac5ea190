"""Running means, the normalized partial-sum trace f(n), and the
convergence/divergence verdict rule."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, LengthError
from .ingest import write_rows
from .tables import DEFAULT_EXPONENTS, DEFAULT_S_LIST, Verdict, VerdictTable

PAPER_LENGTH = 2601
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
    the carry from the previous block. B is chosen so that a^-B <= e^30,
    which keeps the rescaled cumsum finite for every epsilon in (0, 1); the
    carries follow from a doubling scan over blocks.
    """
    x = np.ascontiguousarray(series, dtype=np.float64)
    n = x.size
    if n == 0:
        raise LengthError("series must be non-empty")
    a = 1.0 - epsilon
    block = int(min(n, max(1.0, 30.0 / -math.log1p(-epsilon))))
    nblocks = -(-n // block)
    decay = a ** np.arange(block, dtype=np.float64)
    w = np.zeros((nblocks, block))
    w.reshape(-1)[:n] = x
    carry = np.empty(nblocks)
    carry[0] = x[0]
    # end value of each block started from zero
    carry[1:] = w[:-1] @ (epsilon * decay[::-1])
    step, shift = a ** block, 1
    while shift < nblocks and step > 0.0:
        carry[shift:] += step * carry[:-shift]
        step *= step
        shift *= 2
    w *= epsilon / decay
    w[:, 0] += a * carry
    np.cumsum(w, axis=1, out=w)
    w *= decay
    return w.reshape(-1)[:n]


@dataclass
class MarcTrace:
    s: int
    exponent: float
    f: np.ndarray
    mu_trace: np.ndarray
    m_trace: np.ndarray

    def to_csv(self, path):
        write_rows(path, "k,f\n", "%d,%.17g\n", range(1, self.f.size + 1), self.f)


def _finite_series(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError(f"series must be one-dimensional, got shape {x.shape}")
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise DomainError(f"series has {bad} non-finite value(s)")
    return x


def _centering(value, n):
    """A scalar (constant centering) or a precomputed length-n trace."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise LengthError(f"centering trace has shape {arr.shape}, need ({n},)")
    return arr


def _partial_sums(residual, m):
    """|sum_{j<=k} (residual_j - m_j)| for k = 1..n; m is a scalar or a
    length-n trace."""
    out = np.subtract(residual, m)
    np.cumsum(out, out=out)
    return np.abs(out, out=out)


def marcinkiewicz_trace(x, s, exponent, cfg=RunningMeanConfig(), mu=None, m=None):
    """f(k) = k^(-exponent) * |sum_{j<=k} (|x_j - mu_j|^s - m_j)|.

    By default mu and m are the running exponential means of the published
    procedure. Passing scalar mu/m switches to constant (known-mean)
    centering, which is what the rate theory is stated for; passing length-n
    arrays reuses running means computed once for several cells.
    """
    x = _finite_series(x)
    if not 0.0 < exponent <= 1.0:
        raise ConfigurationError(f"exponent must be in (0,1], got {exponent}")
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    if mu is None:
        mu_trace = ewma(x, cfg.epsilon)
    else:
        mu_trace = _centering(mu, x.size)
    residual = np.abs(x - mu_trace) ** s
    if m is None:
        m_trace = ewma(residual, cfg.rho)
    else:
        m_trace = _centering(m, x.size)
    k = np.arange(1, x.size + 1, dtype=np.float64)
    f = _partial_sums(residual, m_trace) / k ** exponent
    return MarcTrace(s=s, exponent=exponent, f=f, mu_trace=mu_trace, m_trace=m_trace)


def convergence_verdict(trace, cfg=RunningMeanConfig(), offsets=TRAILING_OFFSETS):
    """Two-stage trailing-average rule: diverges unless the whole-window
    average exceeds 1.2x the last-half average and that exceeds 1.05x the
    last-quarter average. A NaN mean fails both comparisons and diverges."""
    f = trace.f
    need = cfg.start + offsets[1] + 1
    if f.size < need:
        raise LengthError(f"trace length {f.size} < required {need}")
    tails = (f[cfg.start - 1 + o:] for o in (0, *offsets))
    # np.cumsum sums sequentially (np.mean pairwise), which keeps the means' bits
    mean_whole, mean_half, mean_quarter = (np.cumsum(v)[-1] / v.size for v in tails)
    if (mean_whole >= THRESHOLDS[0] * mean_half
            and mean_half >= THRESHOLDS[1] * mean_quarter):
        outcome = "Converges"
    else:
        outcome = "Diverges"
    ratios = (
        mean_whole / mean_half if mean_half != 0 else float("inf"),
        mean_half / mean_quarter if mean_quarter != 0 else float("inf"),
    )
    return Verdict(outcome=outcome, mean_whole=mean_whole, mean_half=mean_half,
                   mean_quarter=mean_quarter, ratios=ratios)


def verdict_table(x, s_list=DEFAULT_S_LIST, exponent_list=DEFAULT_EXPONENTS,
                  cfg=RunningMeanConfig(), label="", proportional=False,
                  collect_traces=False):
    """Grid of verdicts over powers s and exponents 1/p.

    The running mean mu and each k^e are computed once per grid, the
    residual, its mean m and its partial sums once per s; every cell then
    matches marcinkiewicz_trace(x, s, e, cfg) bit for bit.
    """
    x = _finite_series(x)
    if x.size > 1 and x.min() == x.max():
        # f would be EWMA rounding noise, and its verdict meaningless
        raise DomainError(f"series is constant ({x[0]:g}); no verdict")
    offsets = TRAILING_OFFSETS
    if proportional and x.size != PAPER_LENGTH:
        factor = x.size / PAPER_LENGTH
        cfg = replace(cfg, start=max(1, int(round(cfg.start * factor))))
        offsets = tuple(int(round(o * factor)) for o in offsets)
    table = VerdictTable(label=label, s_list=tuple(s_list),
                         exponent_list=tuple(exponent_list))
    mu = ewma(x, cfg.epsilon)
    rows = []  # (s, m, partial sums) per row
    for s in s_list:
        residual = np.abs(x - mu) ** s
        m = ewma(residual, cfg.rho)
        rows.append((s, m, _partial_sums(residual, m)))
    del residual
    # Exponent-major with one k^e alive at a time, and the last exponent's f
    # written into its row's partial-sum buffer: the grid then peaks no higher
    # in memory than with one trace per cell. The dicts keep row-major order.
    keys = [(s, e) for s in s_list for e in exponent_list]
    table.cells, traces = dict.fromkeys(keys), dict.fromkeys(keys)
    k = np.arange(1, x.size + 1, dtype=np.float64)
    for i, e in enumerate(exponent_list, 1):
        norm = k ** e
        for s, m, sums in rows:
            f = np.divide(sums, norm, out=sums if i == len(exponent_list) else None)
            tr = MarcTrace(s=s, exponent=e, f=f, mu_trace=mu, m_trace=m)
            table.cells[(s, e)] = convergence_verdict(tr, cfg, offsets)
            if collect_traces:
                traces[(s, e)] = tr
    if collect_traces:
        return table, traces
    return table
