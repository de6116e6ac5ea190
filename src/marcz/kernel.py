"""Power-law coefficient families and numeric verification of the kernel
cross-sum bounds against the three-branch bound."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegeneratePairError, DomainError, OutOfWindowError
from .ingest import write_rows


# l-block length of the kernel cross-sum convolution; bounds its memory
_FFT_BLOCK = 2 ** 15


@dataclass(frozen=True)
class CoefficientSpec:
    """Symmetric coefficient family c_l = scale * |l|^(-sigma), c_0 = center_value."""

    sigma: float
    scale: float = 1.0
    center_value: float = 1.0
    window: int = 2 ** 14

    def __post_init__(self):
        if not 0.5 < self.sigma <= 1.0:
            raise ConfigurationError(f"sigma must lie in (0.5, 1.0], got {self.sigma}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")


def coefficient(spec, l):
    """Evaluate c_l. Raises OutOfWindowError beyond the truncation window."""
    if abs(l) > spec.window:
        raise OutOfWindowError(f"|l|={abs(l)} exceeds window {spec.window}")
    if l == 0:
        return spec.center_value
    return spec.scale * abs(l) ** -spec.sigma


def coefficient_array(spec, half_width=None):
    """Dense coefficient vector for l = -M..M (M defaults to spec.window)."""
    M = spec.window if half_width is None else half_width
    if M > spec.window:
        raise OutOfWindowError(f"half_width {M} exceeds window {spec.window}")
    l = np.arange(-M, M + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        c = spec.scale * np.abs(l) ** -spec.sigma
    c[M] = spec.center_value
    return c


def _fft_length(target):
    """Smallest 2^a * 3^b * 5^c >= target."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-target // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _powers(gamma, m):
    """|m|^(-gamma) for a float64 index array, with 0 where m == 0 (the
    excluded terms l = j and l = k of the cross sum)."""
    with np.errstate(divide="ignore"):
        t = np.abs(m) ** -gamma
    t[m == 0] = 0.0
    return t


def _cross_sums(gamma_left, gamma_right, lag_max, radius):
    """Sum over l in [-radius, radius] of A(d-l) * B(l) for d = 2..lag_max,
    with A(m) = |m|^(-gamma_left), B(l) = |l|^(-gamma_right), A(0) = B(0) = 0.

    For all lags at once this is the valid part of one linear convolution.
    l runs in blocks of _FFT_BLOCK; each block adds rfft(A segment) *
    rfft(B block) to one spectrum, and one irfft gives every lag. A length
    >= the A segment wraps only into outputs that valid mode discards.
    """
    block = min(_FFT_BLOCK, 2 * radius + 1)
    width = block + lag_max - 2  # A over m = d - l for the block's l and all d
    size = _fft_length(width)
    spec = np.zeros(size // 2 + 1, dtype=np.complex128)
    for l0 in range(-radius, radius + 1, block):
        m = np.arange(3 - l0 - block, lag_max + 1 - l0, dtype=np.float64)
        l = np.arange(l0, min(l0 + block, radius + 1), dtype=np.float64)
        a = np.fft.rfft(_powers(gamma_left, m), size)
        spec += a * np.fft.rfft(_powers(gamma_right, l), size)  # pads a short last block
    return np.fft.irfft(spec, size)[block - 1:width]


def _cross_sum_gather(j, k, pw_left, pw_right, radius):
    l = np.arange(-radius, radius + 1, dtype=np.int64)
    mask = (l != j) & (l != k)
    lm = l[mask]
    return float(np.dot(pw_left[np.abs(j - lm)], pw_right[np.abs(k - lm)]))


def _cross_sum_lag(d, pw_left, pw_right, radius):
    # Sum over l in [-radius, radius] \ {0, d} of pw_left[|d-l|] * pw_right[|l|]
    # for d >= 1, split into l < 0, 0 < l < d, l > d.
    s = np.dot(pw_left[d + 1:d + radius + 1], pw_right[1:radius + 1])
    if d > 1:
        s += np.dot(pw_left[1:d][::-1], pw_right[1:d])
    s += np.dot(pw_left[1:radius - d + 1], pw_right[d + 1:radius + 1])
    return float(s)


def kernel_cross_sum(j, k, gamma_left, gamma_right, radius):
    """Exact finite sum over l in [-radius, radius] \\ {j, k} of
    |j-l|^(-gamma_left) * |k-l|^(-gamma_right)."""
    if j == k:
        raise DegeneratePairError(f"j and k must differ, got j=k={j}")
    if gamma_left <= 0.5 or gamma_right <= 0.5:
        raise DomainError("both exponents must exceed 1/2")
    if radius < 2 * abs(j - k):
        raise DomainError(f"radius {radius} must be >= 2*|j-k| = {2 * abs(j - k)}")
    m = np.arange(radius + max(abs(j), abs(k)) + 1, dtype=np.float64)
    pw_left = _powers(gamma_left, m)
    pw_right = _powers(gamma_right, m)
    if k == 0 and j > 0:
        return _cross_sum_lag(j, pw_left, pw_right, radius)
    return _cross_sum_gather(j, k, pw_left, pw_right, radius)


@dataclass
class BoundReport:
    """Per-lag comparison of the kernel cross sum against its analytic bound."""

    gamma: float
    mixed: bool
    lags: range
    sums: np.ndarray
    bounds: np.ndarray
    ratios: np.ndarray = field(init=False)

    def __post_init__(self):
        self.ratios = self.sums / self.bounds

    @property
    def spread(self):
        return float(np.max(self.ratios) / np.min(self.ratios))

    def to_tsv(self, path):
        write_rows(path, "lag\tsum\tbound\tratio\n", "%d\t%.12g\t%.12g\t%.12g\n",
                   self.lags, self.sums, self.bounds, self.ratios)


def _lemma_bound(gamma, d):
    """Three-branch bound on the (gamma, gamma) cross sum at lag d: power
    below gamma = 1, log at it, d^(-gamma) above."""
    if gamma < 1.0:
        return d ** (1.0 - 2.0 * gamma)
    if gamma == 1.0:
        return math.log(d + 1.0) / d
    return d ** -gamma


def verify_kernel_bound(gamma, lag_max, radius, mixed=False):
    """Ratio report of the cross sum against the matching analytic envelope.

    With mixed=False the (gamma, gamma) sum is compared against the
    three-branch bound; with mixed=True the (gamma, 2*gamma) sum is compared
    against d^(-gamma) (valid for gamma < 1).
    """
    if gamma <= 0.5:
        raise DomainError("gamma must exceed 1/2")
    if mixed and gamma >= 1.0:
        raise DomainError("mixed bound requires gamma in (1/2, 1)")
    if lag_max < 2:
        raise DomainError("lag_max must be >= 2")
    if radius < 2 * lag_max:
        raise DomainError(f"radius {radius} must be >= 2*lag_max = {2 * lag_max}")
    lags = range(2, lag_max + 1)
    sums = _cross_sums(gamma, 2.0 * gamma if mixed else gamma, lag_max, radius)
    # numpy's scalar power for the mixed bound: Python's `**` on the same
    # lags differs from it in the last bit at about 5% of lags
    bounds = np.array([d ** -gamma if mixed else _lemma_bound(gamma, int(d))
                       for d in np.asarray(lags)])
    return BoundReport(gamma=gamma, mixed=mixed, lags=lags, sums=sums, bounds=bounds)
