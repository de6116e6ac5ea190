"""Power-law coefficient families and numeric verification of the kernel
cross-sum bounds against the three-branch bound."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .ingest import write_rows


DEFAULT_WINDOW = 2 ** 14  # coefficient truncation window M of the simulations
# the cross sums take |l| <= _NEAR_LAGS * lag_max by FFT, the rest by the
# series in d/l, which converges only for d/l below 1
_NEAR_LAGS = 2
# B_2k / (2k)! for k = 1..8: the Euler-Maclaurin corrections of _power_sum
_BERNOULLI_TERMS = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1))


@dataclass(frozen=True)
class CoefficientSpec:
    """Symmetric coefficient family c_l = |l|^(-sigma), c_0 = center_value."""

    sigma: float
    center_value: float = 1.0
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if not 0.5 < self.sigma <= 1.0:
            raise ConfigurationError(f"sigma must lie in (0.5, 1.0], got {self.sigma}")
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")


def _powers(gamma, lo, hi):
    """|m|^(-gamma) for m = lo..hi, with 0 at m = 0: the excluded terms
    l = d and l = 0 of the cross sum, and the slot of c_0 in coefficient_array."""
    m = np.abs(np.arange(lo, hi + 1, dtype=np.float64))
    with np.errstate(divide="ignore"):
        t = m ** -gamma
    t[m == 0] = 0.0
    return t


def coefficient_array(spec):
    """Dense coefficient vector for l = -M..M, M = spec.window."""
    M = spec.window
    c = _powers(spec.sigma, -M, M)
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


def _fft_convolve_valid(xi, kern_spectrum, kern_size, size):
    """np.convolve(row, kern, "valid") for each row of xi, via numpy.fft, given
    size = _fft_length(len(row)), kern_spectrum = rfft(kern, size) and kern.size.

    A circular convolution of length L >= len(row) wraps only into the first
    len(kern) - 1 outputs, which valid mode discards.
    """
    n = xi.shape[-1]
    prod = np.fft.rfft(xi, size)
    prod *= kern_spectrum
    return np.fft.irfft(prod, size)[..., kern_size - 1:n]


def _fft_cross_sums(gamma_left, gamma_right, lag_max, radius):
    """The sums of _cross_sums for all lags at once: the valid part of the
    linear convolution of A over m = 2-radius..lag_max+radius with B over
    l = -radius..radius, copied so that the transform's buffer is freed."""
    size = _fft_length(lag_max + 2 * radius - 1)
    b = np.fft.rfft(_powers(gamma_right, -radius, radius), size)
    a = _powers(gamma_left, 2 - radius, lag_max + radius)
    return _fft_convolve_valid(a, b, 2 * radius + 1, size).copy()


def _power_sum(a, b, s):
    """Sum of l^(-s) over the integers a <= l <= b, for 1 <= a <= b and s > 1.

    The terms below start = max(a, ceil(2s) + 32) are added one by one, the
    rest by Euler-Maclaurin at both ends with the eight corrections of
    _BERNOULLI_TERMS. The integral start^(1-s) * (1 - (b/start)^(1-s)) / (s-1)
    goes through expm1 and log1p, so it keeps its digits as s -> 1 and as
    b -> start. Since start >= 2(s + 14), the remainder is below
    2 zeta(16) / (2 pi)^16 * 2^-15 < 1.1e-17 of start^(-s), and the cost does
    not depend on b - a.
    """
    start = max(a, math.ceil(2.0 * s) + 32)
    terms = [l ** -s for l in range(a, min(start, b + 1))]
    if start <= b:
        lo, hi = start ** -s, float(b) ** -s
        terms += [-start * lo * math.expm1((1.0 - s) * math.log1p((b - start) / start))
                  / (s - 1.0), (lo + hi) / 2.0]
        lo, hi, rising = lo / start, hi / b, s  # at step k: s (s+1) ... (s+2k)
        for k, bernoulli in enumerate(_BERNOULLI_TERMS):
            terms.append(bernoulli * rising * (lo - hi))
            lo, hi = lo / start ** 2, hi / b / b
            rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
    return math.fsum(terms)


def _far_series(gamma_left, gamma_right, lag_max, near, radius):
    """The terms near < |l| <= radius of the cross sum for d = 2..lag_max,
    where near > lag_max.

    With B even, l and -l fold into l^(-ga-gb) * [(1-d/l)^(-ga) + (1+d/l)^(-ga)],
    whose binomial series keeps the even powers: the sum is
    sum over even j of 2*C(ga+j-1, j) * d^j * Z_j, Z_j = sum_l l^(-(ga+gb+j)),
    each Z_j in closed form by _power_sum. Z_j shrinks by at least (near+1)^2
    per step, so at d = lag_max term j is at most c_j * (lag_max/(near+1))^j
    of term 0; terms are kept until that bound falls below 2^-60.
    """
    x = lag_max / (near + 1)
    coefs, c, j = [2.0], 1.0, 0  # 2*C(ga+j-1, j) for j = 0, 2, 4, ...
    while True:
        c *= (gamma_left + j) * (gamma_left + j + 1) / ((j + 1) * (j + 2))
        j += 2
        if c * x ** j < 2.0 ** -60:
            break
        coefs.append(2.0 * c)
    z = [_power_sum(near + 1, radius, gamma_left + gamma_right + 2 * k)
         for k in range(len(coefs))]
    d_sq = np.arange(2, lag_max + 1, dtype=np.float64) ** 2
    out = np.zeros(lag_max - 1)
    for a in (np.array(coefs) * z)[::-1]:  # Horner in d^2
        out *= d_sq
        out += a
    return out


def _cross_sums(gamma_left, gamma_right, lag_max, radius):
    """Sum over l in [-radius, radius] of A(d-l) * B(l) for d = 2..lag_max,
    with A(m) = |m|^(-gamma_left), B(l) = |l|^(-gamma_right), A(0) = B(0) = 0.

    |l| <= _NEAR_LAGS * lag_max runs through one FFT convolution and the rest,
    where the summand is smooth in d/l, through the even series in d.
    """
    near = min(_NEAR_LAGS * lag_max, radius)
    sums = _fft_cross_sums(gamma_left, gamma_right, lag_max, near)
    if radius > near:
        sums += _far_series(gamma_left, gamma_right, lag_max, near, radius)
    return sums


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
        write_rows(path, "lag\tsum\tbound\tratio\n", self.lags, "\t", 12,
                   self.sums, self.bounds, self.ratios)


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
