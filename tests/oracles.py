"""Reference forms the tests compare the library against: the statistic
rebuilt step by step with plain numpy, the verdict rule's envelope exponent,
the scalar coefficient, the kernel cross sum as direct dot products, and the
Hill tail-index estimator."""

import math

import numpy as np

from marcz.statistic import (PAPER_LENGTH, THRESHOLDS, TRAILING_OFFSETS,
                             RunningMeanConfig, ewma)


def trace(x, s, exponent, cfg=RunningMeanConfig(), mu=None, m=None):
    """f(k) = k^(-exponent) * |sum_{j<=k} (|x_j - mu_j|^s - m_j)|.

    mu and m default to the running means of the published procedure
    (ewma of x, then of the residual). A scalar gives constant (known-mean)
    centring, and a length-n array any other centring trace.
    """
    x = np.asarray(x, dtype=np.float64)
    if mu is None:
        mu = ewma(x, cfg.epsilon)
    residual = np.abs(x - mu) ** s
    if m is None:
        m = ewma(residual, cfg.rho)
    k = np.arange(1, x.size + 1, dtype=np.float64)
    return np.abs(np.cumsum(residual - m)) / k ** exponent


def envelope_exponent(n=PAPER_LENGTH, start=RunningMeanConfig().start,
                      offsets=TRAILING_OFFSETS):
    """The least beta for which the verdict rule reads the pure power
    f(k) = k^(-beta), k = 1..n, as Converges: the larger root of
    mean(whole)/mean(half) = THRESHOLDS[0] and mean(half)/mean(quarter) =
    THRESHOLDS[1], with the tails from k = start, start + offsets[0] and
    start + offsets[1]. Each root comes from Newton's method on the log
    ratio of the exact sums."""
    logk = np.log(np.arange(1, n + 1, dtype=np.float64))
    whole, half, quarter = (start - 1 + o for o in (0, *offsets))

    def root(a, b, threshold):
        beta = 0.5
        for _ in range(20):
            wa, wb = np.exp(-beta * logk[a:]), np.exp(-beta * logk[b:])
            g = math.log(wa.mean() / wb.mean() / threshold)
            beta -= g / ((logk[b:] @ wb) / wb.sum() - (logk[a:] @ wa) / wa.sum())
        return beta

    return max(root(whole, half, THRESHOLDS[0]), root(half, quarter, THRESHOLDS[1]))


def coefficient(spec, l):
    """c_l of the symmetric family, one index at a time: center_value at
    l = 0, else |l|^(-sigma)."""
    if l == 0:
        return spec.center_value
    return abs(l) ** -spec.sigma


def cross_sums(gamma_left, gamma_right, lags, radius):
    """For each lag d >= 1 of `lags`, the sum over l in [-radius, radius]
    minus {0, d} of |d-l|^(-gamma_left) * |l|^(-gamma_right), as three dot
    products over l < 0, 0 < l < d and l > d of one power table per exponent."""
    m = np.arange(radius + max(lags) + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        pw_left, pw_right = m ** -gamma_left, m ** -gamma_right
    out = []
    for d in lags:
        s = np.dot(pw_left[d + 1:d + radius + 1], pw_right[1:radius + 1])
        if d > 1:
            s += np.dot(pw_left[1:d][::-1], pw_right[1:d])
        s += np.dot(pw_left[1:radius - d + 1], pw_right[d + 1:radius + 1])
        out.append(float(s))
    return np.array(out)


def hill_tail_index(samples, k):
    """Hill's (1975) tail-index estimate from the k largest |x|: the inverse
    mean log ratio of each of them to the (k+1)-th largest."""
    top = np.sort(np.abs(samples))[-(k + 1):]
    return 1.0 / np.mean(np.log(top[1:] / top[0]))


def tail_probe(samples, q, grid):
    """max over grid x of x^q * empirical P(|X| > x): bounded as the grid
    extends when q is below the tail index, growing when above it."""
    absx = np.sort(np.abs(samples))
    exceed = absx.size - np.searchsorted(absx, np.asarray(grid), side="right")
    return float(np.max(np.asarray(grid) ** q * exceed / absx.size))
