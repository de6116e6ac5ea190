"""Reference forms of the statistic, rebuilt step by step with plain numpy
for the tests to compare the library's grid engine against."""

import numpy as np

from marcz.statistic import RunningMeanConfig, ewma


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
