"""Numeric verification suites: kernel-sum bounds, Monte Carlo strong-law
behaviour, and the product path by FFT against direct sums. Shared between
the CLI and the acceptance tests."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .innovations import InnovationSpec, sample
from .kernel import CoefficientSpec, coefficient_array, verify_kernel_bound
from .linproc import DEFAULT_WINDOW, ProcessConfig, _component_paths, simulate_paths
from .statistic import _partial_sums


@dataclass
class CheckRow:
    name: str
    value: float
    limit: float
    comparison: str  # "<" or ">"
    passed: bool


@dataclass
class SuiteResult:
    suite: str
    rows: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)

    def check(self, name, value, limit, comparison):
        passed = value < limit if comparison == "<" else value > limit
        self.rows.append(CheckRow(name, float(value), float(limit), comparison, passed))
        return passed

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_tsv(self, path):
        with open(path, "w") as fh:
            fh.write("check\tvalue\tlimit\tcomparison\tpassed\n")
            for r in self.rows:
                fh.write("%s\t%.12g\t%.12g\t%s\t%s\n" % (
                    r.name, r.value, r.limit, r.comparison, "pass" if r.passed else "FAIL"))


def kernel_suite(radius=10 ** 6, lag_max=1000, gammas=(0.6, 0.75, 1.0, 1.5),
                 mixed_gamma=0.75, spread_limit=10.0):
    """Ratio-spread checks for the same-exponent and mixed-exponent kernel
    cross-sum bounds."""
    result = SuiteResult(suite="kernel")
    for g in gammas:
        report = verify_kernel_bound(g, lag_max, radius)
        result.reports[f"gamma_{g:g}"] = report
        result.check(f"spread gamma={g:g}", report.spread, spread_limit, "<")
    report = verify_kernel_bound(mixed_gamma, lag_max, radius, mixed=True)
    result.reports[f"mixed_gamma_{mixed_gamma:g}"] = report
    result.check(f"spread mixed gamma={mixed_gamma:g}", report.spread,
                 spread_limit, "<")
    return result


def _ratio_medians(draw, mean_abs, n, reps, seed, p_values, compare_at):
    """Median over reps of f(n)/f(compare_at) for the known-mean trace of the
    series draw(rep_seed), per requested p."""
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if n <= compare_at:  # at n == compare_at every ratio is 1
        raise ConfigurationError(f"n={n} must exceed compare_at={compare_at}")
    if not all(0.0 < 1.0 / p <= 1.0 for p in p_values):
        raise ConfigurationError(f"every p must be >= 1 and finite, got {p_values}")
    from .forked import forked_map  # the kernel and tensor suites never load it

    # f(k) = |sum_{j<=k} (|x_j| - mean_abs)| / k^(1/p), read at k = compare_at and n
    def rep_sums(r):
        return _partial_sums(np.abs(draw(seed * 100003 + r)), mean_abs)[[compare_at - 1, n - 1]]

    at = np.array([compare_at, n], dtype=np.float64)
    norms = {p: at ** (1.0 / p) for p in p_values}
    ratios = {p: [] for p in p_values}
    # the reps run across processes, forked before the first draw, so each
    # process builds its own kernel-spectrum cache entry; the ratios and
    # medians are formed here in rep order, as a serial loop would
    for sums in forked_map(rep_sums, range(reps)):
        for p in p_values:
            f_at, f_n = sums / norms[p]
            ratios[p].append(f_n / f_at)
    return {p: float(np.median(v)) for p, v in ratios.items()}


def lrd_ratio_medians(sigma=0.8, window=DEFAULT_WINDOW, n=2 ** 16, reps=32, seed=0,
                      p_values=(1.2, 1.8), compare_at=2 ** 12):
    """Median over replications of f(n)/f(compare_at) for the known-mean
    trace of a gaussian LRD process, per requested p."""
    spec = CoefficientSpec(sigma=sigma, window=window)
    innov = InnovationSpec(family="gaussian")
    kern = coefficient_array(spec)
    mean_abs = math.sqrt(2.0 * np.sum(kern ** 2) / math.pi)
    cfg = ProcessConfig(s=1, coeffs=(spec,), innov=innov, sharing="shared",
                        length=n, window=window)
    # the component path alone: the x copy and d product of simulate_paths
    # would only raise the peak memory of every process drawing reps
    return _ratio_medians(lambda sd: _component_paths(cfg, 0, sd), mean_abs, n,
                          reps, seed, p_values, compare_at)


def ht_ratio_medians(alpha=1.5, n=2 ** 16, reps=32, seed=0,
                     p_values=(1.3, 1.8), compare_at=2 ** 12):
    """Same diagnostic for i.i.d. symmetric Pareto innovations (degenerate
    linear process: only c_0 = 1)."""
    innov = InnovationSpec(family="symmetric_pareto", df_or_alpha=alpha)
    mean_abs = alpha / (alpha - 1.0) * innov.scale
    return _ratio_medians(lambda sd: sample(innov, n, sd), mean_abs, n, reps,
                          seed, p_values, compare_at)


def mslln_suite(seed=1):
    """Monte Carlo pattern checks over 32 replications at n = 2^16: the
    normalized sums shrink inside the rate bound and stay up outside it."""
    result = SuiteResult(suite="mslln")
    lrd = lrd_ratio_medians(seed=seed)
    result.check("lrd sigma=0.8 median ratio p=1.2", lrd[1.2], 0.5, "<")
    result.check("lrd sigma=0.8 median ratio p=1.8", lrd[1.8], 0.7, ">")
    ht = ht_ratio_medians(seed=seed)
    result.check("ht alpha=1.5 ordering p=1.3 vs p=1.8", ht[1.3], ht[1.8], "<")
    result.check("ht alpha=1.5 median ratio p=1.3", ht[1.3], 1.0, "<")
    result.check("ht alpha=1.5 median ratio p=1.8", ht[1.8], 0.7, ">")
    return result


def tensor_suite(n=2 ** 10, window=2 ** 10, seed=0, tol=1e-12):
    """The s = 2 product path of independent components, computed by FFT
    convolution and by direct sums, agrees to a relative tol."""
    result = SuiteResult(suite="tensor")
    spec = CoefficientSpec(sigma=0.8, window=window)
    cfg = ProcessConfig(s=2, coeffs=(spec, spec), innov=InnovationSpec(family="gaussian"),
                        sharing="independent", length=n, window=window)
    fft = simulate_paths(cfg, seed).d
    direct = simulate_paths(cfg, seed, method="direct").d
    diff = np.max(np.abs(fft - direct))
    scale = max(1.0, float(np.max(np.abs(direct))))
    result.check("product fft vs direct max relative diff", diff / scale, tol, "<")
    return result
