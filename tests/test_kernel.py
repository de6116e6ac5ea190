import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marcz import (CoefficientSpec, coefficient, coefficient_array, kernel_cross_sum,
                   verify_kernel_bound)
from marcz.errors import (ConfigurationError, DegeneratePairError, DomainError,
                          OutOfWindowError)
from marcz.kernel import (_FFT_BLOCK, _cross_sum_gather, _cross_sum_lag, _lemma_bound,
                          _powers)


class TestCoefficient:
    def test_power_evaluation(self):
        spec = CoefficientSpec(sigma=0.75)
        assert coefficient(spec, 16) == pytest.approx(0.125)

    def test_negative_index(self):
        spec = CoefficientSpec(sigma=1.0)
        assert coefficient(spec, -4) == pytest.approx(0.25)

    def test_center_value(self):
        spec = CoefficientSpec(sigma=0.6, scale=2.0, center_value=1.0)
        assert coefficient(spec, 0) == 1.0

    def test_out_of_window(self):
        spec = CoefficientSpec(sigma=0.75, window=10)
        with pytest.raises(OutOfWindowError):
            coefficient(spec, 11)

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            CoefficientSpec(sigma=0.5)
        with pytest.raises(ConfigurationError):
            CoefficientSpec(sigma=1.2)

    @given(st.integers(min_value=-100, max_value=100),
           st.floats(min_value=0.51, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_even_symmetry(self, l, sigma):
        spec = CoefficientSpec(sigma=sigma, window=100)
        assert coefficient(spec, l) == coefficient(spec, -l)

    def test_array_matches_scalar(self):
        spec = CoefficientSpec(sigma=0.8, window=50)
        arr = coefficient_array(spec)
        for l in (-50, -3, 0, 1, 50):
            assert arr[l + 50] == coefficient(spec, l)

    def test_sup_norm(self):
        spec = CoefficientSpec(sigma=0.7, scale=1.5, window=200)
        arr = coefficient_array(spec)
        l = np.arange(-200, 201, dtype=np.float64)
        vals = np.abs(l) ** spec.sigma * np.abs(arr)
        assert np.max(vals[l != 0]) == pytest.approx(spec.scale)


class TestLemmaBound:
    # the three branches of the (gamma, gamma) cross-sum bound at lag d
    def test_power_branch(self):
        assert _lemma_bound(0.75, 16) == 0.25  # d^(1 - 2 gamma)

    def test_log_branch(self):
        assert _lemma_bound(1.0, 3) == pytest.approx(math.log(4) / 3)  # log(d+1)/d

    def test_decay_branch(self):
        assert _lemma_bound(1.5, 4) == 0.125  # d^(-gamma)


class TestCrossSum:
    def test_adjacent_pair_brute_force(self):
        # independently recomputed dense sum over l in [-1e6, 1e6]
        assert kernel_cross_sum(1, 0, 2.0, 2.0, 10 ** 6) == pytest.approx(
            0.5797362673929054, abs=1e-9)

    def test_dominated_by_inner_term(self):
        assert kernel_cross_sum(2, 0, 10.0, 10.0, 100) == pytest.approx(
            1.0000338720417628, rel=1e-12)

    def test_lag_equals_gather(self):
        with np.errstate(divide="ignore"):
            pw = np.arange(500, dtype=np.float64) ** -0.6
        pw[0] = 0.0
        for d in (1, 2, 9, 30):
            a = _cross_sum_lag(d, pw, pw, 400)
            b = _cross_sum_gather(d, 0, pw, pw, 400)
            assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            kernel_cross_sum(0, 0, 2.0, 2.0, 100)

    def test_radius_precondition(self):
        with pytest.raises(DomainError):
            kernel_cross_sum(10, 0, 2.0, 2.0, 15)

    def test_translation_invariance(self):
        a = kernel_cross_sum(3, 0, 1.5, 1.5, 5000)
        b = kernel_cross_sum(10, 7, 1.5, 1.5, 5000)
        assert a == pytest.approx(b, rel=1e-6)

    def test_monotone_in_radius(self):
        sums = [kernel_cross_sum(2, 0, 0.8, 0.8, r) for r in (100, 1000, 10000)]
        assert sums[0] < sums[1] < sums[2]

    def test_cauchy_tail_large_gamma(self):
        # increments shrink below 1e-8 past radius 1e5 once the tail exponent
        # sum is comfortably above 1 (gamma = 0.75 gives tail ~ r^(-1/2))
        a = kernel_cross_sum(2, 0, 0.75, 0.75, 10 ** 5)
        b = kernel_cross_sum(2, 0, 0.75, 0.75, 2 * 10 ** 5)
        assert b - a < 1e-2
        a = kernel_cross_sum(2, 0, 1.5, 1.5, 10 ** 5)
        b = kernel_cross_sum(2, 0, 1.5, 1.5, 2 * 10 ** 5)
        assert b - a < 1e-8


def _direct_sums(gamma_left, gamma_right, lag_max, radius):
    # the oracle: three dot products per lag over the full power tables
    m = np.arange(radius + lag_max + 1, dtype=np.float64)
    pw_left, pw_right = _powers(gamma_left, m), _powers(gamma_right, m)
    return np.array([_cross_sum_lag(d, pw_left, pw_right, radius)
                     for d in range(2, lag_max + 1)])


@st.composite
def _bound_case(draw):
    mixed = draw(st.booleans())
    gamma = draw(st.floats(min_value=0.5, max_value=1.0 if mixed else 2.0,
                           exclude_min=True, exclude_max=mixed))
    lag_max = draw(st.integers(min_value=2, max_value=300))
    radius = draw(st.integers(min_value=2 * lag_max, max_value=3 * _FFT_BLOCK))
    return gamma, mixed, lag_max, radius


class TestCrossSumsByFft:
    @given(_bound_case())
    @example((2.0, False, 300, 1000))  # one block, shorter than _FFT_BLOCK
    @example((0.75, True, 300, _FFT_BLOCK + 5))  # 2R+1 not a multiple of the block
    @example((1.5, False, 2, _FFT_BLOCK))  # last block holds l = R alone
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_dots(self, case):
        gamma, mixed, lag_max, radius = case
        sums = verify_kernel_bound(gamma, lag_max, radius, mixed=mixed).sums
        ref = _direct_sums(gamma, 2.0 * gamma if mixed else gamma, lag_max, radius)
        np.testing.assert_allclose(sums, ref, rtol=1e-11, atol=0)

    def test_full_radius_worst_case(self):
        sums = verify_kernel_bound(1.5, 1000, 10 ** 6).sums
        for d in (2, 10, 100, 1000):
            assert sums[d - 2] == pytest.approx(
                kernel_cross_sum(d, 0, 1.5, 1.5, 10 ** 6), rel=1e-11, abs=0)

    def test_memory_bounded(self):
        # numpy reports its buffers to tracemalloc; the two power tables of
        # the direct form take 16 MB at this radius, one unblocked FFT more
        tracemalloc.start()
        try:
            verify_kernel_bound(0.6, 1000, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBoundReport:
    def test_spread_per_gamma(self):
        for gamma in (0.6, 0.75, 1.0, 1.5):
            report = verify_kernel_bound(gamma, 200, 10 ** 5)
            assert report.spread < 10.0, f"gamma={gamma}"

    def test_mixed_spread(self):
        report = verify_kernel_bound(0.75, 200, 10 ** 5, mixed=True)
        assert report.spread < 10.0

    def test_mixed_requires_fractional_gamma(self):
        with pytest.raises(DomainError):
            verify_kernel_bound(1.5, 100, 10 ** 4, mixed=True)

    def test_radius_below_twice_lag_max(self):
        with pytest.raises(DomainError):
            verify_kernel_bound(0.75, 10, 19)
        assert verify_kernel_bound(0.75, 10, 20).lags[-1] == 10

    def test_report_tsv(self, tmp_path):
        report = verify_kernel_bound(0.75, 10, 10 ** 4)
        out = tmp_path / "report.tsv"
        report.to_tsv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "lag\tsum\tbound\tratio"
        assert len(lines) == 1 + 9
