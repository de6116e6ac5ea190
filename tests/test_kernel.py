import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from marcz import CoefficientSpec, coefficient_array, verify_kernel_bound
from marcz.errors import ConfigurationError, DomainError
from marcz.kernel import _NEAR_LAGS, _SERIES_BLOCK, _far_series, _lemma_bound
from marcz.verify import kernel_suite


class TestCoefficient:
    def test_power_evaluation(self):
        arr = coefficient_array(CoefficientSpec(sigma=0.75, window=16))
        assert arr[16 + 16] == pytest.approx(0.125)

    def test_negative_index(self):
        arr = coefficient_array(CoefficientSpec(sigma=1.0, window=4))
        assert arr[4 - 4] == pytest.approx(0.25)

    def test_center_value(self):
        spec = CoefficientSpec(sigma=0.6, center_value=0.25, window=8)
        assert coefficient_array(spec)[8] == 0.25

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            CoefficientSpec(sigma=0.5)
        with pytest.raises(ConfigurationError):
            CoefficientSpec(sigma=1.2)

    @given(st.integers(min_value=-100, max_value=100),
           st.floats(min_value=0.51, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_even_symmetry(self, l, sigma):
        arr = coefficient_array(CoefficientSpec(sigma=sigma, window=100))
        assert arr[100 + l] == arr[100 - l]

    def test_array_matches_scalar(self):
        spec = CoefficientSpec(sigma=0.8, window=50)
        arr = coefficient_array(spec)
        for l in (-50, -3, 0, 1, 50):
            assert arr[l + 50] == oracles.coefficient(spec, l)

    def test_sup_norm(self):
        spec = CoefficientSpec(sigma=0.7, window=200)
        arr = coefficient_array(spec)
        l = np.arange(-200, 201, dtype=np.float64)
        vals = np.abs(l) ** spec.sigma * np.abs(arr)
        assert np.max(vals[l != 0]) == pytest.approx(1.0)


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
        # the oracle at lag 1 (the shipped sums start at lag 2) against an
        # independently recomputed dense sum over l in [-1e6, 1e6]
        assert oracles.cross_sums(2.0, 2.0, [1], 10 ** 6)[0] == pytest.approx(
            0.5797362673929054, abs=1e-9)

    def test_lag_equals_gather(self):
        # the oracle's three dot products against one masked sum over l
        gamma, radius = 0.6, 400
        l = np.arange(-radius, radius + 1, dtype=np.float64)
        for d in (1, 2, 9, 30):
            keep = (l != 0) & (l != d)
            ref = np.sum(np.abs(d - l[keep]) ** -gamma * np.abs(l[keep]) ** -gamma)
            assert oracles.cross_sums(gamma, gamma, [d], radius)[0] == pytest.approx(
                ref, rel=1e-12)

    def test_dominated_by_inner_term(self):
        assert verify_kernel_bound(10.0, 2, 100).sums[0] == pytest.approx(
            1.0000338720417628, rel=1e-12)

    def test_radius_precondition(self):
        for gamma, lag_max, radius in [(2.0, 10, 15),   # radius below 2 * lag_max
                                       (0.5, 10, 100),  # gamma 1/2: the sum diverges
                                       (2.0, 1, 100)]:  # no lag >= 2
            with pytest.raises(DomainError):
                verify_kernel_bound(gamma, lag_max, radius)

    def test_monotone_in_radius(self):
        sums = [verify_kernel_bound(0.8, 2, r).sums[0] for r in (100, 1000, 10000)]
        assert sums[0] < sums[1] < sums[2]

    def test_cauchy_tail_large_gamma(self):
        # increments shrink below 1e-8 past radius 1e5 once the tail exponent
        # sum is comfortably above 1 (gamma = 0.75 gives tail ~ r^(-1/2))
        a = verify_kernel_bound(0.75, 2, 10 ** 5).sums[0]
        b = verify_kernel_bound(0.75, 2, 2 * 10 ** 5).sums[0]
        assert b - a < 1e-2
        a = verify_kernel_bound(1.5, 2, 10 ** 5).sums[0]
        b = verify_kernel_bound(1.5, 2, 2 * 10 ** 5).sums[0]
        assert b - a < 1e-8


@st.composite
def _bound_case(draw):
    mixed = draw(st.booleans())
    gamma = draw(st.floats(min_value=0.5, max_value=1.0 if mixed else 2.0,
                           exclude_min=True, exclude_max=mixed))
    lag_max = draw(st.integers(min_value=2, max_value=300))
    radius = draw(st.integers(min_value=2 * lag_max, max_value=3 * _SERIES_BLOCK))
    return gamma, mixed, lag_max, radius


class TestCrossSumsByFft:
    @given(_bound_case())
    @example((2.0, False, 300, 1000))  # FFT alone, well inside the seam
    @example((0.75, True, 300, _SERIES_BLOCK + 5))  # a far field of one partial block
    @example((1.5, False, 2, _SERIES_BLOCK))  # the shortest transform, then one block
    @example((0.75, False, 300, _NEAR_LAGS * 300))  # FFT alone, up to the seam
    @example((0.75, True, 300, _NEAR_LAGS * 300 + 1))  # a far field of one l
    @example((2.0, False, 300, 3 * _SERIES_BLOCK))  # the most series terms
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_dots(self, case):
        gamma, mixed, lag_max, radius = case
        sums = verify_kernel_bound(gamma, lag_max, radius, mixed=mixed).sums
        ref = oracles.cross_sums(gamma, 2.0 * gamma if mixed else gamma,
                                 range(2, lag_max + 1), radius)
        np.testing.assert_allclose(sums, ref, rtol=1e-11, atol=0)

    def test_full_radius_worst_case(self):
        lags = (2, 3, 10, 100, 500, 999, 1000)
        for name, report in kernel_suite().reports.items():
            gamma_right = 2.0 * report.gamma if report.mixed else report.gamma
            np.testing.assert_allclose(
                report.sums[np.subtract(lags, 2)],
                oracles.cross_sums(report.gamma, gamma_right, lags, 10 ** 6),
                rtol=1e-11, atol=0, err_msg=name)

    def test_far_series_matches_direct_sum(self):
        # the terms |l| > _NEAR_LAGS * lag_max, with l and -l folded, summed
        # directly; the series is kept to rounding, well inside the 1e-11 above
        lag_max, radius = 1000, 10 ** 6
        near = _NEAR_LAGS * lag_max
        l = np.arange(near + 1, radius + 1, dtype=np.float64)
        for gamma_left, gamma_right in [(0.6, 0.6), (2.0, 2.0), (0.75, 1.5)]:
            series = _far_series(gamma_left, gamma_right, lag_max, near, radius)
            for d in (2, 500, 1000):
                ref = np.sum(l ** -gamma_right
                             * ((l - d) ** -gamma_left + (l + d) ** -gamma_left))
                assert series[d - 2] == pytest.approx(ref, rel=1e-13, abs=0)

    def test_memory_bounded(self):
        # numpy reports its buffers to tracemalloc; the two power tables of
        # the direct form take 16 MB at this radius, one FFT over all of it more
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


@pytest.mark.parametrize("kwargs", [{"window": 0}], ids=["window_0"])
def test_coefficient_spec_refusals(kwargs):
    with pytest.raises(ConfigurationError):
        CoefficientSpec(sigma=0.75, **kwargs)
