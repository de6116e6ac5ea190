import math

import numpy as np
import pytest

from marcz import (InnovationSpec, empirical_tail_check, family_variance,
                   sample, tail_coefficient)
from marcz.errors import ConfigurationError
from marcz.innovations import _rng, spec_from_config


class TestSpec:
    def test_tail_coefficients(self):
        assert tail_coefficient(InnovationSpec("gaussian")) == math.inf
        assert tail_coefficient(InnovationSpec("symmetric_pareto", 1.5)) == 1.5
        assert tail_coefficient(InnovationSpec("student_t", 3.0)) == 3.0

    def test_invalid_family(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec("cauchy")

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            InnovationSpec("symmetric_pareto", -1.0)
        with pytest.raises(ConfigurationError):
            InnovationSpec("student_t")

    def test_config_roundtrip(self):
        for cfg, spec in (
                ({"family": "gaussian", "scale": 2.0}, InnovationSpec("gaussian", scale=2.0)),
                ({"family": "symmetric_pareto", "alpha": 1.5},
                 InnovationSpec("symmetric_pareto", 1.5)),
                ({"family": "student_t", "alpha": 4, "scale": 0.5},
                 InnovationSpec("student_t", 4.0, scale=0.5))):
            back = spec_from_config(cfg)
            assert back.family == spec.family
            assert back.scale == spec.scale
            if spec.family != "gaussian":
                assert back.df_or_alpha == spec.df_or_alpha


def _sample_out_of_place(spec, count, seed, stream):
    """sample() with a fresh array per step, the reference for its bits."""
    rng = _rng(seed, stream)
    if spec.family == "gaussian":
        mag = np.abs(rng.standard_normal(count)) * spec.scale
    elif spec.family == "student_t":
        mag = np.abs(rng.standard_t(spec.df_or_alpha, size=count)) * spec.scale
    else:
        mag = spec.scale * rng.random(count) ** (-1.0 / spec.df_or_alpha)
    return mag * np.where(rng.random(count) < 0.5, 1.0, -1.0)


@pytest.mark.parametrize("spec", [
    InnovationSpec("gaussian", scale=2.0), InnovationSpec("student_t", 3.0, scale=0.5),
    InnovationSpec("symmetric_pareto", 1.5), InnovationSpec("symmetric_pareto", 1.0),
    InnovationSpec("symmetric_pareto", 2.0, scale=3.0)])
def test_in_place_sample_matches_reference(spec):
    got = sample(spec, 4097, 11, stream=2)
    assert got.tobytes() == _sample_out_of_place(spec, 4097, 11, 2).tobytes()


class TestSample:
    def test_reproducible(self):
        spec = InnovationSpec("symmetric_pareto", 1.5)
        a = sample(spec, 1000, 42)
        b = sample(spec, 1000, 42)
        assert np.array_equal(a, b)
        c = sample(spec, 1000, 43)
        assert not np.array_equal(a, c)

    def test_gaussian_mean(self):
        x = sample(InnovationSpec("gaussian"), 10 ** 5, 7)
        assert abs(x.mean()) < 3 * 10 ** -2.5

    def test_sign_balance(self):
        # symmetry: the sign process is a fair coin (CLT band at 4 sigma)
        x = sample(InnovationSpec("symmetric_pareto", 1.5), 10 ** 5, 11)
        frac_pos = np.mean(x > 0)
        assert abs(frac_pos - 0.5) < 4 * 0.5 / math.sqrt(10 ** 5)

    def test_pareto_tail_probability(self):
        # P(|X| > 10) = 10^(-1.5) for the unit-scale alpha=1.5 family
        x = sample(InnovationSpec("symmetric_pareto", 1.5), 10 ** 6, 42)
        p = np.mean(np.abs(x) > 10.0)
        assert p == pytest.approx(10 ** -1.5, rel=0.2)

    def test_pareto_support(self):
        spec = InnovationSpec("symmetric_pareto", 2.0, scale=3.0)
        x = sample(spec, 10 ** 4, 0)
        assert np.min(np.abs(x)) >= 3.0

    def test_pareto_variance(self):
        spec = InnovationSpec("symmetric_pareto", 3.0)
        x = sample(spec, 10 ** 6, 3)
        assert x.var() == pytest.approx(family_variance(spec), rel=0.05)

    def test_student_t_variance(self):
        spec = InnovationSpec("student_t", 8.0)
        x = sample(spec, 10 ** 6, 9)
        assert x.var() == pytest.approx(family_variance(spec), rel=0.05)

    def test_count_validation(self):
        with pytest.raises(ConfigurationError):
            sample(InnovationSpec("gaussian"), 0, 0)


class TestTailCheck:
    def test_all_zero(self):
        assert empirical_tail_check(np.zeros(100), 2.0, [1.0, 2.0]) == 0.0

    def test_subcritical_bounded(self):
        x = sample(InnovationSpec("symmetric_pareto", 1.5), 10 ** 6, 1)
        short = empirical_tail_check(x, 1.4, np.geomspace(1, 30, 20))
        long = empirical_tail_check(x, 1.4, np.geomspace(1, 300, 40))
        # below the tail index the probe stays of order one as the grid extends
        assert long < 3.0 * max(short, 1.0)

    def test_supercritical_grows(self):
        x = sample(InnovationSpec("symmetric_pareto", 1.5), 10 ** 6, 1)
        short = empirical_tail_check(x, 1.6, np.geomspace(1, 10, 10))
        long = empirical_tail_check(x, 1.6, np.geomspace(1, 1000, 40))
        assert long > 1.5 * short

    def test_empty_grid(self):
        with pytest.raises(ConfigurationError):
            empirical_tail_check(np.ones(10), 1.0, [])
