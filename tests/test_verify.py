import math
import os

import numpy as np
import pytest

from marcz import (CoefficientSpec, InnovationSpec, ProcessConfig, coefficient_array,
                   sample, simulate_paths)
from marcz.errors import ConfigurationError
from marcz.verify import _ratio_medians, ht_ratio_medians, lrd_ratio_medians, tensor_suite

import oracles


def _full_trace_medians(draw, mean_abs, n, reps, seed, p_values, compare_at):
    """The known-mean ratio read off whole traces, one per rep and p."""
    ratios = {p: [] for p in p_values}
    for r in range(reps):
        x = draw(seed * 100003 + r)
        for p in p_values:
            f = oracles.trace(x, 1, 1.0 / p, mu=0.0, m=mean_abs)
            ratios[p].append(f[n - 1] / f[compare_at - 1])
    return {p: float(np.median(v)) for p, v in ratios.items()}


def _pareto_draw(n):
    innov = InnovationSpec("symmetric_pareto", 1.5)
    return lambda sd: sample(innov, n, sd)


def _lrd_draw(n):
    spec = CoefficientSpec(sigma=0.8, window=2 ** 9)
    cfg = ProcessConfig(s=1, coeffs=(spec,), innov=InnovationSpec("gaussian"),
                        length=n, window=2 ** 9)
    return lambda sd: simulate_paths(cfg, sd).x[0]


@pytest.mark.parametrize("draw,mean_abs", [(_pareto_draw, 3.0), (_lrd_draw, 2.5)])
@pytest.mark.parametrize("n,compare_at", [(2 ** 13, 2 ** 10), (2 ** 10 + 1, 2 ** 10)])
def test_ratio_medians_match_full_traces(draw, mean_abs, n, compare_at):
    args = (draw(n), mean_abs, n, 5, 3, (1.0, 1.2, 1.3, 1.8, 2.0), compare_at)
    got, want = _ratio_medians(*args), _full_trace_medians(*args)
    assert list(got) == list(want)
    assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]


@pytest.mark.parametrize("p,reps,n", [
    (0.9, 1, 64), (-1.5, 1, 64), (float("inf"), 1, 64), (float("nan"), 1, 64),
    (1.8, 0, 64), (1.8, 1, 16), (1.8, 1, 32),
], ids=["0.9", "-1.5", "inf", "nan", "reps_0", "n_below_compare_at", "n_at_compare_at"])
def test_ratio_medians_reject_bad_p(p, reps, n):
    # a p outside [1, inf), no replication, or no point past compare_at = 32,
    # where every ratio f(n)/f(compare_at) would be 1
    with pytest.raises(ConfigurationError):
        _ratio_medians(_pareto_draw(64), 3.0, n, reps, 0, (1.2, p), 32)


@pytest.mark.parametrize("family", ["lrd", "ht"])
def test_forked_reps_match_serial_loop(monkeypatch, family):
    # three usable CPUs are claimed, so that two children draw on any runner;
    # the serial loop draws through simulate_paths and sample themselves
    n, reps, seed, compare_at = 2 ** 12, 7, 5, 2 ** 9
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    if family == "lrd":
        got = lrd_ratio_medians(sigma=0.8, window=2 ** 9, n=n, reps=reps, seed=seed,
                                compare_at=compare_at)
        kern = coefficient_array(CoefficientSpec(sigma=0.8, window=2 ** 9))
        draw, mean_abs = _lrd_draw(n), math.sqrt(2.0 * np.sum(kern ** 2) / math.pi)
    else:
        got = ht_ratio_medians(alpha=1.5, n=n, reps=reps, seed=seed, compare_at=compare_at)
        draw, mean_abs = _pareto_draw(n), 3.0
    assert len(forks) == 2
    want = _full_trace_medians(draw, mean_abs, n, reps, seed, tuple(got), compare_at)
    assert list(got) == list(want)
    assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]


def test_tensor_suite_compares_two_computations():
    # the FFT and direct-sum products differ by rounding, not by nothing:
    # a check value of exactly 0 would mean one path was compared with itself
    (row,) = tensor_suite(n=2 ** 10, window=2 ** 10, seed=0, tol=1e-12).rows
    assert row.name == "product fft vs direct max relative diff"
    assert 0.0 < row.value < 1e-12
