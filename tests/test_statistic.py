import os
import platform
import string
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import marcz
from marcz import (DEFAULT_EXPONENTS, DEFAULT_S_LIST, InnovationSpec,
                   RunningMeanConfig, Verdict, VerdictTable, convergence_verdict,
                   ewma, marcinkiewicz_trace, sample, tables_from_tsv,
                   verdict_table)
from marcz.errors import ConfigurationError, DomainError, LengthError
from marcz.statistic import (PAPER_LENGTH, THRESHOLDS, TRAILING_OFFSETS, MarcTrace,
                             _partial_sums)

import oracles


def _ewma_loop(x, eps):
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.size):
        out[t] = (1.0 - eps) * out[t - 1] + eps * x[t]
    return out


class TestEwma:
    def test_constant_fixed_point(self):
        x = np.full(100, 3.7)
        assert np.allclose(ewma(x, 0.005), 3.7)

    def test_one_step(self):
        out = ewma(np.array([0.0, 1.0]), 0.5)
        assert np.allclose(out, [0.0, 0.5])

    def test_alternating_converges_to_zero(self):
        x = np.tile([1.0, -1.0], 5000)
        assert abs(ewma(x, 0.005)[-1]) < 0.01

    def test_recursion_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        out = ewma(x, 0.1)
        manual = x[0]
        for t in range(1, 50):
            manual = 0.9 * manual + 0.1 * x[t]
        assert out[-1] == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.005, 0.05, 0.5, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 2601, 20000])
    def test_matches_recurrence(self, eps, n):
        # 20000 points span several blocks at every eps listed
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) ** 3 + 1.0
        ref = _ewma_loop(x, eps)
        out = ewma(x, eps)
        assert out.shape == (n,)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_extreme_eps_finite(self):
        x = np.random.default_rng(5).standard_normal(5000)
        for eps in (1e-12, 1.0 - 1e-15):
            out = ewma(x, eps)
            assert np.all(np.isfinite(out))
            ref = _ewma_loop(x, eps)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_causal_to_the_bit(self):
        # y_k depends on x_1..x_k only: a prefix, in blocks of 5984 at
        # eps = 0.005, gives the bits of the whole series' first k values
        x = 0.01 * np.random.default_rng(3).standard_t(3, 2 ** 16)
        full, trace = ewma(x, 0.005), marcinkiewicz_trace(x, 2, 0.7).f
        for k in (5984, 5985, 11968, 11970, 20000, 40000):
            assert ewma(x[:k], 0.005).tobytes() == full[:k].tobytes(), k
            assert marcinkiewicz_trace(x[:k], 2, 0.7).f.tobytes() == trace[:k].tobytes(), k

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
    def test_same_bits_on_every_blas_kernel(self):
        # OPENBLAS_CORETYPE picks the CPU kernel of an OpenBLAS built with
        # DYNAMIC_ARCH; Prescott runs on every x86-64 CPU. Where numpy's BLAS
        # ignores the variable, both children run the same kernel and agree.
        # The FFT ensemble and the kernel sums are checked too; the direct
        # convolution path of simulate_paths calls BLAS ddot and is not.
        code = (
            "import hashlib, numpy as np\n"
            "from marcz import (CoefficientSpec, InnovationSpec, ProcessConfig,\n"
            "                   simulate_paths, verdict_table, verify_kernel_bound)\n"
            "x = 0.01 * np.random.default_rng(3).standard_t(3, 2 ** 16)\n"
            "t = verdict_table(x, proportional=True, collect_traces=True)\n"
            "h = hashlib.sha256(t.to_json().encode())\n"
            "for tr in t.traces.values():\n"
            "    h.update(tr.f.tobytes())\n"
            "spec = CoefficientSpec(sigma=0.8, window=2 ** 12)\n"
            "cfg = ProcessConfig(s=2, coeffs=(spec, spec), innov=InnovationSpec('student_t', 3.0),\n"
            "                    sharing='independent', length=2 ** 12, window=2 ** 12)\n"
            "ens = simulate_paths(cfg, 1)\n"
            "h.update(ens.x.tobytes() + ens.d.tobytes())\n"
            "h.update(verify_kernel_bound(0.75, 1000, 10 ** 6).sums.tobytes())\n"
            "print(h.hexdigest())\n")
        root = os.path.dirname(os.path.dirname(marcz.__file__))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
        digests = [subprocess.run([sys.executable, "-c", code], env=e, check=True,
                                  capture_output=True, text=True).stdout
                   for e in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})]
        assert digests[0] == digests[1]


class TestTrace:
    def test_zero_series(self):
        tr = marcinkiewicz_trace(np.zeros(1000), 1, 0.8)
        assert np.all(tr.f == 0)

    def test_reconstruction(self):
        # running means from the plain recurrence, not the blocked ewma
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        cfg = RunningMeanConfig()
        tr = marcinkiewicz_trace(x, 2, 0.7, cfg)
        mu = _ewma_loop(x, cfg.epsilon)
        m = _ewma_loop(np.abs(x - mu) ** 2, cfg.rho)
        rebuilt = oracles.trace(x, 2, 0.7, mu=mu, m=m)
        assert np.max(np.abs(rebuilt - tr.f)) < 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3000)
        lam = 3.5
        a = marcinkiewicz_trace(x, 2, 0.8)
        b = marcinkiewicz_trace(lam * x, 2, 0.8)
        mask = a.f > 1e-12
        assert np.allclose(b.f[mask] / a.f[mask], lam ** 2)
        va = convergence_verdict(a)
        vb = convergence_verdict(b)
        assert va.outcome == vb.outcome

    def test_known_mean_mode(self):
        # the constant-centring oracle that the verify medians are checked with
        assert np.all(oracles.trace(np.ones(100), 1, 1.0, mu=0.0, m=1.0) == 0)
        x = [0.5, -2.0, 1.25, -0.75, 3.0]
        f = oracles.trace(x, 2, 0.5, mu=0.25, m=1.5)
        total, want = 0.0, []
        for k, v in enumerate(x, 1):
            total += abs(v - 0.25) ** 2 - 1.5
            want.append(abs(total) / k ** 0.5)
        assert np.allclose(f, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = sample(InnovationSpec("gaussian"), 2601, 0)
        x[1300] = bad
        with pytest.raises(DomainError):
            marcinkiewicz_trace(x, 1, 0.8)
        with pytest.raises(DomainError):
            verdict_table(x)

    def test_two_dimensional_rejected(self):
        x = sample(InnovationSpec("gaussian"), 2 * 2601, 0).reshape(2601, 2)
        with pytest.raises(DomainError):
            marcinkiewicz_trace(x, 1, 0.8)
        with pytest.raises(DomainError):
            verdict_table(x)

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            marcinkiewicz_trace(np.ones(10), 1, 1.5)

    @pytest.mark.parametrize("s,e", [(1.5, 0.8), (np.float64(2.0), 0.8), (0, 0.8),
                                     (1, 0.0), (1, 1.5), (1, float("nan"))])
    def test_cell_checked_as_a_grid(self, s, e):
        with pytest.raises(ConfigurationError):
            VerdictTable(label="x", s_list=(s,), exponent_list=(e,))
        with pytest.raises(ConfigurationError):
            marcinkiewicz_trace(np.ones(10), s, e)

    def test_slln_trace_decays(self):
        # i.i.d. gaussian at p=1: the trace should head to zero for most seeds
        wins = 0
        for seed in range(32):
            x = sample(InnovationSpec("gaussian"), 2601, seed)
            tr = marcinkiewicz_trace(x, 1, 1.0)
            quarter = tr.f[2601 - 650:].mean()
            first = tr.f[600:1250].mean()
            wins += quarter < first
        assert wins > 16

    def test_clt_divergence_at_half(self):
        # p = 2 must diverge for i.i.d. noise
        outcomes = []
        for seed in range(32):
            x = sample(InnovationSpec("gaussian"), 2601, seed)
            tr = marcinkiewicz_trace(x, 1, 0.5)
            outcomes.append(convergence_verdict(tr).outcome)
        assert outcomes.count("Diverges") > 16


class TestVerdictRule:
    def test_decaying_trace_converges(self):
        f = 1.0 / np.arange(1, 2602, dtype=float)
        tr = marcinkiewicz_trace(np.zeros(2601), 1, 0.5)
        tr.f = f
        assert convergence_verdict(tr).outcome == "Converges"

    def test_constant_trace_diverges(self):
        tr = marcinkiewicz_trace(np.zeros(2601), 1, 0.5)
        tr.f = np.ones(2601)
        assert convergence_verdict(tr).outcome == "Diverges"

    def test_increasing_trace_diverges(self):
        tr = marcinkiewicz_trace(np.zeros(2601), 1, 0.5)
        tr.f = np.arange(2601, dtype=float)
        assert convergence_verdict(tr).outcome == "Diverges"

    def test_zero_trace_converges(self):
        tr = marcinkiewicz_trace(np.zeros(2601), 1, 0.5)
        assert convergence_verdict(tr).outcome == "Converges"

    def test_nan_trace_rejected(self):
        tr = marcinkiewicz_trace(np.zeros(2601), 1, 0.5)
        tr.f = np.full(2601, np.nan)
        with pytest.raises(DomainError, match="no verdict for s = 1"):
            convergence_verdict(tr)

    def test_short_trace_error(self):
        tr = marcinkiewicz_trace(np.zeros(100), 1, 0.5)
        with pytest.raises(LengthError):
            convergence_verdict(tr)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4,
                    max_size=200))
    # a subnormal tail mean as the divisor of a ratio
    @example([1.0, 2.225073858507e-311, 0.0, 0.0])
    @example([0.0, 1.0, 2.225073858507e-311, 0.0])
    @settings(max_examples=50, deadline=None)
    def test_means_are_tail_averages(self, values):
        tr = marcinkiewicz_trace(np.zeros(len(values)), 1, 0.5)
        tr.f = np.array(values)
        v = convergence_verdict(tr, RunningMeanConfig(start=1), offsets=(1, 2))
        means = (v.mean_whole, v.mean_half, v.mean_quarter)
        for mean, tail in zip(means, (tr.f, tr.f[1:], tr.f[2:])):
            assert mean == pytest.approx(np.mean(tail), abs=1e-9)


class TestWhatTheTraceMeasures:
    """The summand r_j - m_j, with m the EWMA of the residual r, equals
    ((1 - rho)/rho)(m_j - m_{j-1}), so the partial sum telescopes to
    ((1 - rho)/rho)|m_k - m_1|, and the rule reads that curve under k^(-e)."""

    @given(st.sampled_from(["student_t", "gaussian", "signed_lomax"]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3]),
           st.floats(min_value=0.001, max_value=0.1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_partial_sum_telescopes(self, family, seed, s, rho):
        rng = np.random.default_rng(seed)
        x = {"student_t": lambda: 0.01 * rng.standard_t(3, PAPER_LENGTH),
             "gaussian": lambda: rng.standard_normal(PAPER_LENGTH),
             "signed_lomax": lambda: rng.pareto(1.5, PAPER_LENGTH)
             * rng.choice([-1.0, 1.0], PAPER_LENGTH)}[family]()
        r = np.abs(x - ewma(x, RunningMeanConfig().epsilon)) ** s
        m = ewma(r, rho)
        sums = _partial_sums(r, m)
        telescoped = (1.0 - rho) / rho * np.abs(m - m[0])
        # 1.3e-13 was the largest seen over 1500 such series
        assert np.max(np.abs(sums - telescoped)) <= 1e-12 * np.max(sums)

    @pytest.mark.parametrize("n", [PAPER_LENGTH, 2 ** 16], ids=["paper", "proportional_2^16"])
    def test_envelope_exponent_matches_bisection(self, n):
        # the windows verdict_table(proportional=True) uses at n
        factor = n / PAPER_LENGTH
        cfg = RunningMeanConfig(start=round(RunningMeanConfig().start * factor))
        offsets = tuple(round(o * factor) for o in TRAILING_OFFSETS)
        k = np.arange(1, n + 1, dtype=np.float64)
        lo, hi = 0.0, 2.0
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            tr = MarcTrace(s=1, exponent=0.5, f=k ** -mid)
            if convergence_verdict(tr, cfg, offsets).outcome == "Converges":
                hi = mid
            else:
                lo = mid
        assert oracles.envelope_exponent(n, cfg.start, offsets) == pytest.approx(hi, abs=1e-11)

    def test_envelope_exponent_value(self):
        # the README's figure: e = 0.5 clears it, so a flat |m_k - m_1| reads C there
        assert round(oracles.envelope_exponent(), 5) == 0.48929


class TestVerdictTable:
    def test_row_monotone(self):
        # no C may appear at a larger p (smaller e) than a D in the same row
        x = sample(InnovationSpec("gaussian"), 2601, 12)
        table = verdict_table(x)
        for s in table.s_list:
            row = table.row(s)
            assert "".join(row) == "D" * row.count("D") + "C" * row.count("C")

    @pytest.mark.parametrize("c", [0.0, 3.7, 0.01, -0.001])
    def test_constant_series_rejected(self, c):
        # f of a constant series is EWMA rounding noise: no verdict
        with pytest.raises(DomainError):
            verdict_table(np.full(2601, c))

    @pytest.mark.parametrize("scale,s_list,first_zero", [(1.0, (1, 2, 400), 400),
                                                          (1e-300, (1, 2, 3), 2)])
    def test_underflowed_residual_rejected(self, scale, s_list, first_zero):
        # |x - mu|^s all 0 gives all-zero sums, which the rule would read as C
        x = sample(InnovationSpec("gaussian"), 2601, 3) * 0.01 * scale
        with pytest.raises(DomainError, match=f"no verdict for s = {first_zero}$"):
            verdict_table(x, s_list)

    def test_partial_underflow_rejected(self):
        # at s = 400 most residuals underflow but not all: the row is refused,
        # while at s = 200 the row keeps the verdicts of the unit-scaled series
        x = sample(InnovationSpec("student_t", 3.0), 2601, 0) * 0.01
        with pytest.raises(DomainError, match="no verdict for s = 400$"):
            verdict_table(x, (200, 400))
        unit = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
        assert verdict_table(x, (200,)).to_tsv() == verdict_table(unit, (200,)).to_tsv()

    @pytest.mark.parametrize("s_list,exponents", [
        ((1, 1), (0.5, 1.0)),
        ((1, 2), (0.5, 0.5)),
        ((1,), (0.5, 0.5000001)),
        ((), (0.5,)),
        ((1,), ()),
        ((0, 1), (0.5,)),
        ((1.5,), (0.5,)),
        ((1,), (0.0,)),
        ((1,), (1.5,)),
        ((1,), (float("nan"),)),
    ])
    def test_bad_grid_rejected(self, s_list, exponents):
        with pytest.raises(ConfigurationError):
            VerdictTable(label="x", s_list=s_list, exponent_list=exponents)
        with pytest.raises(ConfigurationError):
            verdict_table(sample(InnovationSpec("gaussian"), 2601, 0), s_list, exponents)

    @pytest.mark.parametrize("s", [1, 2, True, np.int64(2), np.int32(1), np.uint8(3),
                                   np.int64(0), np.bool_(True), 1.0, np.float64(2.0),
                                   Fraction(1), "1"])
    def test_s_types_as_before(self, s):
        # numbers.Integral accepts exactly what isinstance(s, (int, np.integer)) did
        accepted_before = isinstance(s, (int, np.integer)) and s >= 1
        try:
            VerdictTable(label="x", s_list=(s,), exponent_list=(0.5,))
        except ConfigurationError:
            accepted = False
        else:
            accepted = True
        assert accepted == accepted_before

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=-60, max_value=60))
    @settings(max_examples=50, deadline=None)
    def test_power_of_two_scaling(self, seed, k):
        # scaling by 2^k is exact in floating point, so every cell keeps its
        # letter and its ratios to the bit, and every trace and mean is the
        # unscaled one times 2^(k s)
        x = sample(InnovationSpec("student_t", 3.0), 2601, seed)
        a = verdict_table(x, collect_traces=True)
        b = verdict_table(2.0 ** k * x, collect_traces=True)
        assert b.to_tsv() == a.to_tsv()
        for (s, e), v in a.cells.items():
            w = b.cells[(s, e)]
            assert np.array(w.ratios).tobytes() == np.array(v.ratios).tobytes()
            means = (v.mean_whole, v.mean_half, v.mean_quarter)
            assert (w.mean_whole, w.mean_half, w.mean_quarter) == tuple(
                np.ldexp(means, k * s))
            assert b.traces[(s, e)].f.tobytes() == np.ldexp(a.traces[(s, e)].f, k * s).tobytes()

    @pytest.mark.parametrize("c", [1.0, -3.0, 1e3])
    def test_shift_invariance(self, c):
        # the running mean mu moves with x, so x - mu and the verdicts do not;
        # the traces' low bits move, so a cell whose ratio lies within a
        # relative 1e-9 of its threshold is not compared
        compared = 0
        for seed in range(100):
            x = 0.01 * sample(InnovationSpec("student_t", 3.0), 2601, seed)
            a, b = verdict_table(x), verdict_table(x + c)
            for key, v in a.cells.items():
                w = b.cells[key]
                if any(abs(r / t - 1.0) < 1e-9
                       for u in (v, w) for r, t in zip(u.ratios, THRESHOLDS)):
                    continue
                assert w.letter == v.letter, (seed, key)
                compared += 1
        assert compared > 0.99 * 100 * len(DEFAULT_S_LIST) * len(DEFAULT_EXPONENTS)

    @pytest.mark.parametrize("s_list", [(1, 2, 3), (40,)])
    def test_binary_scale_sweep(self, s_list):
        # from the smallest subnormal to the largest binade: the grid either
        # gives the unscaled verdicts or refuses the row that left the range
        x = sample(InnovationSpec("student_t", 3.0), 2601, 7)
        x /= np.abs(x).max()
        want = verdict_table(x, s_list).to_tsv()
        refused = 0
        for k in (*range(-1074, 1024, 37), -1066, -532, -354):
            try:
                got = verdict_table(np.ldexp(x, k), s_list)
            except DomainError:
                refused += 1
            else:
                assert got.to_tsv() == want, k
        assert 0 < refused < 60

    def test_overflow_rejected(self):
        x = sample(InnovationSpec("student_t", 3.0), 2601, 0) * 1e200
        with pytest.raises(DomainError, match="no verdict for s = 2$"):
            verdict_table(x)
        with pytest.raises(DomainError, match="no verdict for s = 2$"):
            marcinkiewicz_trace(x, 2, 0.7)

    @pytest.mark.parametrize("big,exponents", [(1e306, (0.1,)), (1e308, DEFAULT_EXPONENTS)])
    def test_trailing_mean_overflow_rejected(self, big, exponents):
        # every partial sum stays finite, but the verdict rule's sum of
        # about 2000 values of f does not
        x = sample(InnovationSpec("student_t", 3.0), 2601, 0) * 0.01
        x[700] = big
        with pytest.raises(DomainError, match="no verdict for s = 1$"):
            verdict_table(x, (1,), exponents)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sign_symmetry(self, seed):
        # |x - mu| and every later step are sign-symmetric, so negating the
        # series keeps every trace and the verdicts.json text to the bit
        x = sample(InnovationSpec("student_t", 3.0), PAPER_LENGTH, seed)
        a = verdict_table(x, collect_traces=True)
        b = verdict_table(-x, collect_traces=True)
        assert b.to_json() == a.to_json()
        for key, tr in a.traces.items():
            assert b.traces[key].f.tobytes() == tr.f.tobytes()

    def test_cells_match_trace(self):
        # every cell, and the one-cell trace, against the step-by-step oracle
        cases = [(2601, DEFAULT_S_LIST, DEFAULT_EXPONENTS, False),
                 (2601, (3, 1, 2), (0.9, 0.5, 1.0, 0.6), False),
                 (2 ** 14, (2, 3, 1), (0.7, 0.5, 0.8), True)]
        for n, s_list, exponents, proportional in cases:
            x = sample(InnovationSpec("student_t", 3.0), n, 9)
            table = verdict_table(x, s_list, exponents, proportional=proportional,
                                  collect_traces=True)
            grid = [(s, e) for s in s_list for e in exponents]
            assert list(table.cells) == list(table.traces) == grid
            cfg, offsets = RunningMeanConfig(), TRAILING_OFFSETS
            if proportional:
                factor = n / PAPER_LENGTH
                cfg = RunningMeanConfig(start=round(cfg.start * factor))
                offsets = tuple(round(o * factor) for o in offsets)
            for (s, e), tr in table.traces.items():
                want = oracles.trace(x, s, e)
                assert (tr.s, tr.exponent) == (s, e)
                assert tr.f.tobytes() == want.tobytes()
                assert marcinkiewicz_trace(x, s, e).f.tobytes() == want.tobytes()
                assert table.cells[(s, e)] == convergence_verdict(
                    MarcTrace(s=s, exponent=e, f=want), cfg, offsets)

    @pytest.mark.parametrize("collect,arrays", [(False, 9), (True, 23)])
    def test_grid_memory(self, collect, arrays):
        # the default grid peaks at 7 arrays of n float64 without its traces
        # and 21 with them (15 traces past the 3 row buffers); keeping mu and
        # each row's m alive would add 4
        n = 2 ** 16
        x = sample(InnovationSpec("student_t", 3.0), n, 0)
        tracemalloc.start()
        try:
            verdict_table(x, collect_traces=collect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays * 8 * n

    @given(st.text(string.ascii_letters + string.digits, min_size=1),
           st.lists(st.integers(min_value=1, max_value=9), min_size=1, unique=True),
           st.lists(st.sampled_from(DEFAULT_EXPONENTS), min_size=1, unique=True),
           st.randoms())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tsv_roundtrip(self, tmp_path, label, s_list, exponents, rnd):
        table = VerdictTable(label=label, s_list=tuple(sorted(s_list)),
                             exponent_list=tuple(exponents))
        for s in table.s_list:
            for e in table.exponent_list:
                table.cells[(s, e)] = Verdict(rnd.choice(("Converges", "Diverges")))
        path = tmp_path / "table.tsv"
        path.write_text(table.to_tsv())
        assert tables_from_tsv(path) == [table]

    def test_fixture_parse(self, fixtures_dir):
        tables = tables_from_tsv(f"{fixtures_dir}/table1.tsv")
        assert [t.label for t in tables] == ["Alcoa", "Barrick Gold", "McDonalds"]
        alcoa = tables[0]
        assert alcoa.row(1) == ["D", "D", "D", "D", "C", "C"]
        assert tables[1].row(3) == ["D", "D", "D", "D", "C", "C"]
        assert tables[2].row(2) == ["D"] * 6

    @pytest.mark.parametrize("text", [
        "",
        "label\ts\t0.5\t1\n",
        "label\ts\t0.5\t1\nA\tone\tD\tC\n",
        "label\ts\t0.5\t1\nA\t0\tD\tC\n",
        "label\ts\t0.5\t1\nA\t1\tD\tX\n",
        "label\ts\t0.5\t1\nA\t1\tD\n",
        "label\ts\t0.5\t1\nA\n",
        "label\ts\t0.5\t1\nA\t1\tD\tC\nA\t1\tD\tD\n",
        "label\ts\t0.5\thalf\nA\t1\tD\tC\n",
        "label\ts\t0.5\t1.5\nA\t1\tD\tC\n",
        "label\ts\t0.5\t0.5\nA\t1\tD\tC\n",
        "label\ts\nA\t1\n",
    ])
    def test_malformed_tsv_rejected(self, tmp_path, text):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            tables_from_tsv(path)

    def test_letter_property(self):
        assert Verdict(outcome="Converges").letter == "C"
        assert Verdict(outcome="Diverges").letter == "D"


@pytest.mark.parametrize("call,error", [
    (lambda: RunningMeanConfig(epsilon=0.0), ConfigurationError),
    (lambda: RunningMeanConfig(epsilon=1.0), ConfigurationError),
    (lambda: RunningMeanConfig(rho=0.0), ConfigurationError),
    (lambda: RunningMeanConfig(rho=1.0), ConfigurationError),
    (lambda: RunningMeanConfig(start=0), ConfigurationError),
    (lambda: ewma(np.array([]), 0.005), LengthError),
], ids=["epsilon_0", "epsilon_1", "rho_0", "rho_1", "start_0", "ewma_empty"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
