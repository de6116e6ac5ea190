import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marcz import (CoefficientSpec, InnovationSpec, ProcessConfig,
                   coefficient_array, linproc, sample, simulate_paths,
                   simulate_tensor_paths, truncation_error_bound)
from marcz.errors import ConfigurationError, DomainError, SizeError
from marcz.kernel import _fft_length
from marcz.linproc import (_fft_convolve_valid, _kernel_spectrum, ensemble_to_binary,
                           ensemble_to_tsv)


def _config(s=1, sigma=0.75, n=2 ** 10, window=2 ** 10, sharing="shared",
            innov=None):
    specs = tuple(CoefficientSpec(sigma=sigma, window=window) for _ in range(s))
    return ProcessConfig(s=s, coeffs=specs,
                         innov=innov or InnovationSpec("gaussian"),
                         sharing=sharing, length=n, window=window)


class TestSimulate:
    def test_determinism(self):
        cfg = _config()
        a = simulate_paths(cfg, 17)
        b = simulate_paths(cfg, 17)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.d, b.d)

    def test_zero_innovations(self, monkeypatch):
        monkeypatch.setattr(linproc, "sample",
                            lambda spec, count, seed, stream: np.zeros(count))
        ens = simulate_paths(_config(), 0)
        assert np.all(ens.x == 0)

    def test_shared_components_equal(self):
        ens = simulate_paths(_config(s=2, sigma=0.8), 3)
        assert np.array_equal(ens.x[0], ens.x[1])

    def test_shared_component_convolved_once(self, monkeypatch):
        calls = []

        def counting(xi, kern_spectrum, kern_size):
            calls.append(1)
            return _fft_convolve_valid(xi, kern_spectrum, kern_size)

        cfg = _config(s=2, sigma=0.8)
        monkeypatch.setattr(linproc, "_fft_convolve_valid", counting)
        ens = simulate_paths(cfg, 3)
        assert len(calls) == 1
        # the same path as when both components are convolved: independent
        # streams that all draw the shared stream's innovations
        xi = sample(cfg.innov, cfg.length + 2 * cfg.window, 3)
        monkeypatch.setattr(linproc, "sample", lambda spec, count, seed, stream: xi)
        both = simulate_paths(_config(s=2, sigma=0.8, sharing="independent"), 3)
        assert len(calls) == 3
        assert np.array_equal(ens.x, both.x)
        assert np.array_equal(ens.d, both.d)

    def test_independent_components_differ(self):
        ens = simulate_paths(_config(s=2, sigma=0.8, sharing="independent"), 3)
        assert not np.array_equal(ens.x[0], ens.x[1])

    def test_fft_matches_direct(self):
        cfg = _config(n=2 ** 10, window=2 ** 10)
        a = simulate_paths(cfg, 5, method="fft")
        b = simulate_paths(cfg, 5, method="direct")
        scale = np.max(np.abs(b.x))
        assert np.max(np.abs(a.x - b.x)) / scale < 1e-10

    def test_variance_oracle(self):
        spec = CoefficientSpec(sigma=0.75, window=2 ** 12)
        cfg = ProcessConfig(s=1, coeffs=(spec,), innov=InnovationSpec("gaussian"),
                            sharing="shared", length=2 ** 12, window=2 ** 12)
        target = np.sum(coefficient_array(spec) ** 2)
        est = np.mean([np.mean(simulate_paths(cfg, 100 + r).x[0] ** 2)
                       for r in range(64)])
        assert est == pytest.approx(target, rel=0.05)

    def test_moment_warning(self):
        cfg = _config(innov=InnovationSpec("symmetric_pareto", 1.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported by the config only
            simulate_paths(cfg, 0)
        assert cfg.moment_warnings() == [
            "innovation tail index 1.5 <= s v 2 = 2; moment condition for the "
            "product rate violated (stress-test regime)"]

    def test_bad_length(self):
        with pytest.raises(ConfigurationError):
            _config(n=0)

    @pytest.mark.parametrize("coeff_window", [2 ** 9, 2 ** 11])
    def test_one_window(self, coeff_window):
        # M is one value: every coefficient spec carries the simulation's window
        spec = CoefficientSpec(sigma=0.75, window=coeff_window)
        with pytest.raises(ConfigurationError, match="differs from the simulation window"):
            ProcessConfig(s=1, coeffs=(spec,), innov=InnovationSpec("gaussian"),
                          length=2 ** 10, window=2 ** 10)


class TestProducts:
    def test_s1_identity(self):
        ens = simulate_paths(_config(), 1)
        assert np.array_equal(ens.d, ens.x[0])

    def test_shared_square_nonnegative(self):
        ens = simulate_paths(_config(s=2, sigma=0.8), 2)
        assert np.all(ens.d >= 0)
        assert np.allclose(ens.d, ens.x[0] ** 2)

    def test_zero_component_annihilates(self, monkeypatch):
        monkeypatch.setattr(linproc, "sample", lambda spec, count, seed, stream:
                            np.zeros(count) if stream == 1 else np.ones(count))
        ens = simulate_paths(_config(s=3, sigma=0.8, sharing="independent"), 0)
        assert np.all(ens.d == 0)


class TestFftConvolve:
    def test_length_is_5_smooth_and_minimal(self):
        smooth = [v for v in range(1, 3001) if _is_5_smooth(v)]
        for target in range(1, 2801):
            assert _fft_length(target) == next(v for v in smooth if v >= target)

    @pytest.mark.parametrize("n,m", [(7, 1), (7, 7), (97, 31), (1001, 333),
                                     (2049, 513)])
    def test_matches_direct(self, n, m):
        assert _fft_length(n) > n  # odd sizes exercise the padded length
        rng = np.random.default_rng(n)
        xi, kern = rng.standard_normal(n), rng.standard_normal(m)
        ref = np.convolve(xi, kern, "valid")
        out = _convolve(xi, kern)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rows(self):
        rng = np.random.default_rng(3)
        xi, kern = rng.standard_normal((3, 301)), rng.standard_normal(101)
        out = _convolve(xi, kern)
        assert out.shape == (3, 201)
        for row, got in zip(xi, out):
            ref = np.convolve(row, kern, "valid")
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestKernelSpectrum:
    @given(st.lists(st.tuples(st.floats(0.51, 1.0), st.integers(1, 200),
                              st.integers(1, 64)), min_size=1, max_size=3),
           st.lists(st.integers(0, 2), min_size=2, max_size=8),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_fft_matches_direct(self, cases, order, seed):
        # consecutive repeats in `order` hit the cached spectrum, the rest miss
        first = {}
        for i in order:
            sigma, n, window = cases[i % len(cases)]
            cfg = _config(sigma=sigma, n=n, window=window)
            fft = simulate_paths(cfg, seed).x
            direct = simulate_paths(cfg, seed, method="direct").x
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(fft - direct)) / scale < 1e-10
            assert np.array_equal(first.setdefault(i % len(cases), fft), fft)

    def test_read_only_and_keyed_on_every_input(self):
        spec, size = CoefficientSpec(sigma=0.8, window=64), _fft_length(300)
        base = _kernel_spectrum(spec, size)
        assert not base.flags.writeable
        with pytest.raises(ValueError):
            base *= 2.0
        assert _kernel_spectrum(spec, size) is base
        for changed, length in [
                (CoefficientSpec(sigma=0.7, window=64), size),
                (CoefficientSpec(sigma=0.8, center_value=0.5, window=64), size),
                (CoefficientSpec(sigma=0.8, window=32), size),
                (spec, _fft_length(400))]:
            fresh = np.fft.rfft(coefficient_array(changed), length)
            assert np.array_equal(_kernel_spectrum(changed, length), fresh)


def _convolve(xi, kern):
    spectrum = np.fft.rfft(kern, _fft_length(xi.shape[-1]))
    return _fft_convolve_valid(xi, spectrum, kern.size)


def _is_5_smooth(v):
    for p in (2, 3, 5):
        while v % p == 0:
            v //= p
    return v == 1


class TestTruncationBound:
    def test_formula(self):
        spec = CoefficientSpec(sigma=0.75, window=10 ** 4)
        assert truncation_error_bound(spec) == pytest.approx(0.04)

    def test_sigma_one(self):
        spec = CoefficientSpec(sigma=1.0, window=10 ** 4)
        assert truncation_error_bound(spec) == pytest.approx(2e-4)

    def test_boundary_divergence(self):
        from types import SimpleNamespace
        spec = SimpleNamespace(sigma=0.5, window=10 ** 4)
        with pytest.raises(DomainError):
            truncation_error_bound(spec)


class TestAutocovariance:
    def test_lrd_decay_slope(self):
        sigma = 0.7
        spec = CoefficientSpec(sigma=sigma, window=2 ** 12)
        cfg = ProcessConfig(s=1, coeffs=(spec,), innov=InnovationSpec("gaussian"),
                            sharing="shared", length=2 ** 13, window=2 ** 12)
        lags = np.arange(8, 65)
        acc = np.zeros(lags.size)
        reps = 32
        for r in range(reps):
            x = simulate_paths(cfg, 3000 + r).x[0]
            for i, h in enumerate(lags):
                acc[i] += np.mean(x[:-h] * x[h:])
        slope = np.polyfit(np.log(lags), np.log(acc / reps), 1)[0]
        assert slope == pytest.approx(1.0 - 2.0 * sigma, abs=0.15)


class TestExport:
    def test_tsv_layout(self, tmp_path):
        ens = simulate_paths(_config(s=2, sigma=0.8, n=16, window=32), 0)
        out = tmp_path / "ens.tsv"
        ensemble_to_tsv(ens, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k\tx_1\tx_2\td"
        assert len(lines) == 17

    def test_binary_roundtrip(self, tmp_path):
        ens = simulate_paths(_config(s=1, n=64, window=64), 0)
        bin_path, side_path = tmp_path / "e.bin", tmp_path / "e.json"
        ensemble_to_binary(ens, bin_path, side_path)
        meta = json.loads(side_path.read_text())
        block = np.fromfile(bin_path, dtype="<f8").reshape(
            meta["layout"]["rows"], meta["layout"]["cols"])
        assert np.array_equal(block[0], ens.x[0])
        assert np.array_equal(block[-1], ens.d)
        assert meta["seed"] == 0


    def test_binary_holds_one_block(self, tmp_path):
        # the stacked block is already <f8: the write copies it no second time
        ens = simulate_paths(_config(s=2, n=2 ** 15, window=2 ** 10), 0)
        bin_path, side_path = tmp_path / "e.bin", tmp_path / "e.json"
        tracemalloc.start()
        try:
            ensemble_to_binary(ens, bin_path, side_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = np.vstack([ens.x, ens.d[None, :]]).astype("<f8")
        assert bin_path.read_bytes() == block.tobytes()
        assert block.nbytes <= peak < 1.5 * block.nbytes


class TestTensor:
    def test_scalar_degeneracy(self):
        # one engine: at m = d_out = 1 the tensor column is simulate_paths'
        # product, in either stream layout and with sigma per component
        mixed = ProcessConfig(s=2, coeffs=(CoefficientSpec(sigma=0.6, window=2 ** 9),
                                           CoefficientSpec(sigma=0.9, window=2 ** 9)),
                              innov=InnovationSpec("gaussian"), sharing="independent",
                              length=2 ** 9, window=2 ** 9)
        for cfg in (_config(s=2, sigma=0.8, sharing="shared"),
                    _config(s=2, sigma=0.8, sharing="independent"), mixed):
            tens = simulate_tensor_paths(cfg, m=1, d_out=1, seed=3)
            assert tens[:, 0].tobytes() == simulate_paths(cfg, 3).d.tobytes()

    def test_trace_decreasing_inside_bound(self):
        finals, mids = [], []
        n = 2 ** 13
        cfg = _config(s=2, sigma=0.8, n=n, window=2 ** 12, sharing="independent")
        for r in range(16):
            tens = simulate_tensor_paths(cfg, m=2, d_out=2, seed=100 + r)
            assert tens.shape == (n, 2 ** 2)  # n x d_out^s
            # k^(-1/p) * ||sum_{j<=k} (T_j - mean T)||_F at p = 1.2
            centred = tens - tens.mean(axis=0)
            k = np.arange(1, n + 1, dtype=np.float64)
            trace = np.linalg.norm(np.cumsum(centred, axis=0), axis=1) * k ** (-1.0 / 1.2)
            mids.append(trace[n // 8 - 1])
            finals.append(trace[-1])
        assert np.median(np.array(finals) / np.array(mids)) < 1.0

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 10: the tensor path is rank one; its d_out x m "
                              "pattern of equal entries gives every coordinate the same "
                              "scalar process, so all d_out^s entries are equal")
    def test_coordinates_differ(self):
        for sharing in ("shared", "independent"):
            cfg = _config(s=2, sigma=0.8, sharing=sharing)
            tens = simulate_tensor_paths(cfg, m=3, d_out=2, seed=3)
            assert tens.shape == (cfg.length, 2 ** 2)
            assert len({tens[:, j].tobytes() for j in range(tens.shape[1])}) > 1, sharing

    def test_memory_cap(self):
        with pytest.raises(SizeError):
            simulate_tensor_paths(_config(s=4, sigma=0.8, n=8, window=8),
                                  m=2, d_out=100, seed=0)


@pytest.mark.parametrize("call", [
    lambda: ProcessConfig(s=0, coeffs=(), innov=InnovationSpec("gaussian")),
    lambda: ProcessConfig(s=2, coeffs=(CoefficientSpec(0.75),),
                          innov=InnovationSpec("gaussian")),
    lambda: _config(sharing="mixed"),
    lambda: simulate_paths(_config(), 0, method="nope"),
], ids=["s_0", "coefficient_count", "sharing", "method"])
def test_refusals(call):
    with pytest.raises(ConfigurationError):
        call()
