"""Simulation of two-sided linear processes, their s-fold products, and the
tensor-product variant."""

import functools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, SizeError
from .ingest import PAPER_LENGTH, write_rows
from .innovations import InnovationSpec, sample, tail_coefficient
from .kernel import DEFAULT_WINDOW, CoefficientSpec, _fft_length, coefficient_array

TENSOR_ENTRY_CAP = 10 ** 6


@dataclass(frozen=True)
class ProcessConfig:
    s: int
    coeffs: tuple
    innov: InnovationSpec
    sharing: str = "shared"
    length: int = PAPER_LENGTH
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.s < 1:
            raise ConfigurationError(f"s must be >= 1, got {self.s}")
        if len(self.coeffs) != self.s:
            raise ConfigurationError(
                f"need {self.s} coefficient specs, got {len(self.coeffs)}")
        if self.sharing not in ("shared", "independent"):
            raise ConfigurationError(f"unknown sharing mode {self.sharing!r}")
        if self.length < 1:
            raise ConfigurationError(f"length must be >= 1, got {self.length}")
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        for c in self.coeffs:
            if c.window < self.window:
                raise ConfigurationError(
                    "coefficient window smaller than the simulation window")

    def moment_warnings(self):
        """Regularity check: the product rate bound needs E|xi|^(s v 2) finite."""
        need = max(self.s, 2)
        out = []
        if tail_coefficient(self.innov) <= need:
            out.append(
                f"innovation tail index {tail_coefficient(self.innov):g} <= s v 2 = {need}; "
                "moment condition for the product rate violated (stress-test regime)")
        return out


@dataclass
class PathEnsemble:
    x: np.ndarray          # s x n component paths
    d: np.ndarray          # length-n products
    config: ProcessConfig
    seed: int
    truncation_bound: float
    warnings: list = field(default_factory=list)


def truncation_error_bound(spec, M):
    """L2 tail bound on the discarded coefficients per unit innovation
    variance: scale^2 * 2 * M^(1-2*sigma) / (2*sigma - 1)."""
    if spec.sigma <= 0.5:
        raise DomainError("series diverges for sigma <= 0.5")
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    return spec.scale ** 2 * 2.0 * M ** (1.0 - 2.0 * spec.sigma) / (
        2.0 * spec.sigma - 1.0)


@functools.lru_cache(maxsize=1)
def _kernel_spectrum(spec, half_width, size):
    """Read-only rfft(coefficient_array(spec, half_width), size).

    One entry: a Monte Carlo loop repeats the same (spec, window, length)
    for consecutive reps, and each entry holds size/2 + 1 complex values
    (288 KB at n = 2601, window 2^14).
    """
    out = np.fft.rfft(coefficient_array(spec, half_width), size)
    out.flags.writeable = False
    return out


def _fft_convolve_valid(xi, kern_spectrum, kern_size):
    """np.convolve(row, kern, "valid") for each row of xi, via numpy.fft,
    given kern_spectrum = rfft(kern, _fft_length(len(row))) and kern.size.

    A circular convolution of length L >= len(row) wraps only into the first
    len(kern) - 1 outputs, which valid mode discards.
    """
    n = xi.shape[-1]
    size = _fft_length(n)
    prod = np.fft.rfft(xi, size)
    prod *= kern_spectrum
    return np.fft.irfft(prod, size)[..., kern_size - 1:n]


def simulate_paths(config, seed, method="fft"):
    """Simulate the s component paths by truncated convolution.

    Innovations cover indices 1-M .. n+M in one stream per component, so
    overlapping windows share values exactly; components with equal stream
    and spec are computed once.
    """
    n, M = config.length, config.window
    count = n + 2 * M
    x = np.empty((config.s, n))
    first_row = {}  # (stream, coefficient spec) -> row holding that path
    for r in range(config.s):
        stream = 0 if config.sharing == "shared" else r
        key = (stream, config.coeffs[r])
        if key in first_row:
            x[r] = x[first_row[key]]
            continue
        first_row[key] = r
        xi = sample(config.innov, count, seed, stream=stream)
        if method == "fft":
            spectrum = _kernel_spectrum(config.coeffs[r], M, _fft_length(xi.size))
            x[r] = _fft_convolve_valid(xi, spectrum, 2 * M + 1)
        elif method == "direct":
            x[r] = np.convolve(xi, coefficient_array(config.coeffs[r], M), "valid")
        else:
            raise ConfigurationError(f"unknown method {method!r}")
    bound = max(truncation_error_bound(c, M) for c in config.coeffs)
    ens = PathEnsemble(
        x=x, d=np.prod(x, axis=0), config=config, seed=seed,
        truncation_bound=bound, warnings=config.moment_warnings())
    for w in ens.warnings:
        warnings.warn(w, stacklevel=2)
    return ens


def ensemble_to_tsv(ensemble, path):
    s, n = ensemble.x.shape
    header = "k\t" + "".join(f"x_{r + 1}\t" for r in range(s)) + "d\n"
    write_rows(path, header, "%d" + "\t%.17g" * (s + 1) + "\n",
               range(1, n + 1), *ensemble.x, ensemble.d)


def ensemble_to_binary(ensemble, bin_path, sidecar_path):
    """Little-endian float64 block (x rows then d) with a JSON sidecar."""
    block = np.vstack([ensemble.x, ensemble.d[None, :]]).astype("<f8", copy=False)
    block.tofile(bin_path)
    cfg = ensemble.config
    sidecar = {
        "s": cfg.s,
        "length": cfg.length,
        "window": cfg.window,
        "sharing": cfg.sharing,
        "sigmas": [c.sigma for c in cfg.coeffs],
        "scales": [c.scale for c in cfg.coeffs],
        "center_values": [c.center_value for c in cfg.coeffs],
        "innovation": {"family": cfg.innov.family, "scale": cfg.innov.scale,
                       "alpha": None if cfg.innov.family == "gaussian" else cfg.innov.df_or_alpha},
        "seed": ensemble.seed,
        "truncation_bound": ensemble.truncation_bound,
        "layout": {"rows": cfg.s + 1, "cols": cfg.length, "order": "x_1..x_s,d",
                   "dtype": "<f8"},
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)


def _pattern_matrix(d_out, m):
    # fixed unit-Frobenius-norm template
    return np.ones((d_out, m)) / np.sqrt(d_out * m)


def simulate_tensor_paths(m, d_out, s, sigma, innov, n, seed, window=DEFAULT_WINDOW):
    """Tensor products of vector linear processes with matrix coefficients
    C_l = |l|^(-sigma) * P, P a fixed unit-Frobenius pattern.

    Returns the n x d_out^s array of the flattened tensors T_1..T_n. The
    scalar case m = d_out = 1 reproduces the scalar pipeline exactly.
    """
    if d_out ** s > TENSOR_ENTRY_CAP:
        raise SizeError(f"d_out^s = {d_out ** s} exceeds cap {TENSOR_ENTRY_CAP}")
    P = _pattern_matrix(d_out, m)
    count = n + 2 * window
    spectrum = _kernel_spectrum(CoefficientSpec(sigma=float(sigma), window=window),
                                window, _fft_length(count))
    comps = np.empty((s, n, d_out))
    for r in range(s):
        flat = sample(innov, m * count, seed, stream=r)
        xi = flat.reshape(m, count)
        comps[r] = _fft_convolve_valid(xi, spectrum, 2 * window + 1).T @ P.T
    tensors = comps[0]
    for r in range(1, s):
        tensors = np.einsum("ki,kj->kij", tensors.reshape(n, -1), comps[r]).reshape(n, -1)
    return tensors
