"""Simulation of two-sided scalar linear processes and their s-fold
products."""

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .ingest import PAPER_LENGTH, write_rows
from .innovations import InnovationSpec, sample, tail_coefficient
from .kernel import DEFAULT_WINDOW, _fft_convolve_valid, _fft_length, coefficient_array


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
        for c in self.coeffs:
            if c.window != self.window:
                raise ConfigurationError(f"coefficient window {c.window} differs from "
                                         f"the simulation window {self.window}")

    def moment_warnings(self):
        """Regularity check: the product rate bound needs E|xi|^(s v 2) finite."""
        need, tail = max(self.s, 2), tail_coefficient(self.innov)
        if tail > need:
            return []
        return [f"innovation tail index {tail:g} <= s v 2 = {need}; "
                "moment condition for the product rate violated (stress-test regime)"]


@dataclass
class PathEnsemble:
    """The paths simulate_paths drew for `config` and `seed`."""

    x: np.ndarray          # s x n component paths
    d: np.ndarray          # length-n products
    config: ProcessConfig
    seed: int


def truncation_error_bound(spec):
    """L2 tail bound on the coefficients beyond M = spec.window per unit
    innovation variance: 2 * M^(1-2*sigma) / (2*sigma - 1)."""
    if spec.sigma <= 0.5:
        raise DomainError("series diverges for sigma <= 0.5")
    return 2.0 * spec.window ** (1.0 - 2.0 * spec.sigma) / (
        2.0 * spec.sigma - 1.0)


@functools.lru_cache(maxsize=1)
def _kernel_spectrum(spec, size):
    """Read-only rfft(coefficient_array(spec), size).

    One entry: a Monte Carlo loop repeats the same (spec, length) for
    consecutive reps, and each entry holds size/2 + 1 complex values
    (288 KB at n = 2601, window 2^14).
    """
    out = np.fft.rfft(coefficient_array(spec), size)
    out.flags.writeable = False
    return out


def _component_paths(config, r, seed, method="fft"):
    """The length-n path of component r: n + 2M draws of stream 0 if shared
    else r (indices 1-M .. n+M), convolved with config.coeffs[r]."""
    n, M = config.length, config.window
    count = n + 2 * M
    stream = 0 if config.sharing == "shared" else r
    xi = sample(config.innov, count, seed, stream=stream)
    if method == "fft":
        size = _fft_length(count)
        return _fft_convolve_valid(xi, _kernel_spectrum(config.coeffs[r], size), 2 * M + 1, size)
    if method == "direct":
        return np.convolve(xi, coefficient_array(config.coeffs[r]), "valid")
    raise ConfigurationError(f"unknown method {method!r}")


def simulate_paths(config, seed, method="fft"):
    """Simulate the s component paths by truncated convolution; with shared
    streams, components with equal spec are computed once. Moment-condition
    violations are listed by `config.moment_warnings()`."""
    x = np.empty((config.s, config.length))
    first_row = {}  # coefficient spec -> row holding its path, for shared streams
    for r, spec in enumerate(config.coeffs):
        if config.sharing == "shared" and spec in first_row:
            x[r] = x[first_row[spec]]
            continue
        first_row[spec] = r
        x[r] = _component_paths(config, r, seed, method=method)
    return PathEnsemble(x=x, d=np.prod(x, axis=0), config=config, seed=seed)


def ensemble_to_tsv(ensemble, path):
    s, n = ensemble.x.shape
    header = "k\t" + "".join(f"x_{r + 1}\t" for r in range(s)) + "d\n"
    write_rows(path, header, range(1, n + 1), "\t", 17, *ensemble.x, ensemble.d)


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
        "center_values": [c.center_value for c in cfg.coeffs],
        "innovation": {"family": cfg.innov.family, "scale": cfg.innov.scale,
                       "alpha": None if cfg.innov.family == "gaussian" else cfg.innov.df_or_alpha},
        "seed": ensemble.seed,
        "truncation_bound": max(truncation_error_bound(c) for c in cfg.coeffs),
        "layout": {"rows": cfg.s + 1, "cols": cfg.length, "order": "x_1..x_s,d",
                   "dtype": "<f8"},
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
