"""Zero-mean i.i.d. innovation samplers with controllable tail index.

All families are generated as magnitude * sign from a single Philox
counter-based stream per (seed, stream) pair: the magnitude uniforms (or
normals) are drawn first, then the sign uniforms, so samples are
bit-reproducible for a fixed numpy version. Symmetry about zero is exact by
construction.
"""

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FAMILIES = ("gaussian", "student_t", "symmetric_pareto")


@dataclass(frozen=True)
class InnovationSpec:
    family: str
    df_or_alpha: float = float("nan")
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if self.family != "gaussian" and not self.df_or_alpha > 0:
            raise ConfigurationError(
                f"{self.family} requires a positive tail parameter, got {self.df_or_alpha}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")


def tail_coefficient(spec):
    """Tail index: +inf for exponential tails, the defining parameter otherwise."""
    if spec.family == "gaussian":
        return math.inf
    return spec.df_or_alpha


def _rng(seed, stream):
    """The Philox stream of (seed, stream). A seed outside [0, 2^64) is
    refused: masked to 64 bits, it would repeat the draws of another seed."""
    if not 0 <= operator.index(seed) < 1 << 64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(spec, count, seed, stream=0):
    """Draw `count` i.i.d. innovations, deterministic in (spec, count, seed, stream)."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    rng = _rng(seed, stream)
    # every step works in place on the draw's own buffer
    if spec.family == "gaussian":
        mag = rng.standard_normal(count)
        np.abs(mag, out=mag)
    elif spec.family == "student_t":
        mag = rng.standard_t(spec.df_or_alpha, size=count)
        np.abs(mag, out=mag)
    else:  # symmetric_pareto: P(|X| > x) = (x/scale)^(-alpha) for x >= scale
        mag = rng.random(count)
        mag **= -1.0 / spec.df_or_alpha
    mag *= spec.scale
    # sign -1 where its uniform is >= 0.5, else +1, built in the uniforms'
    # buffer (a where-masked np.negative is several times slower)
    sign = rng.random(count)
    np.greater_equal(sign, 0.5, out=sign)
    sign *= -2.0
    sign += 1.0
    mag *= sign
    return mag


def config_number(value, key, kind=float):
    """`value` of config key `key` as `kind`: a JSON integer for int, a finite
    JSON integer or float for float. A boolean or a string is neither."""
    if type(value) is int if kind is int else (
            type(value) in (int, float) and abs(value) <= sys.float_info.max):
        return kind(value)
    what = "an integer" if kind is int else "a finite number"
    raise ConfigurationError(f"key {key!r} must be {what}, got {value!r}")


def spec_from_config(cfg):
    """InnovationSpec from the flat `innovation` block of a config file."""
    spec = InnovationSpec(
        family=cfg["family"],
        df_or_alpha=config_number(cfg["alpha"], "alpha") if "alpha" in cfg else math.nan,
        scale=config_number(cfg.get("scale", 1.0), "scale"),
    )
    for key in cfg:
        if key not in ("family", "alpha", "scale"):
            raise ConfigurationError(f"unknown key {key!r}")
    if spec.family == "gaussian" and "alpha" in cfg:
        raise ConfigurationError("key 'alpha' is not a parameter of the gaussian family")
    return spec
