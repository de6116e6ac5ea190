"""Theoretical Marcinkiewicz rate bounds, forward verdict prediction, and the
inversion recovering (sigma, alpha_1) from a verdict grid."""

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, DomainError
from .tables import DEFAULT_EXPONENTS, DEFAULT_S_LIST, Verdict, VerdictTable

_EQ_TOL = 1e-12


def _inv_or_inf(denom):
    return math.inf if denom <= 0 else 1.0 / denom


def _bound(s, sigmas, alpha0, relaxed):
    """The rate bound, without domain checks: the largest p for which
    n^(-1/p) sum(d_k - d) -> 0 for s factors with decay exponents sigmas and
    innovation tail index alpha0 (math.inf for light tails)."""
    if relaxed:
        best_pair = max(sigmas[i] + sigmas[j]
                        for i in range(s) for j in range(i + 1, s))
        return min(2.0, alpha0, _inv_or_inf(2.0 - best_pair))
    if s == 1:
        return 2.0 / (3.0 - 2.0 * sigmas[0])
    if s == 2:
        return min(2.0, alpha0, _inv_or_inf(2.0 - (sigmas[0] + sigmas[1])))
    return min(alpha0, 2.0 / (3.0 - 2.0 * min(sigmas)))


def rate_bound(s, sigma, alpha0, relaxed=False):
    """Largest admissible p for a product of s factors. sigma is one decay
    exponent shared by every factor or one per factor; alpha0=math.inf is
    the light-tailed case."""
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    try:
        sigmas = tuple(sigma)
    except TypeError:  # a scalar, a 0-d array included
        sigmas = (sigma,) * s
    if len(sigmas) != s:
        raise ConfigurationError(f"need one sigma or {s} sigma values, got {len(sigmas)}")
    if not all(0.5 < sg <= 1.0 for sg in sigmas):
        raise DomainError(f"sigma must lie in (0.5, 1.0], got {sigma}")
    if not alpha0 > 1:
        raise DomainError(f"alpha0 must exceed 1, got {alpha0}")
    if relaxed and s % 2 != 0:
        raise ConfigurationError("relaxed bound requires even s")
    return _bound(s, sigmas, alpha0, relaxed)


def predict_table(sigma, alpha1, s_list=DEFAULT_S_LIST,
                  exponent_list=DEFAULT_EXPONENTS, label="predicted"):
    """Forward model: cell (s, e) converges iff p = 1/e is strictly below the
    rate bound with alpha_s = alpha1 / s. sigma >= 1 is clamped to the
    no-LRD closure value; alpha1=math.inf means light tails."""
    if not (float(sigma) > 0.5 and alpha1 > 0):
        raise DomainError(f"need sigma > 0.5 and alpha1 > 0, got {sigma} and {alpha1}")
    sig = min(float(sigma), 1.0)
    table = VerdictTable(label=label, s_list=tuple(s_list),
                         exponent_list=tuple(exponent_list))
    for s in s_list:
        alpha_s = alpha1 / s
        bound = _bound(s, (sig,) * s, alpha_s, False)
        if alpha_s <= 1:
            bound = min(bound, alpha_s)  # tail index at or below 1: never converges
        for e in exponent_list:
            p = 1.0 / e
            outcome = "Converges" if p < bound - _EQ_TOL else "Diverges"
            table.cells[(s, e)] = Verdict(outcome=outcome)
    return table


@dataclass
class EstimateValue:
    kind: str   # point | lower_bound | upper_bound
    value: float

    def as_dict(self):
        return {"kind": self.kind, "value": self.value}


@dataclass
class ParamEstimate:
    sigma: EstimateValue
    alpha1: EstimateValue
    alpha1_interval: tuple
    per_s_evidence: list = field(default_factory=list)
    method_notes: list = field(default_factory=list)

    def to_json(self):
        return json.dumps({
            "sigma": self.sigma.as_dict(),
            "alpha1": self.alpha1.as_dict() if self.alpha1 is not None else None,
            "alpha1_interval": list(self.alpha1_interval),
            "per_s_evidence": self.per_s_evidence,
            "method_notes": self.method_notes,
        }, indent=2)


def _row_letters(table, s):
    return [(e, table.outcome(s, e)) for e in sorted(table.exponent_list)]


def _is_monotone(letters):
    # D-prefix / C-suffix in ascending exponent
    seen_c = False
    for _, letter in letters:
        if letter == "C":
            seen_c = True
        elif seen_c:
            return False
    return True


def _flip(letters):
    """(last-D exponent, first-C exponent) or None when the row is all D/C."""
    for i in range(len(letters) - 1):
        if letters[i][1] == "D" and letters[i + 1][1] == "C":
            return letters[i][0], letters[i + 1][0]
    return None


def estimate_parameters(table):
    """Invert a verdict grid into sigma and alpha_1 estimates.

    The s = 1 row anchors sigma through the flip exponent midpoint; rows with
    s >= 2 constrain alpha_s (and thus alpha_1 = s * alpha_s) through the
    branch of the rate bound not already explained by the sigma estimate.
    """
    s_values = sorted(table.s_list)
    if 1 not in s_values:
        raise ConfigurationError("verdict table must contain the s=1 row")
    if not any(s >= 2 for s in s_values):
        raise ConfigurationError("need at least one s >= 2 row for the tail step")
    notes = []
    evidence = []
    exps = sorted(table.exponent_list)
    grid_step = min(b - a for a, b in zip(exps, exps[1:])) if len(exps) > 1 else 0.1

    usable = {}
    for s in s_values:
        letters = _row_letters(table, s)
        if _is_monotone(letters):
            usable[s] = letters
        else:
            notes.append(f"row s={s} is not D-prefix/C-suffix; excluded as inconsistent")
    if 1 not in usable:
        raise ConfigurationError("s=1 row is inconsistent; no sigma anchor")

    # --- sigma from the s=1 row (ignoring the CLT-forced e=0.5 column) ---
    row1 = [(e, l) for e, l in usable[1] if e > 0.5]
    if all(l == "C" for _, l in row1):
        sigma_est = EstimateValue("lower_bound", 1.0)
        notes.append("s=1 row converges at every tested e > 0.5: no (or limited) LRD")
    else:
        flip = _flip(row1)
        if flip is None:  # all D beyond e=0.5
            e_star = max(e for e, _ in row1) + grid_step / 2.0
            sigma_est = EstimateValue("point", 1.5 - e_star)
            notes.append("s=1 row diverges at every tested exponent; "
                         "flip placed half a grid step beyond the grid")
        else:
            e_star = (flip[0] + flip[1]) / 2.0
            sigma_est = EstimateValue("point", 1.5 - e_star)
    evidence.append({"s": 1, "flip_exponent": None if sigma_est.kind == "lower_bound"
                     else e_star, "constraint": f"sigma {sigma_est.kind} {sigma_est.value:g}"})

    sigma_hat = 1.0 if sigma_est.kind == "lower_bound" else sigma_est.value

    # --- alpha_1 from each s >= 2 row ---
    points, point_intervals, uppers, lowers = [], [], [], []
    for s in (s for s in s_values if s >= 2 and s in usable):
        letters = usable[s]
        # part of the rate bound already fixed by sigma_hat, which may lie
        # at or below 0.5, outside rate_bound's domain
        explained = _bound(s, (sigma_hat,) * s, math.inf, False)
        flip = _flip(letters)
        if flip is None and all(l == "D" for _, l in letters):
            p_ub = 1.0 / max(e for e, _ in letters)
            if explained > p_ub + _EQ_TOL:
                uppers.append(s * p_ub)
                evidence.append({"s": s, "flip_exponent": None,
                                 "constraint": f"alpha_1 <= {s * p_ub:g} (all-D row)"})
            else:
                evidence.append({"s": s, "flip_exponent": None,
                                 "constraint": "no tail information (row explained by LRD term)"})
            continue
        if flip is None:  # all C, including p=2: outside the theory's reach
            evidence.append({"s": s, "flip_exponent": None,
                             "constraint": "no tail information (row all-C)"})
            continue
        e_d, e_c = flip
        p_lo, p_hi = 1.0 / e_c, 1.0 / e_d
        if explained <= p_hi + _EQ_TOL:
            # the observed flip is attributable to the LRD term alone
            lowers.append(s * p_lo)
            evidence.append({"s": s, "flip_exponent": (e_d + e_c) / 2.0,
                             "constraint": f"alpha_1 >= {s * p_lo:g} "
                                           "(flip explained by LRD term)"})
        else:
            p_star = 2.0 / (e_d + e_c)
            points.append(s * p_star)
            point_intervals.append((s * p_lo, s * p_hi))
            evidence.append({"s": s, "flip_exponent": (e_d + e_c) / 2.0,
                             "constraint": f"alpha_s = {p_star:g} -> alpha_1 = {s * p_star:g}"})

    lo = max(lowers) if lowers else 1.0
    hi = min(uppers) if uppers else math.inf
    if point_intervals:
        lo = max(lo, min(iv[0] for iv in point_intervals))
        hi = min(hi, max(iv[1] for iv in point_intervals))
        if lo > hi:
            notes.append("point-row grid intervals conflict with bound rows; "
                         "interval widened to the hull")
            lo = min(iv[0] for iv in point_intervals)
            hi = max(iv[1] for iv in point_intervals)
    if points:
        alpha_est = EstimateValue("point", sum(points) / len(points))
    elif uppers:
        alpha_est = EstimateValue("upper_bound", min(uppers))
    elif lowers:
        alpha_est = EstimateValue("lower_bound", max(lowers))
    else:
        alpha_est = EstimateValue("lower_bound", 1.0)
        notes.append("no tail information in any s >= 2 row")
    return ParamEstimate(sigma=sigma_est, alpha1=alpha_est,
                         alpha1_interval=(lo, hi), per_s_evidence=evidence,
                         method_notes=notes)
