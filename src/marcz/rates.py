"""Theoretical Marcinkiewicz rate bounds, forward verdict prediction, and the
inversion recovering (sigma, alpha_1) from a verdict grid."""

import json
import math
from dataclasses import asdict, dataclass, field

from .errors import ConfigurationError, DomainError
from .tables import DEFAULT_EXPONENTS, DEFAULT_S_LIST, Verdict, VerdictTable

_EQ_TOL = 1e-12


def _bound(s, sigma, alpha0):
    """The rate bound, without domain checks: the largest p for which
    n^(-1/p) sum(d_k - d) -> 0 for s factors with decay exponent sigma and
    innovation tail index alpha0 (math.inf for light tails)."""
    if s == 1:
        return 2.0 / (3.0 - 2.0 * sigma)
    if s == 2:  # a nonpositive denominator counts as +inf
        denom = 2.0 - 2.0 * sigma
        return min(2.0, alpha0, 1.0 / denom if denom > 0 else math.inf)
    return min(alpha0, 2.0 / (3.0 - 2.0 * sigma))


def rate_bound(s, sigma, alpha0):
    """Largest admissible p for a product of s factors with decay exponent
    sigma; alpha0=math.inf is the light-tailed case."""
    if s < 1:
        raise ConfigurationError(f"s must be >= 1, got {s}")
    if not 0.5 < sigma <= 1.0:
        raise DomainError(f"sigma must lie in (0.5, 1.0], got {sigma}")
    if not alpha0 > 1:
        raise DomainError(f"alpha0 must exceed 1, got {alpha0}")
    return _bound(s, sigma, alpha0)


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
        bound = _bound(s, sig, alpha_s)
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


@dataclass
class ParamEstimate:
    sigma: EstimateValue
    alpha1: EstimateValue
    alpha1_interval: tuple
    per_s_evidence: list = field(default_factory=list)
    method_notes: list = field(default_factory=list)

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


def estimate_parameters(table):
    """Invert a verdict grid into sigma and alpha_1 estimates.

    Each row is read once, in ascending exponent, into its count of D cells;
    a row that is not D-prefix/C-suffix is excluded. The s = 1 row anchors
    sigma through the flip exponent midpoint; rows with s >= 2 constrain
    alpha_s (and thus alpha_1 = s * alpha_s) through the branch of the rate
    bound not already explained by the sigma estimate.
    """
    s_values = sorted(table.s_list)
    if 1 not in s_values:
        raise ConfigurationError("verdict table must contain the s=1 row")
    if not any(s >= 2 for s in s_values):
        raise ConfigurationError("need at least one s >= 2 row for the tail step")
    notes = []
    exps = sorted(table.exponent_list)
    grid_step = min(b - a for a, b in zip(exps, exps[1:])) if len(exps) > 1 else 0.1

    counts = {}  # s -> D cells of each D-prefix/C-suffix row
    for s in s_values:
        row = "".join(table.outcome(s, e) for e in exps)
        k = row.count("D")
        if row == "D" * k + "C" * (len(row) - k):
            counts[s] = k
        else:
            notes.append(f"row s={s} is not D-prefix/C-suffix; excluded as inconsistent")
    if 1 not in counts:
        raise ConfigurationError("s=1 row is inconsistent; no sigma anchor")

    # --- sigma from the s=1 row (ignoring the CLT-forced e=0.5 column) ---
    k = counts.pop(1)
    if k <= sum(e <= 0.5 for e in exps):  # all C beyond e=0.5
        sigma_est, e_star = EstimateValue("lower_bound", 1.0), None
        notes.append("s=1 row converges at every tested e > 0.5: no (or limited) LRD")
    else:
        if k < len(exps):
            e_star = (exps[k - 1] + exps[k]) / 2.0
        else:
            e_star = exps[-1] + grid_step / 2.0
            notes.append("s=1 row diverges at every tested exponent; "
                         "flip placed half a grid step beyond the grid")
        sigma_est = EstimateValue("point", 1.5 - e_star)
    evidence = [{"s": 1, "flip_exponent": e_star,
                 "constraint": f"sigma {sigma_est.kind} {sigma_est.value:g}"}]

    # --- alpha_1 from each s >= 2 row ---
    points, point_intervals, uppers, lowers = [], [], [], []
    for s, k in counts.items():
        # part of the rate bound already fixed by sigma, which may lie at or
        # below 0.5, outside rate_bound's domain
        explained = _bound(s, sigma_est.value, math.inf)
        p_hi = 1.0 / exps[k - 1] if k else math.inf  # the row reads D up to p_hi
        p_lo = 1.0 / exps[k] if k < len(exps) else 0.0  # and C from p_lo on
        tail_limited = explained > p_hi + _EQ_TOL  # the LRD term alone converges at p_hi
        flip = (exps[k - 1] + exps[k]) / 2.0 if 0 < k < len(exps) else None
        if k == 0:  # all C, including p=2: outside the theory's reach
            constraint = "no tail information (row all-C)"
        elif k == len(exps) and tail_limited:
            uppers.append(s * p_hi)
            constraint = f"alpha_1 <= {s * p_hi:g} (all-D row)"
        elif k == len(exps):
            constraint = "no tail information (row explained by LRD term)"
        elif tail_limited:
            p_star = 1.0 / flip
            points.append(s * p_star)
            point_intervals.append((s * p_lo, s * p_hi))
            constraint = f"alpha_s = {p_star:g} -> alpha_1 = {s * p_star:g}"
        else:  # the observed flip is attributable to the LRD term alone
            lowers.append(s * p_lo)
            constraint = f"alpha_1 >= {s * p_lo:g} (flip explained by LRD term)"
        evidence.append({"s": s, "flip_exponent": flip, "constraint": constraint})

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
