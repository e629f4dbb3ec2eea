"""Large-d behavior of the bounds: critical radii, regime classification, and
the asymptotic laws that compare estimates against each other.

Three inner radii split the parameter space; each law changes form when r
crosses its critical value:

* ``sqrt((sqrt(5)-1)/2)`` -- the sharpest Fisher count threshold switches
  between a shell-dominated and a width-dominated form ("fisher_count");
* ``sqrt(3)/2`` -- whole-ball linear counts overtake shell Fisher counts
  ("count_ratio");
* ``sqrt(2)/2`` -- the set-level Fisher gap switches dominant term
  ("set_gap").

Every exact side is evaluated in log-space: the quantities compared here
under- or overflow naive float arithmetic long before their asymptotic
behavior is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import exp_or_inf, log_one_minus_r_sq, log_r, n_admissible
from .errors import DomainError, check_int, check_real

__all__ = [
    "CRITICAL_RADII",
    "KNIFE_EDGE_TOL",
    "RadiusRegime",
    "AsymptoticValue",
    "RatioLaw",
    "classify_radius",
    "eq1_asymptotic",
    "fisher_ratio_f_over_g",
    "layer_count_ratio",
    "fisher_gap_asymptotic",
    "fisher_gap_exact",
    "gap_ratio_linear_vs_fisher",
]

# Contexts name what changes at the radius, not where the value comes from.
CRITICAL_RADII = {
    "fisher_count": math.sqrt((math.sqrt(5.0) - 1.0) / 2.0),
    "count_ratio": math.sqrt(3.0) / 2.0,
    "set_gap": math.sqrt(2.0) / 2.0,
}

# The critical radii are irrational; exact hits happen only by construction,
# so a tight band suffices to recognize them.
KNIFE_EDGE_TOL = 1e-12

BELOW = "below_critical"
AT = "at_critical"
ABOVE = "above_critical"


@dataclass(frozen=True)
class RadiusRegime:
    """Where an inner radius sits relative to one law's critical value."""

    regime: str
    critical_value: float
    context: str


@dataclass(frozen=True)
class AsymptoticValue:
    """A regime-appropriate approximant, with the classification that chose it."""

    value: float
    log_value: float
    regime: RadiusRegime


@dataclass(frozen=True)
class RatioLaw:
    """Exact ratio of two estimates next to its asymptotic description.

    Attributes:
        exact: the ratio computed from the full (stabilized) formulas.
        log_exact: natural log of the exact ratio; finite even when ``exact``
            over- or underflows.
        approximant: the regime's closed-form approximation of the ratio.
        log_approximant: its log.
        limit_value: what the ratio tends to as d grows (may be 0 or inf).
        limit_tag: 'diverges', 'constant', 'converges', or 'vanishes'.
        regime: the radius classification that selected the law.
    """

    exact: float
    log_exact: float
    approximant: float
    log_approximant: float
    limit_value: float
    limit_tag: str
    regime: RadiusRegime


def _ratio_law(log_exact: float, log_approx: float, limit_value: float, limit_tag: str,
               regime: RadiusRegime) -> RatioLaw:
    """A law whose exact ratio and approximant are the exponentials of their logs."""
    return RatioLaw(exp_or_inf(log_exact), log_exact, exp_or_inf(log_approx), log_approx,
                    limit_value, limit_tag, regime)


def classify_radius(r: float, context: str) -> RadiusRegime:
    """Classify r against one law's critical radius.

    The knife edge |r - r*| < 1e-12 counts as at_critical.
    """
    if context not in CRITICAL_RADII:
        raise DomainError(
            f"unknown critical-radius context {context!r}; expected one of {sorted(CRITICAL_RADII)}"
        )
    r = check_real(r, "r", 0.0, 1.0)
    critical = CRITICAL_RADII[context]
    if abs(r - critical) < KNIFE_EDGE_TOL:
        regime = AT
    elif r < critical:
        regime = BELOW
    else:
        regime = ABOVE
    return RadiusRegime(regime=regime, critical_value=critical, context=context)


def eq1_asymptotic(r: float, theta: float, d: int) -> AsymptoticValue:
    """Approximant of the sharpest Fisher count threshold, selected by regime.

    theta / r^d above the critical radius; exactly (sqrt(1 + 2 theta) - 1)/r^d
    on the knife edge (the equality case, not an approximation); and
    sqrt(2 theta) / (1 - r^2)^(d/4) below.
    """
    r, theta = check_real(r, "r", 0.0, 1.0), check_real(theta, "theta", 0.0, 1.0)
    d = check_int(d, "d", 1)
    regime = classify_radius(r, "fisher_count")
    if regime.regime == ABOVE:
        log_value = math.log(theta) - d * log_r(r)
    elif regime.regime == AT:
        # sqrt(1 + 2 theta) - 1 in its conjugate form; no cancellation at small theta.
        log_value = math.log(2.0 * theta / (math.sqrt(1.0 + 2.0 * theta) + 1.0)) - d * log_r(r)
    else:
        log_value = 0.5 * math.log(2.0 * theta) - 0.25 * d * log_one_minus_r_sq(r)
    return AsymptoticValue(value=exp_or_inf(log_value), log_value=log_value, regime=regime)


def fisher_ratio_f_over_g(r: float, theta: float, d: int) -> RatioLaw:
    """Exact ratio of the crude Fisher count threshold f = sqrt(theta) /
    (1-r^2)^(d/4) to the sharp one g, with its limiting behavior.

    The ratio diverges above the critical radius, is constant in d exactly on
    it, and tends to 1/sqrt(2) below: the crude threshold loses at most a
    factor sqrt(2) where it is competitive at all.
    """
    r, theta = check_real(r, "r", 0.0, 1.0), check_real(theta, "theta", 0.0, 1.0)
    d = check_int(d, "d", 1)
    regime = classify_radius(r, "fisher_count")
    log_f = n_admissible("n_fisher", d=d, r=r, theta=theta).log_raw
    log_g = n_admissible("eq1_n_fisher", d=d, r=r, theta=theta).log_raw
    log_exact = log_f - log_g
    if regime.regime == ABOVE:
        limit_value, limit_tag = math.inf, "diverges"
        log_approx = log_exact  # no finite closed-form approximant is stated
    elif regime.regime == AT:
        limit_value = (math.sqrt(1.0 + 2.0 * theta) + 1.0) / (2.0 * math.sqrt(theta))
        limit_tag = "constant"
        log_approx = math.log(limit_value)
    else:
        limit_value, limit_tag = 1.0 / math.sqrt(2.0), "converges"
        log_approx = -0.5 * math.log(2.0)
    return _ratio_law(log_exact, log_approx, limit_value, limit_tag, regime)


def layer_count_ratio(r: float, theta: float, d: int) -> RatioLaw:
    """Ratio of the whole-ball linear count threshold f = sqrt(theta 2^d) to
    the shell Fisher threshold g = sqrt(theta) / (1-r^2)^(d/4).

    The ratio collapses to (2 sqrt(1-r^2))^(d/2) identically -- an equality,
    not an asymptotic -- which this function recomputes independently and
    checks against the value assembled from the two thresholds, raising
    ArithmeticError if they drift apart.
    """
    r, theta = check_real(r, "r", 0.0, 1.0), check_real(theta, "theta", 0.0, 1.0)
    d = check_int(d, "d", 1)
    regime = classify_radius(r, "count_ratio")
    log_f = 0.5 * (math.log(theta) + d * math.log(2.0))
    log_g = n_admissible("n_fisher", d=d, r=r, theta=theta).log_raw
    log_exact = log_f - log_g
    log_identity = 0.5 * d * (math.log(2.0) + 0.5 * log_one_minus_r_sq(r))
    # Identity check at 1e-12, widened only by float addition noise when the
    # logs themselves are huge (their ulp exceeds 1e-12 past |log| ~ 4500).
    drift = log_exact - log_identity
    rel = abs(math.expm1(drift)) if abs(drift) < 1.0 else math.inf
    noise = 32.0 * math.ulp(max(abs(log_exact), abs(math.log(theta)), 1.0))
    if not rel <= 1e-12 + noise:
        raise ArithmeticError((r, theta, d, rel))
    if regime.regime == ABOVE:
        limit_value, limit_tag = 0.0, "vanishes"
    elif regime.regime == AT:
        limit_value, limit_tag = 1.0, "constant"
    else:
        limit_value, limit_tag = math.inf, "diverges"
    return _ratio_law(log_exact, log_identity, limit_value, limit_tag, regime)


def fisher_gap_exact(d: int, r: float, n: int) -> tuple[float, float]:
    """Exact gap 1 - [(1-r^d)(1-(n-1)(1-r^2)^(d/2)/2)]^n of the set-level
    Fisher bound, as (gap, log_gap), without forming the bound itself.

    Keeping r^d as a term of log1p preserves gaps far below 2^-53, where the
    bound would round to exactly 1.
    """
    d, r, n = check_int(d, "d", 1), check_real(r, "r", 0.0, 1.0), check_int(n, "n", 1)
    rd = math.exp(d * log_r(r))
    half_width = 0.5 * math.exp(0.5 * d * log_one_minus_r_sq(r))
    crowding = (n - 1) * half_width
    if crowding >= 1.0:
        return 1.0, 0.0  # bound is nonpositive; the gap saturates
    log_bound = n * (math.log1p(-rd) + math.log1p(-crowding))
    gap = -math.expm1(log_bound)
    if gap > 0.0:
        log_gap = math.log(gap)
    else:
        log_gap = -math.inf  # bound rounds to 1 even in log form
    return gap, log_gap


def fisher_gap_asymptotic(r: float, n: int, d: int) -> AsymptoticValue:
    """Regime approximant of the set-level Fisher-bound gap.

    n r^d above the critical radius (escaping the shell dominates);
    n(n-1)/2 (1-r^2)^(d/2) below (pair crowding dominates); their knife-edge
    merger n(n+1)/2 2^(-d/2) exactly on it.
    """
    r, n, d = check_real(r, "r", 0.0, 1.0), check_int(n, "n", 1), check_int(d, "d", 1)
    regime = classify_radius(r, "set_gap")
    if regime.regime == ABOVE:
        log_value = math.log(n) + d * log_r(r)
    elif regime.regime == AT:
        log_value = math.log(0.5 * n * (n + 1)) - 0.5 * d * math.log(2.0)
    else:
        pair_count = 0.5 * n * (n - 1)
        if pair_count == 0.0:
            return AsymptoticValue(value=0.0, log_value=-math.inf, regime=regime)
        log_value = math.log(pair_count) + 0.5 * d * log_one_minus_r_sq(r)
    return AsymptoticValue(value=exp_or_inf(log_value), log_value=log_value, regime=regime)


def gap_ratio_linear_vs_fisher(r: float, n: int, d: int) -> RatioLaw:
    """Exact ratio (Fisher-bound gap) / (linear-bound gap) with its regime
    approximant; the linear gap is n(n-1)/2^d exactly.

    The ratio diverges in every regime: the linear set bound approaches 1
    faster than the Fisher set bound for every inner radius.
    """
    r, n, d = check_real(r, "r", 0.0, 1.0), check_int(n, "n", 2), check_int(d, "d", 1)
    regime = classify_radius(r, "set_gap")
    _, log_gap = fisher_gap_exact(d, r, n)
    log_linear_gap = math.log(n) + math.log(n - 1.0) - d * math.log(2.0)
    log_exact = log_gap - log_linear_gap
    if regime.regime == ABOVE:
        log_approx = d * (math.log(2.0) + log_r(r)) - math.log(n - 1.0)
    elif regime.regime == AT:
        log_approx = 0.5 * d * math.log(2.0) + math.log((n + 1.0) / (2.0 * (n - 1.0)))
    else:
        log_approx = 0.5 * d * (2.0 * math.log(2.0) + log_one_minus_r_sq(r)) - math.log(2.0)
    return _ratio_law(log_exact, log_approx, math.inf, "diverges", regime)
