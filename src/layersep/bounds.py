"""Closed-form separability bounds for uniform samples in a spherical shell.

Two families, both evaluated in log-space so that dimensions in the hundreds
neither overflow nor underflow:

* probability lower bounds ``p*_lb`` -- how likely a random set (or one extra
  point against a random set) is separable, as a function of (d, r, n);
* admissible-count thresholds ``n_admissible`` -- how many points can be drawn
  while keeping the failure probability below a budget ``theta``.

Every result carries its pre-clamp value and a domain status, because several
formulas are stated only for ``0 < r < 1`` and one degenerates at ``r = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import times_two_to
from .errors import DomainError, check_int, check_real

__all__ = [
    "BOUND_IDS",
    "PROBABILITY_BOUND_IDS",
    "COUNT_BOUND_IDS",
    "BoundQuery",
    "BoundResult",
    "p1_linear_lb",
    "p_linear_lb",
    "p1_fisher_lb",
    "p_fisher_lb",
    "n_admissible",
    "evaluate_bound",
]

STATUS_OK = "ok"
STATUS_OUTSIDE = "outside_stated_domain"
STATUS_UNDEFINED = "undefined"


@dataclass(frozen=True)
class BoundQuery:
    """Validated parameter tuple shared by all bound evaluations.

    Attributes:
        d: ambient dimension, integer >= 1.
        r: inner shell radius, 0 <= r < 1.
        n: set cardinality (probability bounds only), integer >= 0.
        theta: failure budget in (0, 1) (count bounds only), or None.
    """

    d: int
    r: float = 0.0
    n: int = 0
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", check_int(self.d, "d", 1))
        object.__setattr__(self, "n", check_int(self.n, "n", 0))
        object.__setattr__(self, "r", check_real(self.r, "r", 0.0, 1.0, low_closed=True))
        if self.theta is not None:
            object.__setattr__(self, "theta", check_real(self.theta, "theta", 0.0, 1.0))


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one bound evaluation.

    Attributes:
        bound_id: which formula produced this result.
        value: the usable number -- probability clamped to [0, 1], or the
            nonnegative real count threshold.
        raw_value: pre-clamp value (may be negative, infinite, or NaN).
        domain_status: 'ok', 'outside_stated_domain', or 'undefined'.
        log_raw: natural log of raw_value when that is positive, else None.
            Survives even when raw_value itself under- or overflows.
        max_admissible_n: count bounds only -- the largest integer strictly
            below value (the bounds are strict inequalities); None when the
            threshold is infinite or undefined.
        note: human-readable qualifier, e.g. why a clamp fired.
    """

    bound_id: str
    value: float
    raw_value: float
    domain_status: str
    log_raw: float | None = None
    max_admissible_n: int | None = None
    note: str = ""


def exp_or_inf(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def log_r(r: float) -> float:
    """log r, keeping full relative accuracy as r -> 1: log1p(r - 1) with the
    subtraction exact for r >= 0.5.  Below 0.5 plain log is well conditioned
    (and r - 1.0 could round to -1.0 for denormal-small r)."""
    if r < 0.5:
        return math.log(r)
    return math.log1p(r - 1.0)


def log_one_minus_r_sq(r: float) -> float:
    """log(1 - r^2) evaluated as log(1-r) + log(1+r), avoiding the rounding of
    r*r; agrees with exact arithmetic on the binary value of r."""
    return math.log1p(-r) + math.log1p(r)


def _one_minus_r_pow_d(r: float, d: int) -> float:
    """1 - r^d without cancellation as r -> 1."""
    if r == 0.0:
        return 1.0
    return -math.expm1(d * log_r(r))


def _strictly_below(threshold: float) -> int | None:
    """Largest integer strictly below a positive real; exact integers step down."""
    if not math.isfinite(threshold):
        return None
    f = math.floor(threshold)
    n = int(f) - 1 if threshold == f else int(f)
    return max(n, 0)


def _probability_result(
    bound_id: str, raw: float, status: str, log_raw: float | None
) -> BoundResult:
    """A probability bound: raw clamped to [0, 1], with a note when it was negative."""
    note = "" if raw >= 0.0 else "bound is vacuous here; clamped to 0"
    return BoundResult(bound_id, min(1.0, max(0.0, raw)), raw, status, log_raw, note=note)


def _count_result(bound_id: str, raw: float, status: str, log_raw: float) -> BoundResult:
    """A count threshold: the raw value and the largest integer strictly below it."""
    return BoundResult(bound_id, raw, raw, status, log_raw, _strictly_below(raw))


def _fisher_status(r: float) -> str:
    """The Fisher bounds are stated for 0 < r < 1; at r = 0 they still evaluate."""
    return STATUS_OK if r > 0.0 else STATUS_OUTSIDE


def _over_power_of_two(count: int, d: int) -> float:
    """count / 2^d for an integer count >= 0, rounded once: int / int is correctly
    rounded, subnormal quotients included.  0.0 far below float range, inf past it."""
    if d - count.bit_length() > 1076:  # below half the least subnormal: no 1 << d
        return 0.0
    try:
        return count / (1 << d)
    except OverflowError:
        return math.inf


def _linear_lb(bound_id: str, count: int, d: int) -> BoundResult:
    """max(0, 1 - count / 2^d); holds for every 0 <= r < 1."""
    raw = 1.0 - _over_power_of_two(count, d)
    return _probability_result(bound_id, raw, STATUS_OK, math.log(raw) if raw > 0.0 else None)


def p1_linear_lb(q: BoundQuery) -> BoundResult:
    """Lower bound on P(one extra point is linearly separable from n others).

    value = max(0, 1 - n / 2^d); independent of r.
    """
    return _linear_lb("p1_linear_lb", q.n, q.d)


def p_linear_lb(q: BoundQuery) -> BoundResult:
    """Lower bound on P(every point of a random n-set is linearly separable).

    value = max(0, 1 - n(n-1) / 2^d); independent of r.  n(n-1) may exceed
    float range; the quotient is still finite or -inf, never an error.
    """
    return _linear_lb("p_linear_lb", q.n * (q.n - 1), q.d)


def p1_fisher_lb(q: BoundQuery) -> BoundResult:
    """Lower bound on P(one extra point is Fisher-separable from n others).

    value = (1 - r^d) * (1 - (1 - r^2)^(d/2) / 2)^n, the n-th power taken as
    exp(n * log1p(...)) so large n cannot underflow prematurely.
    """
    shell_mass = _one_minus_r_pow_d(q.r, q.d)
    log_half_width = 0.5 * q.d * log_one_minus_r_sq(q.r)
    tail_log = q.n * math.log1p(-0.5 * math.exp(log_half_width))
    log_raw = math.log(shell_mass) + tail_log
    return _probability_result("p1_fisher_lb", math.exp(log_raw), _fisher_status(q.r), log_raw)


def p_fisher_lb(q: BoundQuery) -> BoundResult:
    """Lower bound on P(every point of a random n-set is Fisher-separable).

    value = [(1 - r^d) * (1 - (n-1)(1 - r^2)^(d/2) / 2)]^n when the bracket is
    positive, else 0.  The bracket goes negative for small d and large n; the
    clamp is recorded in the note and the signed power kept as raw_value.
    """
    status = _fisher_status(q.r)
    if q.n == 0:
        return _probability_result("p_fisher_lb", 1.0, status, 0.0)
    shell_mass = _one_minus_r_pow_d(q.r, q.d)
    half_width = 0.5 * math.exp(0.5 * q.d * log_one_minus_r_sq(q.r))
    crowding = (q.n - 1) * half_width
    if crowding < 1.0:
        log_raw = q.n * (math.log(shell_mass) + math.log1p(-crowding))
        return _probability_result("p_fisher_lb", math.exp(log_raw), status, log_raw)
    base = shell_mass * (1.0 - crowding)
    if base == 0.0:
        raw = 0.0
    else:
        sign = 1.0 if q.n % 2 == 0 else -1.0
        raw = sign * exp_or_inf(q.n * math.log(-base))
    return BoundResult("p_fisher_lb", 0.0, raw, status,
                       note="inner factor nonpositive; clamped to 0")


def _log_sqrt_one_plus_exp(a: float) -> float:
    """log(1 + sqrt(1 + exp(a))), stable for arbitrarily large a."""
    if a <= 700.0:
        return math.log1p(math.sqrt(1.0 + math.exp(a)))
    # sqrt(1 + e^a) = e^(a/2) sqrt(1 + e^-a); expand around e^-a = 0.
    half = math.exp(-0.5 * a)
    return 0.5 * a + math.log1p(half + 0.5 * half * half)


def _eq1_n_fisher(q: BoundQuery) -> BoundResult:
    """Sharpest Fisher count threshold, in its cancellation-free form.

    The literal statement n < (r/sqrt(1-r^2))^d * (sqrt(1 + 2 theta (1-r^2)^(d/2)
    / r^(2d)) - 1) subtracts nearly equal quantities once the square root is
    close to 1.  Multiplying by the conjugate gives the equivalent

        n < 2 theta / (r^d * (sqrt(1 + 2 theta s^d) + 1)),   s = sqrt(1-r^2)/r^2,

    which is evaluated here entirely in logs.  Undefined at r = 0.

    For huge d and tiny r, ``-d log r`` and the log of the denominator's tail
    overflow, and their difference is not finite.  There the two are combined
    first: with t = 2 theta s^d, ``log(1 + sqrt(1 + t)) = log(t) / 2 +
    asinh(t^(-1/2))``, so the threshold's log is ``log(2 theta) / 2 -
    d log(1 - r^2) / 4 - asinh(t^(-1/2))``, in which ``d log r`` cancels.
    """
    if q.r == 0.0:
        return BoundResult("eq1_n_fisher", math.nan, math.nan, STATUS_UNDEFINED,
                           note="threshold divides by r; no finite value at r = 0")
    log_radius = log_r(q.r)
    log_s = 0.5 * log_one_minus_r_sq(q.r) - 2.0 * log_radius
    log_numer = math.log(2.0 * q.theta)
    log_t = log_numer + q.d * log_s
    log_raw = log_numer - q.d * log_radius - _log_sqrt_one_plus_exp(log_t)
    if not math.isfinite(log_raw):
        log_raw = (0.5 * log_numer - 0.25 * q.d * log_one_minus_r_sq(q.r)
                   - math.asinh(exp_or_inf(-0.5 * log_t)))
    return _count_result("eq1_n_fisher", exp_or_inf(log_raw), STATUS_OK, log_raw)


def _n1_fisher(q: BoundQuery) -> BoundResult:
    """Count threshold n < theta / (1 - r^2)^(d/2)."""
    log_width = 0.5 * q.d * log_one_minus_r_sq(q.r)
    raw = q.theta * exp_or_inf(-log_width)
    return _count_result("n1_fisher", raw, _fisher_status(q.r), math.log(q.theta) - log_width)


def _n_fisher(q: BoundQuery) -> BoundResult:
    """Count threshold n < sqrt(theta) / (1 - r^2)^(d/4)."""
    log_width = 0.25 * q.d * log_one_minus_r_sq(q.r)
    raw = math.sqrt(q.theta) * exp_or_inf(-log_width)
    return _count_result("n_fisher", raw, _fisher_status(q.r),
                         0.5 * math.log(q.theta) - log_width)


def _n1_linear(q: BoundQuery) -> BoundResult:
    """Count threshold n < theta * 2^d; holds for every 0 <= r < 1."""
    log_raw = math.log(q.theta) + q.d * math.log(2.0)
    return _count_result("n1_linear", times_two_to(q.d, q.theta), STATUS_OK, log_raw)


def _n_linear(q: BoundQuery) -> BoundResult:
    """Count threshold n < sqrt(theta * 2^d); holds for every 0 <= r < 1."""
    log_raw = 0.5 * (math.log(q.theta) + q.d * math.log(2.0))
    scaled = times_two_to(q.d, q.theta)
    raw = math.sqrt(scaled) if math.isfinite(scaled) else exp_or_inf(log_raw)
    return _count_result("n_linear", raw, STATUS_OK, log_raw)


# The two dispatch tables are the only list of bound ids; the id tuples below
# are read from them, in this order.
_PROBABILITY_DISPATCH = {
    "p1_linear_lb": p1_linear_lb,
    "p_linear_lb": p_linear_lb,
    "p1_fisher_lb": p1_fisher_lb,
    "p_fisher_lb": p_fisher_lb,
}

_COUNT_DISPATCH = {
    "eq1_n_fisher": _eq1_n_fisher,
    "n1_fisher": _n1_fisher,
    "n_fisher": _n_fisher,
    "n1_linear": _n1_linear,
    "n_linear": _n_linear,
}

PROBABILITY_BOUND_IDS = tuple(_PROBABILITY_DISPATCH)
COUNT_BOUND_IDS = tuple(_COUNT_DISPATCH)
BOUND_IDS = PROBABILITY_BOUND_IDS + COUNT_BOUND_IDS


def n_admissible(bound_id: str, d: int, r: float, theta: float) -> BoundResult:
    """Evaluate one admissible-count threshold.

    Returns both the real-valued threshold and, in max_admissible_n, the
    largest integer n that satisfies the strict inequality n < threshold.
    This is the one place the failure budget theta is required.
    """
    if bound_id not in _COUNT_DISPATCH:
        raise DomainError(
            f"unknown count bound {bound_id!r}; expected one of {sorted(_COUNT_DISPATCH)}"
        )
    q = BoundQuery(d=d, r=r, theta=theta)
    if q.theta is None:
        raise DomainError("this bound needs a failure budget theta in (0, 1)")
    return _COUNT_DISPATCH[bound_id](q)


def evaluate_bound(
    bound_id: str,
    *,
    d: int,
    r: float = 0.0,
    n: int = 0,
    theta: float | None = None,
) -> BoundResult:
    """Evaluate any bound by id; the single entry point used by the CLI."""
    if bound_id in _PROBABILITY_DISPATCH:
        return _PROBABILITY_DISPATCH[bound_id](BoundQuery(d=d, r=r, n=n))
    if bound_id in _COUNT_DISPATCH:
        return n_admissible(bound_id, d, r, theta)
    raise DomainError(f"unknown bound id {bound_id!r}; expected one of {sorted(BOUND_IDS)}")
