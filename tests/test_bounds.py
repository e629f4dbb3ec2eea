"""Bound formulas against multiprecision oracles, trivial closed forms, and domain rules."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layersep.asymptotics import CRITICAL_RADII
from layersep.bounds import (
    BOUND_IDS,
    COUNT_BOUND_IDS,
    PROBABILITY_BOUND_IDS,
    BoundQuery,
    evaluate_bound,
    n_admissible,
    p1_fisher_lb,
    p1_linear_lb,
    p_fisher_lb,
    p_linear_lb,
)
from layersep.errors import DomainError

from mpmath import mp
from oracles import (
    mp_eq1_admissible,
    mp_n1_fisher,
    mp_n_fisher,
    mp_p1_fisher,
    mp_p_fisher,
    mp_p_linear,
)


def rel_err(got, want):
    want = float(want)
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# probability lower bounds


def test_p1_linear_closed_forms():
    assert p1_linear_lb(BoundQuery(d=10, n=512, r=0.0)).value == 0.5
    assert p1_linear_lb(BoundQuery(d=10, n=512, r=0.7)).value == 0.5
    assert p1_linear_lb(BoundQuery(d=10, n=0)).value == 1.0
    res = p1_linear_lb(BoundQuery(d=5, n=64))
    assert res.value == 0.0
    assert res.raw_value == -1.0
    assert "clamped" in res.note


def test_p_linear_closed_forms():
    res = p_linear_lb(BoundQuery(d=20, n=1024))
    assert res.value == 0.0009765625  # (2^20 - 1024*1023) / 2^20
    assert p_linear_lb(BoundQuery(d=20, n=1)).value == 1.0
    assert p_linear_lb(BoundQuery(d=20, n=0)).value == 1.0


def test_p_linear_high_dimension_oracle():
    res = p_linear_lb(BoundQuery(d=40, n=10_000))
    assert rel_err(res.value, mp_p_linear(40, 10_000)) < 1e-15
    assert abs(res.value - 0.9999090596247697) < 5e-16


@pytest.mark.parametrize("d", [10, 1330, 2000])
def test_p_linear_pair_count_past_float_range(d):
    # n(n-1) = 1e400 has no float; the bound must still evaluate.
    res = p_linear_lb(BoundQuery(d=d, n=10**200))
    want = min(1.0, max(0.0, float(mp_p_linear(d, 10**200))))
    assert abs(res.value - want) < 1e-12
    assert ("clamped" in res.note) == (res.raw_value < 0.0)
    assert ("clamped" in res.note) == (d == 10)


def test_p1_fisher_closed_forms():
    res = p1_fisher_lb(BoundQuery(d=2, r=0.5, n=1))
    assert rel_err(res.value, 15.0 / 32.0) < 1e-14
    empty = p1_fisher_lb(BoundQuery(d=7, r=0.3, n=0))
    assert rel_err(empty.value, 1.0 - mp.mpf(0.3) ** 7) < 1e-15


def test_p1_fisher_extreme_parameters_oracle():
    res = p1_fisher_lb(BoundQuery(d=100, r=0.9, n=10**6))
    want = mp_p1_fisher(100, 0.9, 10**6)
    assert rel_err(res.value, want) < 1e-12
    assert abs(res.log_raw - float(mp.log(want))) < 1e-12


def test_p_fisher_closed_forms():
    r = math.sqrt(3.0) / 2.0
    res = p_fisher_lb(BoundQuery(d=2, r=r, n=2))
    assert rel_err(res.value, mp_p_fisher(2, r, 2)) < 1e-14
    assert rel_err(res.value, 49.0 / 1024.0) < 1e-13
    single = p_fisher_lb(BoundQuery(d=9, r=0.4, n=1))
    assert rel_err(single.value, 1.0 - mp.mpf(0.4) ** 9) < 1e-15
    assert p_fisher_lb(BoundQuery(d=9, r=0.4, n=0)).value == 1.0


def test_p_fisher_mid_grid_oracle():
    res = p_fisher_lb(BoundQuery(d=60, r=0.5, n=1000))
    want = mp_p_fisher(60, 0.5, 1000)
    assert rel_err(res.value, want) < 1e-12


def test_p_fisher_negative_inner_factor_clamps():
    even = p_fisher_lb(BoundQuery(d=4, r=0.1, n=10))
    assert even.value == 0.0
    assert "clamped" in even.note
    assert even.raw_value > 1.0  # even power of a negative base
    odd = p_fisher_lb(BoundQuery(d=4, r=0.1, n=9))
    assert odd.value == 0.0
    assert odd.raw_value < 0.0
    assert odd.log_raw is None
    # even power landing back inside [0, 1] is still vacuous: (1 * -0.5)^4
    inside = p_fisher_lb(BoundQuery(d=1, r=0.0, n=4))
    assert inside.value == 0.0
    assert inside.raw_value == 0.0625
    assert "clamped" in inside.note


def test_p1_fisher_log_survives_underflow():
    # n * log1p(...) is around -3.8e5, far below math.exp's range.
    res = p1_fisher_lb(BoundQuery(d=50, r=0.5, n=10**9))
    assert res.raw_value == 0.0
    assert res.value == 0.0
    want_log = mp.log(mp_p1_fisher(50, 0.5, 10**9))
    assert rel_err(res.log_raw, want_log) < 1e-12


def test_shell_mass_near_outer_radius():
    r = 1.0 - 1e-12
    res = p1_fisher_lb(BoundQuery(d=5, r=r, n=0))
    with mp.workdps(60):  # 1 - r^5 cancels ~12 digits; needs headroom
        want = 1.0 - mp.mpf(r) ** 5
    assert rel_err(res.value, want) < 1e-13


# ---------------------------------------------------------------------------
# admissible-count thresholds


def test_count_closed_forms():
    res = n_admissible("n_linear", d=30, r=0.2, theta=0.01)
    assert abs(res.value - 3276.8) < 1e-9
    assert res.max_admissible_n == 3276

    exact = n_admissible("n1_linear", d=10, r=0.0, theta=0.5)
    assert exact.value == 512.0
    assert exact.max_admissible_n == 511  # strict inequality steps integers down
    assert exact.domain_status == "ok"


def test_count_small_threshold_floors_at_zero():
    res = n_admissible("n1_fisher", d=1, r=0.1, theta=0.01)
    assert res.value < 1.0
    assert res.max_admissible_n == 0


def test_count_infinite_threshold():
    res = n_admissible("n1_linear", d=5000, r=0.3, theta=0.5)
    assert math.isinf(res.value)
    assert res.max_admissible_n is None
    assert abs(res.log_raw - (math.log(0.5) + 5000 * math.log(2.0))) < 1e-9


def test_fisher_count_oracles_on_grid():
    for d in (5, 50, 200):
        for r in (0.3, 0.7, 0.95):
            for theta in (0.01, 0.5):
                got1 = n_admissible("n1_fisher", d=d, r=r, theta=theta)
                assert rel_err(got1.value, mp_n1_fisher(d, r, theta)) < 1e-13
                got2 = n_admissible("n_fisher", d=d, r=r, theta=theta)
                assert rel_err(got2.value, mp_n_fisher(d, r, theta)) < 1e-13


def test_eq1_matches_conjugate_closed_form():
    # At r^2 equal to the golden-ratio reciprocal, s = sqrt(1-r^2)/r^2 = 1, so
    # the threshold collapses to 2*theta / (r^d (sqrt(1 + 2 theta) + 1)); with
    # theta = 1/2 that is (sqrt(2) - 1) / r^d.
    r = math.sqrt((math.sqrt(5.0) - 1.0) / 2.0)
    res = n_admissible("eq1_n_fisher", d=40, r=r, theta=0.5)
    with mp.workdps(60):
        closed = (mp.sqrt(2) - 1) / mp.mpf(r) ** 40
    assert rel_err(res.value, closed) < 1e-12
    assert rel_err(res.value, mp_eq1_admissible(40, r, 0.5)) < 1e-12


def _literal_eq1(d, r, theta):
    """Textbook form of the sharpest threshold; cancels catastrophically."""
    try:
        ratio = (r / math.sqrt(1.0 - r * r)) ** d
        inner = 1.0 + 2.0 * theta * (1.0 - r * r) ** (d / 2.0) / r ** (2 * d)
        return ratio * (math.sqrt(inner) - 1.0)
    except (OverflowError, ZeroDivisionError):
        return math.nan


def test_eq1_literal_form_agreement_and_overflow():
    cells = [
        (d, r, theta)
        for d in (5, 10, 20, 40, 80, 400)
        for r in (0.3, 0.5, 0.7, 0.8, 0.9, 0.99)
        for theta in (0.1, 0.5)
    ]
    compared = overflowed = 0
    for d, r, theta in cells:
        stab = n_admissible("eq1_n_fisher", d=d, r=r, theta=theta).value
        lit = _literal_eq1(d, r, theta)
        eps = 2.0 * theta * (1.0 - r * r) ** (d / 2.0) / r ** (2 * d) if r ** (2 * d) else 0.0
        if math.isfinite(lit) and lit > 0.0 and eps >= 1e-9:
            # Region where the literal form still carries >= 6 significant digits.
            assert rel_err(lit, stab) < 1e-6, (d, r, theta)
            compared += 1
        else:
            # Literal form overflowed, hit 0/0, or lost all precision; the
            # stabilized form must still match the multiprecision oracle.
            assert rel_err(stab, mp_eq1_admissible(d, r, theta)) < 1e-12, (d, r, theta)
            overflowed += 1
    assert compared >= 20 and overflowed >= 10


def test_eq1_undefined_at_zero_inner_radius():
    res = n_admissible("eq1_n_fisher", d=12, r=0.0, theta=0.3)
    assert res.domain_status == "undefined"
    assert math.isnan(res.value)
    assert res.max_admissible_n is None


# ---------------------------------------------------------------------------
# domain statuses and validation


def test_zero_radius_statuses():
    p1f = p1_fisher_lb(BoundQuery(d=10, r=0.0, n=3))
    assert p1f.domain_status == "outside_stated_domain"
    assert rel_err(p1f.value, 0.125) < 1e-15  # still evaluates: 1 * (1/2)^3

    pf = p_fisher_lb(BoundQuery(d=10, r=0.0, n=2))
    assert pf.domain_status == "outside_stated_domain"

    n1f = n_admissible("n1_fisher", d=10, r=0.0, theta=0.25)
    assert n1f.domain_status == "outside_stated_domain"
    assert n1f.value == 0.25

    nf = n_admissible("n_fisher", d=10, r=0.0, theta=0.25)
    assert nf.domain_status == "outside_stated_domain"
    assert nf.value == 0.5

    for bound_id in ("p1_linear_lb", "p_linear_lb"):
        assert evaluate_bound(bound_id, d=10, r=0.0, n=4).domain_status == "ok"
    for bound_id in ("n1_linear", "n_linear"):
        assert evaluate_bound(bound_id, d=10, r=0.0, theta=0.5).domain_status == "ok"


def test_query_validation_errors():
    with pytest.raises(DomainError):
        BoundQuery(d=0)
    with pytest.raises(DomainError):
        BoundQuery(d=3, n=-1)
    with pytest.raises(DomainError):
        BoundQuery(d=3, r=1.0)
    with pytest.raises(DomainError):
        BoundQuery(d=3, r=-0.2)
    with pytest.raises(DomainError):
        BoundQuery(d=3, r=math.nan)
    for theta in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            BoundQuery(d=3, theta=theta)
    with pytest.raises(DomainError):
        n_admissible("n1_fisher", d=3, r=0.5, theta=None)
    with pytest.raises(DomainError):
        n_admissible("no_such_bound", d=3, r=0.5, theta=0.5)
    with pytest.raises(DomainError):
        evaluate_bound("no_such_bound", d=3)


# ---------------------------------------------------------------------------
# structural invariants


def test_monotone_nondecreasing_in_dimension():
    dims = range(5, 201, 5)
    for bound_id in PROBABILITY_BOUND_IDS:
        vals = [evaluate_bound(bound_id, d=d, r=0.6, n=40).value for d in dims]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-14 * abs(lo)
    for bound_id in COUNT_BOUND_IDS:
        vals = [evaluate_bound(bound_id, d=d, r=0.6, theta=0.1).value for d in dims]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-14 * abs(lo)


def test_monotone_nonincreasing_in_cardinality():
    counts = (0, 1, 2, 5, 10, 100, 1000, 10_000)
    for bound_id in PROBABILITY_BOUND_IDS:
        vals = [evaluate_bound(bound_id, d=30, r=0.5, n=n).value for n in counts]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-14 * abs(lo)


@given(
    d=st.integers(min_value=1, max_value=500),
    r=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    n=st.integers(min_value=0, max_value=10**7),
    theta=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
)
@settings(deadline=None, max_examples=200)
def test_bound_results_well_formed(d, r, n, theta):
    for bound_id in BOUND_IDS:
        res = evaluate_bound(bound_id, d=d, r=r, n=n, theta=theta)
        assert res.bound_id == bound_id
        assert res.domain_status in ("ok", "outside_stated_domain", "undefined")
        if bound_id in PROBABILITY_BOUND_IDS:
            assert 0.0 <= res.value <= 1.0
            vacuous = "clamped to 0" in res.note
            if vacuous:
                # nonpositive inner factor: the even power of its absolute
                # value may land in [0, 1], but the bound is still vacuous
                assert res.value == 0.0
            elif 0.0 <= res.raw_value <= 1.0:
                assert res.value == res.raw_value  # clamp only fires outside [0, 1]
        elif res.domain_status != "undefined":
            assert res.value >= 0.0
            if math.isfinite(res.value):
                assert res.max_admissible_n is not None
                assert res.max_admissible_n < res.value
                assert res.max_admissible_n + 1 >= res.value


# ---------------------------------------------------------------------------
# pinned outputs

PINNED_D = (1, 2, 3, 7, 20, 59, 80, 400, 2000, 20000)
PINNED_R = (0.0, 1e-300, 0.1, 0.3, 0.5, *CRITICAL_RADII.values(), 0.9, 0.99, 0.999999,
            1.0 - 2.0**-53)
PINNED_N = (0, 1, 2, 5, 1000, 10**6, 10**12)
PINNED_THETA = (None, 1e-300, 1e-6, 0.01, 0.5, 0.999999)
PINNED_DIGEST = "8c769885fd7bbd7b1189d9a51febbc47119570dd2c65243a9a6ab83caac23424"


def test_bound_results_pinned():
    """Every field of every result, and every error message, on a fixed grid
    hashes to one pinned digest, so no float, note or message can drift."""
    digest = hashlib.sha256()
    for bound_id in (*BOUND_IDS, "no_such_bound"):
        for d in PINNED_D:
            for r in PINNED_R:
                for n in PINNED_N:
                    for theta in PINNED_THETA:
                        try:
                            res = evaluate_bound(bound_id, d=d, r=r, n=n, theta=theta)
                            line = repr(dataclasses.astuple(res))
                        except DomainError as exc:
                            line = repr(str(exc))
                        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_DIGEST
