"""Regime classification, asymptotic laws, and their convergence to the exact forms."""

import math
from types import SimpleNamespace

import pytest
from mpmath import mp
from oracles import mp_eq1_admissible, mp_fisher_gap, mp_linear_gap, mp_n_fisher

from layersep import asymptotics
from layersep.asymptotics import (
    CRITICAL_RADII,
    KNIFE_EDGE_TOL,
    classify_radius,
    eq1_asymptotic,
    fisher_gap_asymptotic,
    fisher_gap_exact,
    fisher_ratio_f_over_g,
    gap_ratio_linear_vs_fisher,
    layer_count_ratio,
)
from layersep.bounds import n_admissible
from layersep.errors import DomainError


def rel_err(got, want):
    want = float(want)
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


R_FISHER_COUNT = CRITICAL_RADII["fisher_count"]
R_COUNT_RATIO = CRITICAL_RADII["count_ratio"]
R_SET_GAP = CRITICAL_RADII["set_gap"]


# ---------------------------------------------------------------------------
# critical radii and classification


def test_critical_radius_values():
    with mp.workdps(40):
        assert R_FISHER_COUNT == float(mp.sqrt((mp.sqrt(5) - 1) / 2))
        assert R_COUNT_RATIO == float(mp.sqrt(3) / 2)
        assert R_SET_GAP == float(mp.sqrt(2) / 2)
    assert R_FISHER_COUNT == 0.7861513777574233
    assert R_COUNT_RATIO == 0.8660254037844386
    assert R_SET_GAP == 0.7071067811865476


def test_classification_sides_and_knife_edge():
    for context, critical in CRITICAL_RADII.items():
        assert classify_radius(critical - 1e-6, context).regime == "below_critical"
        assert classify_radius(critical + 1e-6, context).regime == "above_critical"
        assert classify_radius(critical, context).regime == "at_critical"
        assert classify_radius(critical + 1e-13, context).regime == "at_critical"
        tagged = classify_radius(0.5, context)
        assert tagged.critical_value == critical
        assert tagged.context == context
    assert KNIFE_EDGE_TOL == 1e-12


def test_classification_domain_errors():
    with pytest.raises(DomainError):
        classify_radius(0.5, "no_such_context")
    for bad_r in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(DomainError):
            classify_radius(bad_r, "set_gap")


# ---------------------------------------------------------------------------
# sharp Fisher count threshold


def test_eq1_asymptotic_above_critical():
    res = eq1_asymptotic(0.9, 0.1, 100)
    assert res.regime.regime == "above_critical"
    with mp.workdps(40):
        want = mp.mpf("0.1") / mp.mpf(0.9) ** 100
    assert rel_err(res.value, want) < 1e-13


def test_eq1_asymptotic_knife_edge_is_exact():
    # On the knife edge the case formula is an equality, so it must reproduce
    # the exact threshold at every dimension, not just asymptotically.
    for d in (10, 40, 200):
        approx = eq1_asymptotic(R_FISHER_COUNT, 0.5, d)
        assert approx.regime.regime == "at_critical"
        exact = n_admissible("eq1_n_fisher", d=d, r=R_FISHER_COUNT, theta=0.5)
        assert rel_err(approx.value, exact.value) < 1e-12


def test_eq1_asymptotic_below_critical_converges():
    approx = eq1_asymptotic(0.3, 0.1, 400)
    assert approx.regime.regime == "below_critical"
    exact = n_admissible("eq1_n_fisher", d=400, r=0.3, theta=0.1)
    ratio = exact.value / approx.value
    assert 0.999 < ratio < 1.001
    assert rel_err(exact.value, mp_eq1_admissible(400, 0.3, 0.1)) < 1e-12


# ---------------------------------------------------------------------------
# ratio of crude to sharp Fisher thresholds


def test_fisher_ratio_constant_on_knife_edge():
    values = []
    for d in (10, 50, 100, 200):
        law = fisher_ratio_f_over_g(R_FISHER_COUNT, 0.25, d)
        assert law.regime.regime == "at_critical"
        assert law.limit_tag == "constant"
        assert rel_err(law.exact, law.limit_value) < 1e-12
        values.append(law.exact)
    # (sqrt(1.5) + 1) / (2 sqrt(0.25)) = sqrt(1.5) + 1
    assert abs(values[0] - 2.224744871391589) < 1e-14
    assert max(values) - min(values) < 1e-12 * values[0]


def test_fisher_ratio_below_critical_tends_to_inv_sqrt2():
    law = fisher_ratio_f_over_g(0.3, 0.1, 600)
    assert law.regime.regime == "below_critical"
    assert law.limit_tag == "converges"
    assert abs(law.exact - 1.0 / math.sqrt(2.0)) < 1e-3
    want = mp_n_fisher(600, 0.3, 0.1) / mp_eq1_admissible(600, 0.3, 0.1)
    assert rel_err(law.exact, want) < 1e-12


def test_fisher_ratio_diverges_above_critical():
    lo = fisher_ratio_f_over_g(0.95, 0.1, 50)
    hi = fisher_ratio_f_over_g(0.95, 0.1, 100)
    assert lo.regime.regime == "above_critical"
    assert lo.limit_tag == "diverges"
    assert math.isinf(lo.limit_value)
    assert hi.exact > lo.exact > 1.0


# ---------------------------------------------------------------------------
# whole-ball linear count vs shell Fisher count


def test_layer_count_ratio_identity():
    res = layer_count_ratio(0.5, 0.2, 4)
    assert rel_err(res.exact, 3.0) < 1e-12  # (2 sqrt(0.75))^2
    assert res.regime.regime == "below_critical"
    assert res.limit_tag == "diverges"

    for d in (3, 57, 400):
        for theta in (0.1, 0.9):
            knife = layer_count_ratio(R_COUNT_RATIO, theta, d)
            assert abs(knife.exact - 1.0) < 1e-12
            assert knife.regime.regime == "at_critical"
            assert knife.limit_tag == "constant"


def test_layer_count_ratio_vanishes_above_critical():
    res = layer_count_ratio(0.99, 0.5, 100)
    assert res.regime.regime == "above_critical"
    assert res.limit_tag == "vanishes"
    assert res.limit_value == 0.0
    with mp.workdps(40):
        want = (2 * mp.sqrt(1 - mp.mpf(0.99) ** 2)) ** 50
    assert rel_err(res.exact, want) < 1e-12
    assert res.exact < 1e-27


def test_layer_count_ratio_identity_grid():
    for r in (0.1, 0.4, R_FISHER_COUNT, 0.9, 0.999):
        for theta in (1e-6, 0.5, 0.999):
            for d in (1, 7, 100, 400):
                res = layer_count_ratio(r, theta, d)
                assert rel_err(res.exact, res.approximant) <= 1e-12, (r, theta, d)


def test_layer_count_ratio_raises_when_identity_breaks(monkeypatch):
    # a Fisher threshold off by 1e-9 in log space breaks the identity; the
    # check must raise whatever the interpreter's optimisation level
    real = asymptotics.n_admissible

    def drifted(bound_id, **query):
        return SimpleNamespace(log_raw=real(bound_id, **query).log_raw + 1e-9)

    monkeypatch.setattr(asymptotics, "n_admissible", drifted)
    with pytest.raises(ArithmeticError, match=r"\(0\.5, 0\.2, 4, "):
        layer_count_ratio(0.5, 0.2, 4)


# ---------------------------------------------------------------------------
# set-level Fisher gap


def test_fisher_gap_asymptotic_cases():
    above = fisher_gap_asymptotic(0.9, 10, 200)
    assert above.regime.regime == "above_critical"
    with mp.workdps(40):
        assert rel_err(above.value, 10 * mp.mpf(0.9) ** 200) < 1e-12

    below = fisher_gap_asymptotic(0.5, 10, 200)
    assert below.regime.regime == "below_critical"
    with mp.workdps(40):
        assert rel_err(below.value, 45 * mp.mpf(0.75) ** 100) < 1e-12

    knife = fisher_gap_asymptotic(R_SET_GAP, 3, 40)
    assert knife.regime.regime == "at_critical"
    assert rel_err(knife.value, 6.0 / 2.0**20) < 1e-12

    lonely = fisher_gap_asymptotic(0.5, 1, 50)
    assert lonely.value == 0.0  # no pairs below critical


def test_fisher_gap_exact_against_oracle():
    # All cells keep the bound's inner factor positive; where it goes negative
    # the bound is vacuous and the gap saturates at 1 by convention.
    for d, r, n in ((5, 0.3, 3), (60, 0.5, 30), (500, 0.6, 100), (200, 0.8, 12)):
        gap, log_gap = fisher_gap_exact(d, r, n)
        want = mp_fisher_gap(d, r, n)
        assert rel_err(gap, want) < 1e-10, (d, r, n)
        assert abs(log_gap - float(mp.log(want))) < 1e-10


def test_fisher_gap_exact_below_float_resolution():
    # Bound rounds to 1.0 in plain arithmetic; the gap must survive anyway.
    gap, log_gap = fisher_gap_exact(5000, 0.9, 10)
    want = mp_fisher_gap(5000, 0.9, 10)
    assert gap > 0.0
    assert rel_err(gap, want) < 1e-9
    assert abs(log_gap - float(mp.log(want))) < 1e-9
    assert fisher_gap_exact(4, 0.1, 10)[0] == 1.0  # crowded: bound is vacuous


def test_fisher_gap_convergence():
    res = fisher_gap_asymptotic(0.6, 100, 500)
    want = mp_fisher_gap(500, 0.6, 100)
    ratio = float(want) / res.value
    assert 0.99 < ratio < 1.01


# ---------------------------------------------------------------------------
# linear gap vs Fisher gap


def test_gap_ratio_cases():
    above = gap_ratio_linear_vs_fisher(0.8, 2, 50)
    assert above.regime.regime == "above_critical"
    assert above.limit_tag == "diverges"
    with mp.workdps(40):
        assert rel_err(above.approximant, mp.mpf(1.6) ** 50) < 1e-12

    knife = gap_ratio_linear_vs_fisher(R_SET_GAP, 3, 40)
    assert knife.regime.regime == "at_critical"
    assert rel_err(knife.approximant, 2.0**20) < 1e-12


def test_gap_ratio_exact_against_oracle():
    law = gap_ratio_linear_vs_fisher(0.4, 50, 300)
    assert law.regime.regime == "below_critical"
    want = mp_fisher_gap(300, 0.4, 50) / mp_linear_gap(300, 50)
    assert rel_err(law.exact, want) < 1e-10
    ratio = float(want) / law.approximant
    assert 0.98 < ratio < 1.02


def test_gap_ratio_validation():
    with pytest.raises(DomainError):
        gap_ratio_linear_vs_fisher(0.5, 1, 10)  # needs two points for a pair
    with pytest.raises(DomainError):
        fisher_gap_asymptotic(0.5, 0, 10)
    with pytest.raises(DomainError):
        eq1_asymptotic(0.5, 0.0, 10)
    with pytest.raises(DomainError):
        eq1_asymptotic(0.0, 0.5, 10)


# ---------------------------------------------------------------------------
# convergence is monotone in d near each critical radius


def _exact_over_approx_eq1(r, theta, d):
    exact = n_admissible("eq1_n_fisher", d=d, r=r, theta=theta)
    approx = eq1_asymptotic(r, theta, d)
    return math.exp(exact.log_raw - approx.log_value)


def _exact_over_limit_fisher_ratio(r, theta, d):
    law = fisher_ratio_f_over_g(r, theta, d)
    return law.exact / law.limit_value


def _exact_over_approx_fisher_gap(r, n, d):
    _, log_gap = fisher_gap_exact(d, r, n)
    return math.exp(log_gap - fisher_gap_asymptotic(r, n, d).log_value)


def _exact_over_approx_gap_ratio(r, n, d):
    law = gap_ratio_linear_vs_fisher(r, n, d)
    return math.exp(law.log_exact - law.log_approximant)


def test_convergence_tightens_from_d200_to_d400():
    # Radii sit near each critical value so the correction terms are still
    # visible above float noise at d=400 yet already below 5% at d=200.
    cases = [
        lambda d: _exact_over_approx_eq1(0.75, 0.5, d),
        lambda d: _exact_over_approx_eq1(0.80, 0.5, d),
        lambda d: _exact_over_limit_fisher_ratio(0.77, 0.1, d),
        lambda d: _exact_over_approx_fisher_gap(0.70, 10, d),
        lambda d: _exact_over_approx_fisher_gap(0.72, 10, d),
        lambda d: _exact_over_approx_gap_ratio(0.70, 10, d),
        lambda d: _exact_over_approx_gap_ratio(0.72, 10, d),
    ]
    for i, ratio_at in enumerate(cases):
        err_200 = abs(ratio_at(200) - 1.0)
        err_400 = abs(ratio_at(400) - 1.0)
        assert err_200 < 0.05, (i, err_200)
        assert err_400 < err_200, (i, err_400, err_200)
