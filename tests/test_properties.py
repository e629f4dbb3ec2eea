"""Cross-cutting randomized properties of the separability checks."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layersep.experiments import frequency_interval
from layersep.geometry import LayerSpec, sample_layer
from layersep.separability import (
    DEFAULT_TOL,
    fisher_point_vs_set,
    fisher_separable_set,
    lp_point_vs_set,
    verify_certificate,
)

clouds = st.fixed_dictionaries(
    {
        "d": st.integers(min_value=2, max_value=8),
        "n": st.integers(min_value=2, max_value=16),
        "r": st.sampled_from([0.0, 0.5, 0.9]),
        "seed": st.integers(min_value=0, max_value=2**63),
    }
)


def draw_cloud(params):
    layer = LayerSpec(d=params["d"], r=params["r"])
    return sample_layer(layer, params["n"] + 1, params["seed"])


@given(params=clouds)
@settings(max_examples=150, deadline=None)
def test_fisher_implies_linear(params):
    cloud = draw_cloud(params)
    x, others = cloud.points[-1], cloud.points[:-1]
    if fisher_point_vs_set(x, others).separable:
        assert lp_point_vs_set(x, others).separable


@given(params=clouds, perm_seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(params, perm_seed):
    cloud = draw_cloud(params)
    x, others = cloud.points[-1], cloud.points[:-1]
    shuffled = others[np.random.default_rng(perm_seed).permutation(len(others))]

    base = fisher_point_vs_set(x, others)
    permuted = fisher_point_vs_set(x, shuffled)
    assert base.separable == permuted.separable
    assert base.margin == permuted.margin  # same multiset of inner products

    lp_base = lp_point_vs_set(x, others)
    lp_perm = lp_point_vs_set(x, shuffled)
    # pivot order may move the margin by ulps; stay away from the threshold
    assume(abs(lp_base.margin - DEFAULT_TOL) > 100 * DEFAULT_TOL)
    assert lp_base.separable == lp_perm.separable


def scaled_margin(margin, k):
    """margin * 2**k, rounded once; a positive margin that underflows reads as
    the least positive float, one beyond float64 as inf."""
    try:
        scaled = math.ldexp(margin, k)
    except OverflowError:
        return math.copysign(math.inf, margin)
    return math.ulp(0.0) if scaled == 0.0 and margin > 0.0 else scaled


@given(params=clouds, k=st.integers(min_value=-500, max_value=500))
@settings(max_examples=100, deadline=None)
def test_scaling_by_powers_of_two(params, k):
    # both checks decide the input times 2**-e, so every verdict is the same at
    # every scale, and the margins scale exactly
    cloud = draw_cloud(params)
    x, others = cloud.points[-1], cloud.points[:-1]
    scaled_x, scaled_others = np.ldexp(x, k), np.ldexp(others, k)
    assume(np.array_equal(np.ldexp(scaled_others, -k), others))  # no coordinate lost bits
    assume(np.array_equal(np.ldexp(scaled_x, -k), x))

    base = fisher_point_vs_set(x, others)
    scaled = fisher_point_vs_set(scaled_x, scaled_others)
    assert base.separable == scaled.separable
    assert scaled.margin == scaled_margin(base.margin, 2 * k)

    lp_base = lp_point_vs_set(x, others)
    lp_scaled = lp_point_vs_set(scaled_x, scaled_others)
    assert lp_base.separable == lp_scaled.separable
    assert lp_scaled.margin == scaled_margin(lp_base.margin, k)


@given(params=clouds)
@settings(max_examples=100, deadline=None)
def test_certificates_verify(params):
    cloud = draw_cloud(params)
    x, others = cloud.points[-1], cloud.points[:-1]
    assert verify_certificate(fisher_point_vs_set(x, others), x, others)
    assert verify_certificate(lp_point_vs_set(x, others), x, others)


@given(params=clouds)
@settings(max_examples=75, deadline=None)
def test_set_report_matches_pointwise_fisher(params):
    cloud = draw_cloud(params)
    report = fisher_separable_set(cloud.points)
    expected = all(
        fisher_point_vs_set(cloud.points[i], np.delete(cloud.points, i, axis=0)).separable
        for i in range(cloud.n)
    )
    assert report.all_separable == expected


def test_wilson_monotone_in_successes():
    for trials in (1, 7, 60, 80):
        intervals = [frequency_interval(s, trials) for s in range(trials + 1)]
        for (lo_a, hi_a), (lo_b, hi_b) in zip(intervals, intervals[1:]):
            assert lo_b >= lo_a and hi_b >= hi_a
