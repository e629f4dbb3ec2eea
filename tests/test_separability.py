import hashlib
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from layersep import dyadic, exact, separability
from layersep.errors import DomainError, EnumerationLimitError, LPStallError, check_point_set
from layersep.exact import exact_point_vs_set
from layersep.geometry import LayerSpec, sample_layer
from layersep.lp import REFACTOR_EVERY, SimplexResult, solve_standard_form
from layersep.separability import (
    DEFAULT_TOL,
    FISHER_BLOCK,
    PERCEPTRON_STEPS,
    SeparabilityCertificate,
    fisher_flags,
    fisher_margins,
    fisher_point_vs_set,
    fisher_separable_set,
    gap_error_bound,
    linearly_separable_set,
    lp_point_vs_set,
    verify_certificate,
)

import oracles


def cloud_from(points):
    return np.array(points, dtype=np.float64)


def point_and_rest(cloud, i):
    """Point i of the cloud and the set it is checked against: the other points."""
    return cloud[i], np.delete(cloud, i, axis=0)


# ---------------------------------------------------------------------------
# Fisher point checks


def test_fisher_orthogonal_pair_separable():
    cloud = cloud_from([[1.0, 0.0], [0.0, 1.0]])
    cert = fisher_point_vs_set(*point_and_rest(cloud, 0))
    assert cert.verdict == "separable"
    assert cert.method == "fisher"
    assert cert.margin == pytest.approx(1.0)
    assert np.array_equal(cert.hyperplane, [1.0, 0.0])


def test_fisher_shadowed_point_not_separable():
    cloud = cloud_from([[0.5, 0.0], [1.0, 0.0]])
    cert = fisher_point_vs_set(*point_and_rest(cloud, 0))
    assert cert.verdict == "not_separable"
    # (X,Y) = 0.5 >= (X,X) = 0.25
    assert cert.margin == pytest.approx(0.25 - 0.5)


def test_fisher_singleton_vacuous():
    cloud = cloud_from([[0.3, 0.4]])
    cert = fisher_point_vs_set(*point_and_rest(cloud, 0))
    assert cert.verdict == "separable"
    assert cert.margin == math.inf


def test_fisher_exact_tie_is_not_separable():
    # (X,Y) == (X,X) exactly: strict inequality must fail
    cert = fisher_point_vs_set(np.array([0.5, 0.0]), np.array([[0.5, 0.5]]))
    assert cert.verdict == "not_separable"
    assert cert.margin == 0.0


# ---------------------------------------------------------------------------
# Fisher set checks


def test_fisher_set_orthogonal_pair():
    report = fisher_separable_set(cloud_from([[1.0, 0.0], [0.0, 1.0]]))
    assert report.all_separable
    assert report.first_failure is None
    assert len(report.per_point) == 2


def test_fisher_set_failure_index():
    report = fisher_separable_set(cloud_from([[0.5, 0.0], [1.0, 0.0]]))
    assert not report.all_separable
    assert report.first_failure == 0
    assert report.per_point[0].verdict == "not_separable"
    assert report.per_point[1].verdict == "separable"


def test_fisher_set_singleton():
    report = fisher_separable_set(cloud_from([[0.1, 0.0]]))
    assert report.all_separable


def test_fisher_set_verdict_only_truncates():
    report = fisher_separable_set(
        cloud_from([[0.5, 0.0], [1.0, 0.0]]), verdict_only=True
    )
    assert not report.all_separable
    assert report.first_failure == 0
    assert len(report.per_point) == 1


def test_fisher_set_matches_per_point_calls():
    cloud = sample_layer(LayerSpec(d=6, r=0.3), 40, seed=3).points
    report = fisher_separable_set(cloud)
    for i, cert in enumerate(report.per_point):
        solo = fisher_point_vs_set(*point_and_rest(cloud, i))
        assert solo.verdict == cert.verdict
        assert solo.margin == pytest.approx(cert.margin, rel=1e-12, abs=1e-15)
    assert report.all_separable == all(c.separable for c in report.per_point)


# ---------------------------------------------------------------------------
# the Fisher kernel shared by the point check and both set checks


def test_fisher_point_margin_bit_identical_under_row_permutation():
    rng = np.random.default_rng(2020)
    for trial in range(3000):
        d = int(rng.integers(1, 60))
        k = int(rng.integers(1, 40))
        layer = LayerSpec(d=d, r=(0.0, 0.5, 0.9)[trial % 3])
        cloud = sample_layer(layer, k + 1, seed=int(rng.integers(2**62))).points
        x, others = cloud[-1], cloud[:-1]
        shuffled = others[rng.permutation(k)]
        base, permuted = fisher_point_vs_set(x, others), fisher_point_vs_set(x, shuffled)
        assert base.verdict == permuted.verdict
        assert base.margin == permuted.margin, (trial, d, k)


def test_fisher_point_check_holds_no_cloud_sized_array():
    # the finiteness test reduces; it builds no n x d mask
    points = sample_layer(LayerSpec(d=59, r=0.5), 10001, seed=8).points
    fisher_point_vs_set(points[0], points[1:10])
    cert, peak = oracles.traced_peak(fisher_point_vs_set, points[0], points[1:])
    assert cert.verdict in ("separable", "not_separable")
    assert peak <= 0.05 * points[1:].nbytes


@pytest.mark.parametrize(
    "values",
    [[], [0.0], [-0.0], [-0.0, 0.0], [-3.0, 2.0], [1e-320, -5e-324], [-np.inf, 1.0],
     [np.inf], [1.0, np.nan, -2.0], [[0.5, -0.75], [0.25, 0.0]]],
)
def test_peak_equals_the_largest_magnitude(values):
    a = np.array(values, dtype=np.float64)
    want = np.float64(np.abs(a).max(initial=0.0))
    assert np.float64(dyadic.peak(a)).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "arrays",
    [[], [[], []], [[-0.0], []], [[], [-0.0, 0.0]], [[1e-320], [-5e-324]],
     [[-2e-310, 0.0], [1e-320]], [[-np.finfo(float).max], [1.0, 2.0]],
     [[3.0], [-3.0]], [[0.5, -0.75], [[0.25, 0.0], [-1.5, 0.0]]],
     [[0.25], [-0.0], [np.finfo(float).max, -1.0]]],
)
def test_peak_and_exponent_of_several_arrays(arrays):
    # equal to the reduction over the concatenation, and its frexp exponent
    arrays = [np.array(values, dtype=np.float64) for values in arrays]
    want = np.abs(np.concatenate([np.zeros(0), *(a.ravel() for a in arrays)])).max(initial=0.0)
    assert np.float64(dyadic.peak(*arrays)).tobytes() == want.tobytes()
    assert dyadic.split_peak(dyadic.peak(*arrays))[1] == math.frexp(float(want))[1]


class _NoNumPyPeak(np.ndarray):
    def max(self, *args, **kwargs):
        raise AssertionError("max called on a small array")

    min = max


def _two_reduction_peak(*arrays):
    return max((max(float(a.max(initial=0.0)), -float(a.min(initial=0.0))) for a in arrays),
               default=0.0) + 0.0


def _peak_inputs(size, rng):
    # random floats; NaN first and last; +-inf; signed zeros; subnormals;
    # magnitudes whose sum overflows; each also as a 2-d array
    values = rng.standard_normal(size)
    arrays = [values, np.where(rng.random(size) < 0.5, -0.0, 0.0),
              rng.choice((-1.0, 1.0), size) * 2.0**-1074 * rng.integers(1, 2**20, size),
              rng.choice((-1e308, 1e308, 0.5), size)]
    for index, special in ((0, np.nan), (-1, np.nan), (0, np.inf), (-1, -np.inf), (-1, -1e308)):
        if size:
            arrays.append(values.copy())
            arrays[-1][index] = special
    arrays.append(np.full(size, -np.inf))
    for a in arrays:
        yield a
        yield a.reshape(-1, 4 if size % 4 == 0 else 1)


@pytest.mark.parametrize("size", [0, 1, dyadic.PICK_ON_FLOATS, dyadic.PICK_ON_FLOATS + 1])
def test_peak_on_floats_is_the_two_reduction_value(size):
    # the same float as NumPy's max and min of each array, NaN and inf
    # included, alone and beside other arrays; up to PICK_ON_FLOATS entries
    # the peak never reaches NumPy's max/min
    rng = np.random.default_rng(size)
    inputs = list(_peak_inputs(size, rng))
    others = [np.array([0.25]), np.array([np.nan, 1.0]), np.full(40, 2.0), np.zeros((0, 3))]

    def guarded(a):
        return a.view(_NoNumPyPeak) if a.size <= dyadic.PICK_ON_FLOATS else a

    for a in inputs:
        assert repr(dyadic.peak(guarded(a))) == repr(_two_reduction_peak(a)), a
        for other in others:
            for pair in ((a, other), (other, a), (a, other, a)):
                want = _two_reduction_peak(*pair)
                assert repr(dyadic.peak(*map(guarded, pair))) == repr(want), pair


@pytest.mark.parametrize("x, others", [
    ([-0.0, 0.0], np.zeros((0, 2))), ([0.25, -3.0], [[1e-320, 2.0]]), ([1e-320], [[-5e-324]]),
    ([0.5, 0.0], [[0.0, -np.finfo(float).max], [1.0, 1.0]]), ([-0.0], [[-0.0]]),
])
def test_point_set_check_returns_the_peak(x, others):
    # check_point_set reads the peak off its finiteness reductions, so the
    # checks take their exponent from it with no further pass
    x, others, (top, e) = check_point_set(x, others)
    want = dyadic.peak(x, others)
    assert np.float64(math.ldexp(top, e)).tobytes() == np.float64(want).tobytes()
    assert (top, e) == dyadic.split_peak(want) == math.frexp(want)


@pytest.mark.parametrize("value, e, want", [
    (1.5, 3, 12.0), (-1.5, -3, -0.1875), (0.0, 5000, 0.0), (-0.0, 9, -0.0),
    (0.25, -1074, math.ulp(0.0)), (2.0**-60, -1020, math.ulp(0.0)), (0.5, -1074, math.ulp(0.0)),
    (0.75, -1074, math.ulp(0.0)), (3.0, -1075, 2 * math.ulp(0.0)), (-0.25, -1074, -0.0),
    (1.0, 1023, 2.0**1023), (1.0, 1024, math.inf), (-0.5, 2000, -math.inf),
])
def test_times_two_to_rounds_once_and_keeps_a_positive_sign(value, e, want):
    got = dyadic.times_two_to(e, value)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_fisher_margins_match_brute_force_across_blocks():
    for n in (1, 2, 3, FISHER_BLOCK - 1, FISHER_BLOCK, FISHER_BLOCK + 1, 2 * FISHER_BLOCK + 7):
        cloud = sample_layer(LayerSpec(d=7, r=0.2), n, seed=n).points
        pts = cloud
        gram = pts @ pts.T
        np.fill_diagonal(gram, -np.inf)
        want = np.diag(pts @ pts.T) - gram.max(axis=1) if n > 1 else np.full(1, np.inf)
        got = fisher_margins(pts)
        assert got.shape == (n,)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        verdicts = [fisher_point_vs_set(*point_and_rest(cloud, i)).separable for i in range(n)]
        assert (got > 0.0).tolist() == verdicts
        assert fisher_flags(pts).tolist() == verdicts


def dyadic_cloud(rng, d, n):
    # coordinates on a grid of 1/16ths (norms stay below 1 for d <= 16):
    # every inner product is exact, and many pairs tie exactly, (X, Y) == (X, X)
    return cloud_from(rng.integers(-4, 5, size=(n, d)) / 16.0)


def near_tie_cloud(rng, d, n):
    # every point Y_j = X + e_j with e_j orthogonal to X up to rounding:
    # (X, Y_j) and (X, X) agree to a few ulps, so the sign of each margin is
    # decided by rounding, the case where GEMM and row products can disagree
    x = rng.standard_normal(d)
    x *= 0.5 / np.linalg.norm(x)
    e = rng.standard_normal((n - 1, d))
    e -= np.outer(e @ x / (x @ x), x)
    e *= 1e-9 / np.linalg.norm(e, axis=1, keepdims=True)
    return cloud_from(np.vstack([x, x + e])[rng.permutation(n)])


@pytest.mark.parametrize("make", [dyadic_cloud, near_tie_cloud])
def test_fisher_set_flags_equal_point_verdicts_on_ties(make):
    rng = np.random.default_rng(7)
    ties = 0
    for _ in range(200):
        cloud = make(rng, int(rng.integers(2, 9)), int(rng.integers(2, 25)))
        solo = [fisher_point_vs_set(*point_and_rest(cloud, i)) for i in range(len(cloud))]
        ties += sum(c.margin == 0.0 for c in solo)
        report = fisher_separable_set(cloud)
        assert [c.verdict for c in report.per_point] == [c.verdict for c in solo]
        assert [c.verdict for c in linearly_separable_set(cloud).per_point if c.method == "fisher"] == [
            "separable" for c in solo if c.separable
        ]
        failures = [i for i, c in enumerate(solo) if not c.separable]
        quick = fisher_separable_set(cloud, verdict_only=True)
        assert quick.first_failure == report.first_failure == (failures[0] if failures else None)
    assert ties > 0


def test_fisher_set_early_exit_returns_first_failure():
    cloud = sample_layer(LayerSpec(d=40, r=0.5), 3 * FISHER_BLOCK, seed=11).points
    assert fisher_separable_set(cloud, verdict_only=True).all_separable
    for first in (0, FISHER_BLOCK - 1, FISHER_BLOCK, 2 * FISHER_BLOCK + 5, 3 * FISHER_BLOCK - 1):
        pts = cloud.copy()
        # a shadowed point X next to 2X has (X, 2X) = 2 (X, X) > (X, X)
        for i in (first, first + 3):
            if i < len(pts):
                pts[i] = 0.5 * pts[i - 1]
        shadowed = cloud_from(pts)
        quick = fisher_separable_set(shadowed, verdict_only=True)
        full = fisher_separable_set(shadowed)
        assert quick.first_failure == full.first_failure == first
        assert not quick.all_separable
        assert len(quick.per_point) == first + 1
        assert quick.per_point[-1].verdict == "not_separable"
        assert len(full.per_point) == len(pts)


@pytest.mark.parametrize("d", [10, 80])
def test_fisher_flags_reuse_the_threads_gram_block(d):
    # after a warm-up on this thread no Gram block is allocated: the peak stays
    # below one block plus the two float32 copies of the cloud
    n = 1000
    pts = sample_layer(LayerSpec(d, 0.5), n, 3).points
    want = fisher_flags(pts)
    flags, peak = oracles.traced_peak(fisher_flags, pts)
    assert flags.tolist() == want.tolist()
    assert peak < FISHER_BLOCK * n * 4 + 2 * n * d * 4


def test_fisher_flags_threads_share_no_gram_block():
    # each thread grows its own buffer and reuses it as a prefix, in its own order
    sizes = (1, FISHER_BLOCK - 1, FISHER_BLOCK + 1, 1000, 1300)
    clouds = [sample_layer(LayerSpec(d, 0.5), n, seed=n + d).points
              for n in sizes for d in (4, 30)]
    want = [(fisher_flags(p).tolist(), fisher_flags(p, stop_at_failure=True).tolist())
            for p in clouds]
    assert any(len(quick) < len(full) for full, quick in want)
    start = threading.Barrier(3)
    got = {}

    def scan(seed):
        order = np.random.default_rng(seed).permutation(len(clouds)).tolist()
        start.wait()
        for _ in range(3):
            for i in order:
                got.setdefault((seed, i), []).append(
                    (fisher_flags(clouds[i]).tolist(),
                     fisher_flags(clouds[i], stop_at_failure=True).tolist()))

    threads = [threading.Thread(target=scan, args=(seed,)) for seed in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == {(seed, i): [want[i]] * 3 for seed in range(3) for i in range(len(clouds))}


def eager_fisher_set(cloud, verdict_only):
    """Per-point certificates built eagerly, point by point, as the set check
    did before its certificates were built on demand."""
    margins = fisher_margins(cloud)
    certs = []
    for i, margin in enumerate(margins):
        ok = bool(margin > 0.0)
        certs.append(
            SeparabilityCertificate(
                "separable" if ok else "not_separable",
                "fisher",
                float(margin),
                hyperplane=cloud[i].copy() if ok else None,
            )
        )
        if verdict_only and not ok:
            break
    return certs


def eager_perceptron(points, i, tol=DEFAULT_TOL):
    """The perceptron stage of the cascade for point i, written out step by step."""
    x, d = points[i], points.shape[1]
    peak = np.abs(points).max()
    normal = x.copy()
    for _ in range(PERCEPTRON_STEPS):
        products = points @ normal
        top = products[i]
        products[i] = -np.inf
        j = int(np.argmax(products))
        gap = float(top - products[j])
        a_peak = float(np.abs(normal).max())
        band = gap_error_bound(d, a_peak, float(np.abs(x).max()), float(peak))
        if gap > band + tol * peak * a_peak:
            return SeparabilityCertificate("separable", "perceptron", gap, hyperplane=normal)
        normal = normal + 0.5 * (x - points[j])
    return None


def eager_linear_set(cloud, verdict_only):
    """Per-point certificates of the Fisher, perceptron, simplex cascade, built
    eagerly, point by point."""
    margins = fisher_margins(cloud)
    certs = []
    for i, margin in enumerate(margins):
        if margin > 0.0:
            certs.append(
                SeparabilityCertificate(
                    "separable", "fisher", float(margin), hyperplane=cloud[i].copy()
                )
            )
            continue
        cert = eager_perceptron(cloud, i) or lp_point_vs_set(*point_and_rest(cloud, i))
        certs.append(cert)
        if verdict_only and not cert.separable:
            break
    return certs


def assert_same_certificates(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.verdict, a.method) == (b.verdict, b.method)
        assert a.margin == b.margin or (math.isnan(a.margin) and math.isnan(b.margin))
        for field in ("hyperplane", "coefficients"):
            u, v = getattr(a, field), getattr(b, field)
            assert (u is None) == (v is None)
            if u is not None:
                assert np.array_equal(u, v)


@pytest.mark.parametrize("verdict_only", [False, True])
def test_lazy_per_point_matches_eager_certificates(verdict_only):
    clouds = [
        cloud_from([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
        cloud_from([[0.5, 0.0], [1.0, 0.0]]),
        cloud_from([[0.1, 0.0]]),
        sample_layer(LayerSpec(d=2, r=0.0), 30, seed=5).points,
        sample_layer(LayerSpec(d=3, r=0.9), 40, seed=6).points,
        sample_layer(LayerSpec(d=25, r=0.0), 60, seed=9).points,
    ]
    for cloud in clouds:
        fisher = fisher_separable_set(cloud, verdict_only=verdict_only)
        assert_same_certificates(fisher.per_point, eager_fisher_set(cloud, verdict_only))
        linear = linearly_separable_set(cloud, verdict_only=verdict_only)
        want = eager_linear_set(cloud, verdict_only)
        assert_same_certificates(linear.per_point, want)
        assert linear.lp_calls == sum(c.method in ("perceptron", "lp") for c in want)
        assert linear.simplex_runs == sum(c.method == "lp" for c in want)
        assert linear.lp_skipped_by_fisher == sum(c.method == "fisher" for c in want)
        failures = [i for i, c in enumerate(want) if not c.separable]
        assert linear.first_failure == (failures[0] if failures else None)
        assert linear.per_point is linear.per_point  # built once


@pytest.mark.parametrize("check", [
    lambda cloud: fisher_separable_set(cloud),
    lambda cloud: fisher_separable_set(cloud, verdict_only=True),
    lambda cloud: linearly_separable_set(cloud, verdict_only=True),
], ids=["fisher", "fisher-verdict-only", "linear-verdict-only"])
def test_set_checks_compute_float64_margins_only_when_read(monkeypatch, check):
    # the set checks need only each margin's sign, which the float32 pass
    # decides; a margin's float64 value is computed when a caller reads it
    cloud = sample_layer(LayerSpec(d=40, r=0.5), 1000, seed=13).points
    calls = []
    point_margin = separability._point_margin

    def counted(*args):
        calls.append(1)
        return point_margin(*args)

    monkeypatch.setattr(separability, "_point_margin", counted)
    report = check(cloud)
    assert report.all_separable and len(report.flags) == len(cloud)
    assert calls == []
    certs = report.per_point
    assert len(calls) == len(cloud)
    assert report.margins.tolist() == [cert.margin for cert in certs]
    for i, cert in enumerate(certs):
        assert cert.method == "fisher"
        assert cert.margin == fisher_point_vs_set(*point_and_rest(cloud, i)).margin


# two points whose float32 Gram margin has the wrong sign, whatever the order
# of the float32 sum and with or without FMA: the float64 margin of the first
# is -1.1e-16, its float32 margin +6.0e-8, and only the band sends it to the
# float64 fallback
WRONG_FLOAT32_SIGN = [[-0.5910844069833844, -0.7625824756369749],
                      [-0.591082002952186, -0.7625843390227733]]


# row 1 lies at the float32 subnormal scale: its float64 margin is +6.5e-87,
# while float32 products rounded one by one give its Gram margin as -2**-149;
# only the band's underflow term sends it to the fallback (an FMA sum gives 0)
SUBNORMAL_FLOAT32_SIGN = [
    [0.25657328663720164, 0.2597714092060477, 0.822611064564104],
    [5.044847887493958e-44, -3.473857756699519e-44, -4.886388876324412e-45],
    [-1.352034811701618e-43, -1.5666013001240686e-43, 2.7017689093817312e-43],
]


def mixed_magnitude_cloud(rng, d, n):
    # coordinates of normal size next to ones at 2**-145 (float32 subnormals,
    # cast with lost bits) and 2**-160 (below the float32 range: cast to 0),
    # and whole rows at those sizes, whose float32 margin is 0 or noise
    pts = rng.uniform(-1.0, 1.0, size=(n, d)) / math.sqrt(d)
    pts[:, 1::3] *= 2.0**-145
    pts[:, 2::3] *= 2.0**-160
    pts[1::3] *= 2.0**-150
    return cloud_from(pts)


def scaled_down_cloud(rng, d, n):
    # 2**-600 leaves the float64 products below the normal range, so the point
    # check's margins are rounding noise: the float32 pass must not decide them
    make = (near_tie_cloud, dyadic_cloud)[int(rng.integers(2))]
    return cloud_from(make(rng, d, n) * 2.0**-600)


def assert_same_floats(got, want):
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def assert_reports_equal_point_checks(cloud):
    solo = [fisher_point_vs_set(*point_and_rest(cloud, i)) for i in range(len(cloud))]
    for verdict_only in (False, True):
        for report in (check(cloud, verdict_only=verdict_only)
                       for check in (fisher_separable_set, linearly_separable_set)):
            inspected = solo[: len(report.flags)]
            assert report.flags.tolist() == [c.separable for c in inspected]
            assert_same_floats(report.margins, [c.margin for c in inspected])
            for cert, want in zip(report.per_point, inspected):
                if cert.method == "fisher":
                    assert cert.verdict == want.verdict
                    assert_same_floats(cert.margin, want.margin)
    return solo


@pytest.mark.parametrize("make", [near_tie_cloud, dyadic_cloud, mixed_magnitude_cloud,
                                  scaled_down_cloud])
def test_set_report_margins_equal_point_margins(make):
    rng = np.random.default_rng(13)
    undecided = 0
    for _ in range(60):
        cloud = make(rng, int(rng.integers(2, 9)), int(rng.integers(2, 25)))
        solo = assert_reports_equal_point_checks(cloud)
        undecided += sum(not c.separable for c in solo)
    assert undecided > 0


def test_set_report_overrules_a_wrong_float32_sign():
    cloud = cloud_from(WRONG_FLOAT32_SIGN)
    rows = cloud.astype(np.float32)
    gram = rows @ rows.T
    assert gram[0, 0] - gram[0, 1] > 0.0
    assert not fisher_point_vs_set(*point_and_rest(cloud, 0)).separable
    assert_reports_equal_point_checks(cloud)
    cloud = cloud_from(SUBNORMAL_FLOAT32_SIGN)
    assert fisher_point_vs_set(*point_and_rest(cloud, 1)).separable
    assert_reports_equal_point_checks(cloud)


def test_fisher_flags_equal_point_verdicts_where_float64_overflows():
    # at 2**600 the unscaled float64 products would overflow; the checks decide
    # the cloud times 2**-e, and margins beyond float64 come back as +-inf
    # (with no warning, which the suite would turn into an error)
    rng = np.random.default_rng(17)
    for make in (near_tie_cloud, dyadic_cloud):
        for _ in range(20):
            pts = make(rng, int(rng.integers(2, 9)), int(rng.integers(2, 25))) * 2.0**600
            solo = [fisher_point_vs_set(pts[i], np.delete(pts, i, axis=0))
                    for i in range(len(pts))]
            assert fisher_flags(pts).tolist() == [c.separable for c in solo]
            assert_same_floats(fisher_margins(pts), [c.margin for c in solo])


def test_sign_band_sends_every_row_to_the_fallback_where_its_bound_fails():
    norms = np.array([0.0, 0.5, 1.0])
    band = separability._sign_band(40, norms)
    assert np.all(np.isfinite(band)) and np.all(band > 0.0)
    # gamma_{d+2} is undefined from d + 2 = 2**24 on; no such cloud is built
    assert np.all(np.isfinite(separability._sign_band(2**24 - 3, norms)))
    for d in (2**24 - 2, 2**24, 2**60):
        assert np.all(separability._sign_band(d, norms) == np.inf)
    for bad in (np.nan, np.inf, -np.inf, -0.5):
        assert np.all(separability._sign_band(40, np.array([0.5, bad, 0.0])) == np.inf)


# ---------------------------------------------------------------------------
# linear (LP) point checks


def test_lp_two_distinct_points_separable():
    cloud = cloud_from([[0.5, 0.0], [1.0, 0.0]])
    cert = lp_point_vs_set(*point_and_rest(cloud, 0))
    assert cert.verdict == "separable"
    assert cert.method == "lp"
    assert cert.hyperplane is not None
    assert verify_certificate(cert, cloud[0], cloud[1:])


def test_lp_midpoint_of_segment():
    cloud = cloud_from([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    cert = lp_point_vs_set(*point_and_rest(cloud, 1))
    assert cert.verdict == "not_separable"
    assert cert.coefficients == pytest.approx([0.5, 0.5], abs=1e-9)
    others = np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert verify_certificate(cert, cloud[1], others)


def test_lp_duplicate_point_not_separable():
    cloud = cloud_from([[0.5, 0.1], [0.5, 0.1], [0.9, 0.0]])
    cert = lp_point_vs_set(*point_and_rest(cloud, 0))
    assert cert.verdict == "not_separable"


def test_lp_singleton_vacuous():
    cert = lp_point_vs_set(np.array([0.5, 0.0]), np.zeros((0, 2)))
    assert cert.verdict == "separable"
    assert cert.margin == math.inf


def test_lp_margin_matches_l1_distance_on_square():
    # X at the origin, hull = unit square around it shifted right:
    # distance in L1 from (0,0) to conv{(1,±1),(3,±1)} is 1
    others = np.array([[1.0, 1.0], [1.0, -1.0], [3.0, 1.0], [3.0, -1.0]])
    cert = lp_point_vs_set(np.zeros(2), others)
    assert cert.verdict == "separable"
    assert cert.margin == pytest.approx(1.0, abs=1e-9)
    assert np.abs(cert.hyperplane).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("e", [27, 60, 500])
def test_lp_decides_the_triangle_at_large_scales(e):
    # the crash basis has determinant +-1 at any scale, but its condition
    # estimate (1 + |x - y_j|_1)^2 passes 1/eps from about 2**26 on, where a
    # condition test once rejected it as singular
    scale = 2.0**e
    triangle = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]) * scale
    cert = lp_point_vs_set(triangle[0], triangle[1:])
    assert cert.verdict == exact_point_vs_set(triangle[0], triangle[1:]).verdict == "separable"
    assert cert.margin == 1.5 * scale
    assert verify_certificate(cert, triangle[0], triangle[1:])
    inside = np.array([0.125, 0.25]) * scale
    assert (lp_point_vs_set(inside, triangle).verdict
            == exact_point_vs_set(inside, triangle).verdict == "not_separable")


def times_two_to(value, e):
    """value * 2**e as the checks scale a margin back: a positive value that
    underflows reads as the least positive float."""
    scaled = math.ldexp(value, e)
    return math.ulp(0.0) if scaled == 0.0 and value > 0.0 else scaled


TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])


@pytest.mark.parametrize("e", [-1000, -600, -150, 27, 300, 520])
def test_lp_decides_scaled_programs_as_at_unit_scale(e):
    # the LP decides x and the set times 2**-(their exponent), so a program
    # times 2**e gives the unit program's verdict, normal and coefficients bit
    # for bit, and its margin times 2**e; the suite turns RuntimeWarnings into
    # errors, so no overflow warning passes either
    programs = [(TRIANGLE[0], TRIANGLE[1:]), (np.array([0.125, 0.25]), TRIANGLE),
                *itertools.islice(simplex_pin_instances(), 800)]
    for x, others in programs:
        unit = lp_point_vs_set(x, others)
        scaled = lp_point_vs_set(np.ldexp(x, e), np.ldexp(others, e))
        assert (scaled.verdict, scaled.method) == (unit.verdict, unit.method)
        assert scaled.margin == times_two_to(unit.margin, e)
        for field in ("hyperplane", "coefficients"):
            u, v = getattr(unit, field), getattr(scaled, field)
            assert (u is None) == (v is None) and (u is None or u.tobytes() == v.tobytes())


def test_lp_decides_differences_beyond_float64():
    # x - y overflows float64 here, but not on the input times 2**-1024; the
    # margin 2 * 1e308 comes back as inf, with no warning
    x = np.array([1e308, 0.0])
    others = np.array([[-1e308, 0.0], [0.0, 1e308]])
    cert = lp_point_vs_set(x, others)
    assert cert.separable and cert.margin == math.inf
    assert cert.hyperplane.tolist() == [1.0, -1.0]
    assert exact_point_vs_set(x, others).separable


@pytest.mark.parametrize("e, margin", [(-500, 2.0**-1000), (-540, math.ulp(0.0)),
                                       (-600, math.ulp(0.0)), (600, math.inf)])
def test_fisher_decides_the_triangle_at_extreme_scales(e, margin):
    # the float64 products of the triangle at 2**-540 underflow, and at 2**600
    # they overflow; on the input times 2**-(its exponent) they do neither, and
    # the margin 2**(2e) comes back as the least positive float or inf
    points = np.ldexp(TRIANGLE, e)
    cert = fisher_point_vs_set(points[0], points[1:])
    assert cert.separable and cert.margin == margin
    if e < 0:  # the re-check multiplies the unscaled normal and points
        assert verify_certificate(cert, points[0], points[1:])
    assert not fisher_point_vs_set(points[2] / 8, points).separable
    report = fisher_separable_set(cloud_from(np.ldexp(TRIANGLE, min(e, -1))))
    assert report.flags.tolist() == [c.separable for c in report.per_point] == [True] * 3
    assert np.all(report.margins > 0.0)


def test_lp_tol_validation():
    cloud = cloud_from([[0.5, 0.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        lp_point_vs_set(cloud[0], cloud[1:], tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_lp_rejects_non_finite_tol(tol):
    # a NaN or infinite tol once turned this separable point into a silent
    # "not_separable" verdict with margin 4.38
    x = np.array([5.0, 0.0, 0.0])
    others = sample_layer(LayerSpec(d=3, r=0.5), 6, 1).points
    assert lp_point_vs_set(x, others, tol=1e-9).separable
    with pytest.raises(DomainError):
        lp_point_vs_set(x, others, tol=tol)


def test_lp_matches_exact_oracle_near_layer():
    # query point vs a tight shell cloud: verdict must match the oracle
    rng_cloud = sample_layer(LayerSpec(d=2, r=0.95), 50, seed=2024)
    x = np.array([0.9, 0.0])
    lp_cert = lp_point_vs_set(x, rng_cloud.points)
    oracle_cert = exact_point_vs_set(x, rng_cloud.points)
    assert lp_cert.verdict == oracle_cert.verdict


# Wendel's theorem: the layer is symmetric about the origin for every r, so the
# origin is separable from n sampled points with probability
# oracles.wendel_probability(n, d), at plan sizes the exact oracle cannot reach
WENDEL_Z = 5.0  # fixed before the first run; the seeds are never changed to pass


@pytest.mark.parametrize("d, n, r, trials", [
    (3, 8, 0.5, 1000), (10, 20, 0.0, 1000), (20, 36, 0.9, 400), (30, 60, 0.5, 200),
])
def test_origin_verdicts_follow_wendel(d, n, r, trials):
    layer = LayerSpec(d=d, r=r)
    hits = sum(lp_point_vs_set(np.zeros(d), sample_layer(layer, n, 1000 * d + s).points).separable
               for s in range(trials))
    p = float(oracles.wendel_probability(n, d))
    z = (hits - trials * p) / math.sqrt(trials * p * (1.0 - p))
    assert abs(z) < WENDEL_Z, (hits, trials, p, z)


@pytest.mark.parametrize("d, seeds", [(5, 100), (12, 50), (30, 20)])
def test_origin_verdict_is_one_per_seed_across_radii(d, seeds):
    # the sampler draws the directions before the radii, so one seed gives the
    # same directions at every r, and whether the origin is separable depends
    # on the directions alone
    verdicts = set()
    for s in range(2**32, 2**32 + seeds):
        seen = {lp_point_vs_set(np.zeros(d), sample_layer(LayerSpec(d=d, r=r), 2 * d, s).points)
                .separable for r in (0.0, 0.5, 0.9, 0.99)}
        assert len(seen) == 1, (d, s)
        verdicts |= seen
    assert verdicts == {False, True}  # n = 2d: either verdict has probability 1/2


# ---------------------------------------------------------------------------
# linear set checks


def test_lp_set_circle_points_all_separable():
    ang = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    report = linearly_separable_set(cloud_from(pts))
    assert report.all_separable
    assert report.first_failure is None
    assert report.lp_calls + report.lp_skipped_by_fisher == 12


def test_lp_set_collinear_midpoint():
    report = linearly_separable_set(cloud_from([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    assert not report.all_separable
    assert report.first_failure == 1
    assert len(report.per_point) == 3  # full mode inspects every point


def test_lp_set_verdict_only_early_exit():
    report = linearly_separable_set(
        cloud_from([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), verdict_only=True
    )
    assert not report.all_separable
    assert report.first_failure == 1
    assert len(report.per_point) == 2
    assert report.lp_calls + report.lp_skipped_by_fisher == 2


def test_lp_set_fisher_prescreen_method_labels():
    cloud = sample_layer(LayerSpec(d=25, r=0.0), 60, seed=9).points
    report = linearly_separable_set(cloud)
    fisher_certs = [c for c in report.per_point if c.method == "fisher"]
    lp_certs = [c for c in report.per_point if c.method == "lp"]
    perceptron_certs = [c for c in report.per_point if c.method == "perceptron"]
    assert len(fisher_certs) == report.lp_skipped_by_fisher
    assert len(lp_certs) == report.simplex_runs
    assert len(lp_certs) + len(perceptron_certs) == report.lp_calls
    # the pre-screen only ever skips separable points
    assert all(c.separable for c in fisher_certs)


@pytest.mark.parametrize("e", [-600, 600])
def test_linear_set_check_decides_a_scaled_set_as_at_unit_scale(e):
    # the perceptron stage runs on the set times 2**-e: on the set as given its
    # products underflow at 2**-600, so it certified nothing and every open row
    # went to the simplex, and they overflow at 2**600
    points = sample_layer(LayerSpec(d=10, r=0.8), 1000, seed=16).points
    unit, scaled = linearly_separable_set(points), linearly_separable_set(np.ldexp(points, e))
    assert scaled.flags.tolist() == unit.flags.tolist()
    methods = [(i, c.verdict, c.method) for i, c in sorted(unit.lp_certificates.items())]
    assert [(i, c.verdict, c.method) for i, c in sorted(scaled.lp_certificates.items())] == methods
    assert sum(method == "perceptron" for *_, method in methods) > 20


def set_lp_clouds(count):
    # shaped like the set_lp benchmark: n=1000, d 8-12, r 0.8/0.9, where the
    # Fisher test leaves a few dozen points of each cloud open
    rng = np.random.default_rng(12)
    for t in range(count):
        layer = LayerSpec(d=int(rng.integers(8, 13)), r=(0.8, 0.9)[t % 2])
        yield sample_layer(layer, 1000, seed=int(rng.integers(2**62))).points


def tie_clouds():
    for make in (dyadic_cloud, near_tie_cloud):
        rng = np.random.default_rng(7)
        for _ in range(200):
            yield make(rng, int(rng.integers(2, 9)), int(rng.integers(2, 25)))


def test_perceptron_certificates_are_sound():
    # every perceptron certificate re-checks, and the LP and, where the
    # instance is small enough, the exact oracle call its point separable
    stage = set()
    oracle_checked = 0
    set_lp_open = set_lp_simplex = 0
    for cloud in [*set_lp_clouds(6), *tie_clouds()]:
        quick = linearly_separable_set(cloud, verdict_only=True)
        report = linearly_separable_set(cloud)
        for checked in (quick, report):
            assert checked.lp_calls + checked.lp_skipped_by_fisher == len(checked.per_point)
            assert checked.simplex_runs <= checked.lp_calls
            assert checked.simplex_runs == sum(c.method == "lp" for c in checked.per_point)
        if len(cloud) == 1000:
            set_lp_open += report.lp_calls
            set_lp_simplex += report.simplex_runs
        for i, cert in report.lp_certificates.items():
            if cert.method != "perceptron":
                continue
            stage.add(len(cloud))
            x, others = cloud[i], np.delete(cloud, i, axis=0)
            assert cert.separable
            assert verify_certificate(cert, x, others)
            assert lp_point_vs_set(x, others).separable
            try:
                assert exact_point_vs_set(x, others, max_subsets=300).separable
                oracle_checked += 1
            except EnumerationLimitError:
                pass
    assert 1000 in stage and len(stage) > 1  # the stage ran on both kinds of cloud
    assert oracle_checked > 0
    # the stage settles most points the Fisher test leaves open in set_lp clouds
    assert set_lp_simplex < set_lp_open / 4


def test_perceptron_stage_needs_its_rounding_band(monkeypatch):
    # with a vanishing tolerance only the rounding-error band keeps the stage
    # from accepting a normal whose computed gaps are rounding noise: on the
    # near-tie clouds the gaps are ~1e-18 against products of ~0.25 (on the
    # dyadic clouds every product is exact, so the stage certifies points)
    def undecided(x, others, tol):
        return SeparabilityCertificate("not_separable", "lp", 0.0)

    monkeypatch.setattr(separability, "lp_point_vs_set", undecided)
    certified = 0
    for cloud in tie_clouds():
        report = linearly_separable_set(cloud, tol=1e-300)
        for i, cert in report.lp_certificates.items():
            if cert.method == "perceptron":
                others = np.delete(cloud, i, axis=0)
                assert oracles.exact_hyperplane_separates(cloud[i], others, cert.hyperplane)
                certified += 1
    assert certified > 0


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_oracle_midpoint():
    cloud = cloud_from([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    cert = exact_point_vs_set(*point_and_rest(cloud, 1))
    assert cert.verdict == "not_separable"
    assert cert.method == "exact_oracle"


def test_exact_oracle_triangle_barycentric():
    x = np.array([0.25, 0.25])
    others = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cert = exact_point_vs_set(x, others)
    assert cert.verdict == "not_separable"
    assert cert.coefficients == pytest.approx([0.5, 0.25, 0.25], abs=1e-15)
    # coefficients reconstruct the point exactly in rational arithmetic
    l2, affine_gap = oracles.exact_combination_residual(x, others, cert.coefficients)
    assert l2 == 0.0 and affine_gap == 0.0


def test_exact_oracle_agrees_with_lp_small_random():
    cloud = sample_layer(LayerSpec(d=3, r=0.0), 12, seed=42).points
    for i in range(len(cloud)):
        lp_cert = lp_point_vs_set(*point_and_rest(cloud, i))
        oracle_cert = exact_point_vs_set(*point_and_rest(cloud, i))
        assert lp_cert.verdict == oracle_cert.verdict, f"disagreement at point {i}"


def test_exact_oracle_empty_set_separable():
    cert = exact_point_vs_set(np.array([0.5, 0.0]), np.zeros((0, 2)))
    assert cert.verdict == "separable"
    assert cert.method == "exact_oracle"


def test_exact_oracle_duplicate_point():
    cloud = cloud_from([[0.5, 0.1], [0.5, 0.1]])
    assert exact_point_vs_set(*point_and_rest(cloud, 0)).verdict == "not_separable"


def test_exact_oracle_size_guard():
    cloud = sample_layer(LayerSpec(d=6, r=0.0), 64, seed=1).points
    with pytest.raises(EnumerationLimitError):
        exact_point_vs_set(*point_and_rest(cloud, 0))


def test_exact_oracle_vertex_of_simplex_separable():
    cert = exact_point_vs_set(
        np.array([1.0, 0.0]), np.array([[0.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])
    )
    assert cert.verdict == "separable"


def exact_oracle_instances():
    """(x, others, exact): hull queries for the integer oracle, with ``exact``
    set where every barycentric coefficient is a float, so the certificate
    rebuilds x with no rounding at all."""
    # shaped like criterion 2: d 1-4, k 1-12, r 0 or 0.5, every fifth query a cloud point
    rng = np.random.default_rng(53)
    for i in range(40):
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        r = float(rng.choice((0.0, 0.5)))
        pts = sample_layer(LayerSpec(d=d, r=r), k + 1, seed=int(rng.integers(2**63))).points
        x, others = pts[-1], pts[:-1]
        if i % 5 == 0:
            x = others[int(rng.integers(k))].copy()
        yield x, others, False
    line = [[0.0, 0.0], [0.25, 0.25], [0.5, 0.5], [1.0, 1.0]]  # collinear
    yield [0.75, 0.75], line, True
    yield [0.75, 0.5], line, True
    yield [1.5, 1.5], line, True
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    yield [0.5, 0.0], triangle, True  # on an edge
    yield [0.25, 0.75], triangle, True  # on the opposite edge
    yield [0.0, 1.0], triangle, True  # a vertex
    yield [0.5, 0.5, 0.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True  # face plane, 3-d
    twins = [[0.25, 0.75], [0.25, 0.75], [0.75, 0.25], [0.75, 0.25], [0.0, 0.0]]  # repeated points
    yield [0.5, 0.5], twins, True
    yield [0.25, 0.75], twins, True
    yield [1.0, 1.0], twins, True
    # tiny, subnormal and huge coordinates, and a range of exponents wider than a float's
    yield [1e-300, 5e-324], [[0.0, 0.0], [2e-300, 0.0], [0.0, 1e-323]], True
    yield [5e-324], [[0.0], [1e-323]], True
    yield [1e300, 1e300], [[0.0, 0.0], [4e300, 0.0], [0.0, 4e300]], True
    yield [1e300, 5e-324], [[0.0, 0.0], [2e300, 0.0], [0.0, 1e-323]], True


def test_exact_oracle_matches_fraction_reference():
    # verdicts and float coefficients bit-identical to Gauss-Jordan elimination
    # in Fraction, signed zeros included
    verdicts = set()
    for x, others, exact in exact_oracle_instances():
        x, others = np.asarray(x, dtype=np.float64), np.asarray(others, dtype=np.float64)
        cert = exact_point_vs_set(x, others)
        verdict, coefficients = oracles.fraction_hull_oracle(x, others)
        assert cert.verdict == verdict, (x, others)
        verdicts.add(verdict)
        if coefficients is None:
            assert cert.coefficients is None
            continue
        assert cert.coefficients.tobytes() == coefficients.tobytes(), (x, others)
        # each coefficient is lam_j rounded once (relative error <= 2**-53) and
        # they sum to 1, which bounds the rational residual of the rebuilt x
        l2, affine_gap = oracles.exact_combination_residual(x, others, cert.coefficients)
        if exact:
            assert l2 == 0.0 and affine_gap == 0.0, (x, others)
        else:
            assert l2 <= 2.0**-52 * math.sqrt(len(x)) * np.abs(others).max()
            assert affine_gap <= 2.0**-52
    assert verdicts == {"separable", "not_separable"}


def criterion_2_shaped_queries(count=300, seed=59):
    """(x, others) shaped like criterion 2: d 1-4, k 1-12, r 0 or 0.5, every
    tenth query a point of its own set."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        r = float(rng.choice((0.0, 0.5)))
        pts = sample_layer(LayerSpec(d=d, r=r), k + 1, seed=int(rng.integers(2**63))).points
        x, others = pts[-1], pts[:-1]
        if i % 10 == 0:
            x = others[int(rng.integers(k))].copy()
        yield x, others


# sha256 of every oracle certificate below, taken from the enumeration-only oracle
PINNED_ORACLE_DIGEST = "853a78ca2c4e710c20d73a582aea5fdc31cea98e5a7c4f1b1443d4053244da04"


def test_exact_oracle_certificates_pinned():
    # verdict, method, margin and coefficient bytes; any change to how the
    # oracle decides must leave each of them as it was
    instances = [*criterion_2_shaped_queries(),
                 *((x, others) for x, others, _ in exact_oracle_instances())]
    digest = hashlib.sha256()
    for x, others in instances:
        cert = exact_point_vs_set(np.asarray(x, dtype=np.float64),
                                  np.asarray(others, dtype=np.float64))
        coefficients = b"-" if cert.coefficients is None else cert.coefficients.tobytes()
        digest.update(repr((cert.verdict, cert.method, cert.margin)).encode() + coefficients + b"\n")
    assert digest.hexdigest() == PINNED_ORACLE_DIGEST


def test_exact_oracle_answer_does_not_depend_on_its_search(monkeypatch):
    # a separable verdict carries no witness and a not_separable one comes from
    # the enumeration, so an oracle whose float search proposes nothing must
    # give every certificate the real one gives; the search may then change
    # freely (150 criterion-2 queries keep the enumeration-only run under 1 s)
    instances = [*criterion_2_shaped_queries(count=150),
                 *((np.asarray(x, dtype=np.float64), np.asarray(others, dtype=np.float64))
                   for x, others, _ in exact_oracle_instances())]
    real = [exact_point_vs_set(x, others) for x, others in instances]
    monkeypatch.setattr(exact, "_candidate_normals", lambda *args: iter(()))
    for (x, others), want in zip(instances, real):
        cert = exact_point_vs_set(x, others)
        assert (cert.verdict, cert.method, cert.margin) == (want.verdict, want.method, want.margin)
        if want.coefficients is None:
            assert cert.coefficients is None
        else:
            assert cert.coefficients.tobytes() == want.coefficients.tobytes()
    assert {cert.verdict for cert in real} == {"separable", "not_separable"}


def one_exponent_instances():
    """(x, others): random, all-zero, tied, subnormal and huge points, and rows whose
    magnitudes span more than 2**970."""
    rng = np.random.default_rng(61)
    for _ in range(30):
        d, k = int(rng.integers(1, 5)), int(rng.integers(0, 6))
        yield rng.standard_normal(d), rng.standard_normal((k, d))
    yield np.zeros(3), np.zeros((4, 3))
    yield np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.25, 0.75]])  # Fisher gaps exactly 0
    yield np.full(2, 2.0**-1074), np.array([[0.0, 2.0**-1074], [-(2.0**-1074), 0.0]])
    yield np.array([2.0**1000, -(2.0**1000)]), np.array([[2.0**999, 0.0], [-(2.0**1000), 2.0**1000]])
    for _ in range(30):
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        exponents = rng.integers(-1074, 1000, size=(k + 1, d))
        exponents[0, 0], exponents[-1, -1] = -1074, 1000  # a span of 2**2074
        rows = np.ldexp(rng.choice((-1.0, 1.0), size=(k + 1, d)), exponents)
        yield rows[0], rows[1:]


def test_oracle_exponent_and_integer_sign_test_match_dyadic(monkeypatch):
    # the oracle searches on the input times 2**-e, with e from the input check,
    # and tests candidates with the integer core of the sign test: both must
    # equal the float-facing helpers the rest of the package calls, and the
    # sign test must equal the rational one
    seen = []
    search = exact._candidate_normals

    def recorded(x, others):
        seen.append((x, others))
        return search(x, others)

    monkeypatch.setattr(exact, "_candidate_normals", recorded)
    rng = np.random.default_rng(67)
    outcomes = set()
    for x, others in one_exponent_instances():
        seen.clear()
        if len(others):
            exact_point_vs_set(x, others)
            e = dyadic.split_peak(dyadic.peak(x, others))[1]
            assert seen == [(np.ldexp(x, -e).tolist(), np.ldexp(others, -e).tolist())], (x, others)
        xs, *ys = dyadic.scaled_to_integers([x.tolist(), *others.tolist()])
        for normal in (x, rng.standard_normal(len(x)), x - others[:1].sum(axis=0)):
            normal = normal.tolist()
            want = oracles.exact_hyperplane_separates(x, others, normal)
            assert dyadic.gaps_positive_exactly(normal, x.tolist(), others.tolist()) == want
            assert dyadic.integer_gaps_positive(normal, xs, ys) == want, (normal, x, others)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_exact_oracle_proof_needs_exact_gaps():
    # X is the exact midpoint of (p, q) and (q, p), so it is in their hull and
    # no normal separates it, yet both float Fisher gaps (X, X - Y) round to a
    # positive number: a proof stage that trusted float gaps would say separable
    rng = np.random.default_rng(97)
    for _ in range(10_000):
        p, q = rng.random(2)
        x = np.full(2, (p + q) / 2)
        others = np.array([[p, q], [q, p]])
        if (2 * Fraction(x[0]) == Fraction(p) + Fraction(q)
                and np.all(x @ x - others @ x > 0.0)
                and fisher_point_vs_set(x, others).separable):
            break
    else:
        pytest.fail("no midpoint with positive float Fisher gaps found")
    cert = exact_point_vs_set(x, others)
    verdict, coefficients = oracles.fraction_hull_oracle(x, others)
    assert cert.verdict == verdict == "not_separable"
    assert cert.coefficients.tobytes() == coefficients.tobytes()


def test_exact_oracle_enumerates_only_what_the_proof_leaves(monkeypatch):
    calls = []
    solve = exact.barycentric_if_inside

    def counted(target, columns):
        calls.append(len(columns))
        return solve(target, columns)

    monkeypatch.setattr(exact, "barycentric_if_inside", counted)
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # Fisher-separable: (X, X) = 2 > (X, Y) for every Y, so no subset is solved
    assert exact_point_vs_set(np.array([1.0, 1.0]), triangle).verdict == "separable"
    assert calls == []
    # inside the triangle: no single point and neither axis-aligned pair has
    # points on both sides of X on each axis, so only the hypotenuse and the
    # triangle itself are solved
    cert = exact_point_vs_set(np.array([0.25, 0.25]), triangle)
    assert cert.verdict == "not_separable"
    assert cert.coefficients.tolist() == [0.5, 0.25, 0.25]
    assert calls == [2, 3]


def test_exact_oracle_solves_only_subsets_around_x(monkeypatch):
    # x in conv(S) needs, on every axis, a point of S at or below x and one at
    # or above it: no subset without them reaches the exact solve
    solved = []
    solve = exact.barycentric_if_inside

    def checked(target, columns):
        axes = [[col[c] for col in columns] for c in range(len(target))]
        solved.append(all(min(axis) <= t <= max(axis) for axis, t in zip(axes, target)))
        return solve(target, columns)

    monkeypatch.setattr(exact, "barycentric_if_inside", checked)
    verdicts = {exact_point_vs_set(x, others).verdict for x, others in criterion_2_shaped_queries()}
    assert verdicts == {"separable", "not_separable"}
    assert solved and all(solved), solved.count(False)


def box_tie_instances():
    """(x, others): cloud points, edges and facets, coordinates tied with x,
    collinear sets, zero coordinates and R^0."""
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    simplex = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    yield [0.5, 0.25], [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]  # x is a cloud point
    yield [0.25, 0.5, 0.75], [[0.25, 0.5, 0.75], [0.25, 0.5, 0.75], [1.0, -1.0, 0.5]]
    yield [0.5, 0.0], triangle  # on an edge
    yield [0.0, 1.0], triangle  # a vertex
    yield [0.25, 0.25, 0.5], simplex  # on the facet x + y + z = 1
    yield [0.25, 0.0, 0.5], simplex  # on an edge of that facet
    cross = [[0.5, 0.0], [0.5, 1.0], [0.0, 0.5], [1.0, 0.5]]
    yield [0.5, 0.5], cross  # coordinates shared with x on either side
    yield [0.5, 0.75], cross
    yield [0.5, 0.5], [[0.5, 0.25], [0.25, 0.5]]  # a box around x, but x outside the hull
    yield [0.5, 0.5], [[0.5, 0.5 + 2.0**-52], [0.5, 0.5 - 2.0**-53]]  # a box an ulp wide
    yield [0.5, 0.5], [[0.5, 0.75], [0.5, 1.0]]  # x below the whole set on one axis
    line = [[0.0, 0.0, 0.0], [0.25, 0.5, 0.75], [0.5, 1.0, 1.5], [1.0, 2.0, 3.0]]
    yield [0.75, 1.5, 2.25], line  # collinear
    yield [0.75, 1.5, 2.0], line
    yield [2.0, 4.0, 6.0], line
    yield [0.0, 0.5], [[0.0, 0.0], [-0.0, 1.0], [1.0, 0.0]]  # zero coordinates, signed
    yield [-0.0, 0.0], [[0.0, -0.0], [0.5, 0.5]]
    yield [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]]
    yield [], [[], [], []]  # R^0: every mask is empty, so nothing is pruned


@pytest.mark.parametrize("e", [0, 600, -600])
def test_exact_oracle_box_skip_keeps_the_unpruned_answer(monkeypatch, e):
    # verdicts and coefficient bytes equal to the enumeration of every subset,
    # with and without the proof stage in front of it
    instances = [tuple(np.ldexp(np.array(v, dtype=np.float64), e) for v in pair)
                 for pair in box_tie_instances()]
    wants = [oracles.fraction_hull_oracle(x, others) for x, others in instances]
    real = [exact_point_vs_set(x, others) for x, others in instances]
    monkeypatch.setattr(exact, "_candidate_normals", lambda *args: iter(()))
    enumerated = [exact_point_vs_set(x, others) for x, others in instances]
    for (x, others), (verdict, coefficients), *certs in zip(instances, wants, real, enumerated):
        for cert in certs:
            assert cert.verdict == verdict, (x, others)
            want = None if coefficients is None else coefficients.tobytes()
            got = None if cert.coefficients is None else cert.coefficients.tobytes()
            assert got == want, (x, others)
    assert {verdict for verdict, _ in wants} == {"separable", "not_separable"}



def test_exact_oracle_zero_dimensional_point():
    # R^0 holds one point, so X is in the hull and the first single point witnesses it
    cert = exact_point_vs_set(np.zeros(0), np.zeros((3, 0)))
    assert cert.verdict == "not_separable"
    assert cert.coefficients.tolist() == [1.0, 0.0, 0.0]

MALFORMED_PAIRS = {
    "set_wider_than_point": ([0.5, 0.0], [[0.0, 0.0, 5.0], [1.0, 0.0, -5.0]]),
    "set_narrower_than_point": ([0.5, 0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]),
    "one_column_set": ([0.5, 0.0], [[0.3], [0.1]]),
    "flat_set": ([0.5, 0.0], [0.0, 1.0]),
    "ragged_set": ([0.5, 0.0], [[0.0, 0.0], [1.0]]),
    "matrix_point": ([[0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
    "scalar_point": (0.5, [[0.0], [1.0]]),
}
POINT_VS_SET = {"fisher": fisher_point_vs_set, "lp": lp_point_vs_set, "exact": exact_point_vs_set}


@pytest.mark.parametrize("check", POINT_VS_SET)
@pytest.mark.parametrize("pair", MALFORMED_PAIRS)
def test_malformed_point_set_pairs_raise_domain_error(check, pair):
    x, others = MALFORMED_PAIRS[pair]
    with pytest.raises(DomainError):
        POINT_VS_SET[check](x, others)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_oracle_rejects_non_finite_coordinates(bad):
    # every point-vs-set check: a NaN margin fails `> 0` and would read as a
    # Fisher verdict, and a NaN column makes the LP's crash basis singular
    for check in POINT_VS_SET.values():
        with pytest.raises(DomainError, match="finite"):
            check([bad, 0.0], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            check([0.5, 0.0], [[0.0, bad], [1.0, 0.0]])


@pytest.mark.parametrize("max_subsets", [math.nan, None, 0, 1.5])
def test_exact_oracle_validates_max_subsets(max_subsets):
    # `total > nan` is False, so a NaN guard would enumerate without limit
    with pytest.raises(DomainError, match="max_subsets"):
        exact_point_vs_set([0.5, 0.0], [[0.0, 0.0], [1.0, 0.0]], max_subsets=max_subsets)


def hull_instances():
    rng = np.random.default_rng(41)
    for d in (2, 3, 5, 8, 12):
        for k in (1, 7, 60, 999):
            for r in (0.0, 0.9):
                pts = sample_layer(LayerSpec(d=d, r=r), k + 1, seed=int(rng.integers(1 << 30))).points
                i = int(rng.integers(k + 1))
                others = np.delete(pts, i, axis=0)
                yield pts[i], others
                # the query duplicates a cloud point, so it lies in the hull
                yield pts[i], np.vstack([others, pts[i]])


def test_crash_start_reaches_a_certified_optimum(monkeypatch):
    # a primal-feasible x and a dual-feasible y with equal objectives prove
    # the objective optimal, and the verdict depends only on the objective
    solves = []

    def recorded(c, A, b, max_pivots, basis):
        result = solve_standard_form(c, A, b, max_pivots=max_pivots, basis=basis)
        solves.append((c, A, b, result))
        return result

    monkeypatch.setattr(separability, "solve_standard_form", recorded)
    verdicts = set()
    for x, others in hull_instances():
        cert = lp_point_vs_set(x, others)
        c, A, b, result = solves[-1]
        assert np.abs(A @ result.x - b).max() <= 1e-12
        assert np.all(result.x >= 0.0)
        assert np.all(result.duals @ A <= c + 1e-12)
        assert abs(result.duals @ b - c @ result.x) <= 1e-12
        assert verify_certificate(cert, x, others)
        verdicts.add(cert.verdict)
    assert verdicts == {"separable", "not_separable"}


def simplex_pin_instances():
    """(x, others) hull programs for the simplex pin: criterion-2-shaped tiny
    instances, every point of the tie clouds against the rest (ratio-test
    ties), and the rows the Fisher test leaves open in two n=1000 set clouds."""
    yield from criterion_2_shaped_queries(count=200, seed=83)
    for cloud in tie_clouds():
        for i in range(len(cloud)):
            yield cloud[i], np.delete(cloud, i, axis=0)
    for seed in (16, 17):
        points = sample_layer(LayerSpec(d=10, r=0.9), 1000, seed=seed).points
        for i in np.flatnonzero(~fisher_flags(points)).tolist():
            yield points[i], np.delete(points, i, axis=0)


def certificate_bytes(cert):
    fields = (cert.hyperplane, cert.coefficients)
    return repr((cert.verdict, cert.method, cert.margin)).encode() + b"".join(
        b"-" if a is None else a.tobytes() for a in fields)


# sha256 of every simplex result and certificate of simplex_pin_instances, and
# of the set check's certificates on the two set clouds
PINNED_SIMPLEX_DIGEST = "4eed122eb7e5ead82af47a2fbec91cd56370211e4bd6141b6d4dc5295ffadfcf"


def test_simplex_results_and_certificates_pinned(monkeypatch):
    # pivots, x, duals and objective of every solve and every certificate's
    # bytes: a faster simplex or perceptron must pick the same pivots
    digest = hashlib.sha256()

    def recorded(c, A, b, max_pivots, basis):
        result = solve_standard_form(c, A, b, max_pivots=max_pivots, basis=basis)
        digest.update(repr(result.pivots).encode() + result.x.tobytes()
                      + result.duals.tobytes() + np.float64(result.objective).tobytes())
        return result

    monkeypatch.setattr(separability, "solve_standard_form", recorded)
    for x, others in simplex_pin_instances():
        try:
            digest.update(certificate_bytes(lp_point_vs_set(x, others)) + b"\n")
        except LPStallError:
            digest.update(b"stall\n")
    for seed in (16, 17):
        points = sample_layer(LayerSpec(d=10, r=0.9), 1000, seed=seed).points
        report = linearly_separable_set(points)
        for i, cert in sorted(report.lp_certificates.items()):
            digest.update(repr(i).encode() + certificate_bytes(cert) + b"\n")
    assert digest.hexdigest() == PINNED_SIMPLEX_DIGEST


# sha256, in PINNED_SIMPLEX_DIGEST's format, of every solve and LP certificate
# of the set checks in test_long_simplex_solves_pinned
PINNED_LONG_SIMPLEX_DIGEST = "dc3d7b74e6b43b6be0ce8eecc8575ccf8d5e31587e1e85667ba4c67b46e2f202"


def test_long_simplex_solves_pinned(monkeypatch):
    # the simplex pin's solves stop short of REFACTOR_EVERY pivots; these reach
    # 55, so their pivots and bits run through the periodic refactorization
    digest = hashlib.sha256()
    pivots = []

    def recorded(c, A, b, max_pivots, basis):
        result = solve_standard_form(c, A, b, max_pivots=max_pivots, basis=basis)
        pivots.append(result.pivots)
        digest.update(repr(result.pivots).encode() + result.x.tobytes()
                      + result.duals.tobytes() + np.float64(result.objective).tobytes())
        return result

    monkeypatch.setattr(separability, "solve_standard_form", recorded)
    for d in (13, 14):
        for seed in (0, 1):
            report = linearly_separable_set(sample_layer(LayerSpec(d, 0.5), 1000, seed).points)
            for i, cert in sorted(report.lp_certificates.items()):
                digest.update(repr(i).encode() + certificate_bytes(cert) + b"\n")
    assert max(pivots) > REFACTOR_EVERY
    assert digest.hexdigest() == PINNED_LONG_SIMPLEX_DIGEST


# sha256 of the verdict (or "stall") of each simplex_pin_instances program, and
# of (index, verdict, method) of each LP certificate of the set checks in both
# simplex pins: a change that re-takes those two digests must leave this one
PINNED_VERDICT_DIGEST = "3f955d3ddd99df0ad364f0270314466507d4550ca7aa6961cffa18b156d8b933"


def test_simplex_pin_verdicts_pinned():
    digest = hashlib.sha256()
    for x, others in simplex_pin_instances():
        try:
            verdict = lp_point_vs_set(x, others).verdict
        except LPStallError:
            verdict = "stall"
        digest.update(verdict.encode() + b"\n")
    for d, r, seeds in ((10, 0.9, (16, 17)), (13, 0.5, (0, 1)), (14, 0.5, (0, 1))):
        for seed in seeds:
            report = linearly_separable_set(sample_layer(LayerSpec(d, r), 1000, seed).points)
            for i, cert in sorted(report.lp_certificates.items()):
                digest.update(repr((i, cert.verdict, cert.method)).encode() + b"\n")
    assert digest.hexdigest() == PINNED_VERDICT_DIGEST


def test_threaded_lp_certificates_equal_the_serial_ones():
    # the tiny hull LPs of criterion 2 pick on Python floats, which hold the
    # GIL; two threads deciding them side by side must give every byte of the
    # serial certificates (the test asserts no timing)
    queries = list(criterion_2_shaped_queries(count=200, seed=83))
    certs = [lp_point_vs_set(x, others) for x, others in queries]
    assert {cert.verdict for cert in certs} == {"separable", "not_separable"}
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda q: certificate_bytes(lp_point_vs_set(*q)), queries))
    assert threaded == [certificate_bytes(cert) for cert in certs]


def test_lp_nonseparating_normal_is_a_diagnostic(monkeypatch):
    # an optimal distance above tol whose dual normal separates nothing must
    # raise, not become a separable verdict
    def broken(c, A, b, max_pivots, basis):
        m, n = np.shape(A)
        return SimplexResult(np.zeros(n), np.zeros(m), 1.0, 0)

    monkeypatch.setattr(separability, "solve_standard_form", broken)
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(LPStallError):
        lp_point_vs_set(np.zeros(2), square)


# ---------------------------------------------------------------------------
# certificates


@pytest.mark.parametrize("margin", [-1.0, 0.0, math.nan])
def test_separable_certificate_needs_positive_margin(margin):
    # x = 0 lies inside the square: no hyperplane separates it
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cert = SeparabilityCertificate("separable", "lp", margin, hyperplane=np.zeros(2))
    assert not verify_certificate(cert, np.zeros(2), square)
    assert not verify_certificate(cert, np.zeros(2), np.zeros((0, 2)))


# x = (1, 0) against y = 0: the normal (1, 0) separates with gap 1, not 5
OVERCLAIM = SeparabilityCertificate("separable", "lp", 5.0, hyperplane=np.array([1.0, 0.0]))
OVERCLAIM_X, OVERCLAIM_OTHERS = np.array([1.0, 0.0]), np.zeros((1, 2))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, "x"])
def test_recheck_rejects_bad_tolerance(tol):
    with pytest.raises(DomainError):
        verify_certificate(OVERCLAIM, OVERCLAIM_X, OVERCLAIM_OTHERS, tol=tol)


@pytest.mark.parametrize("x, others", [
    (np.array([1.0, 0.0]), np.zeros((1, 3))),
    (np.array([[1.0, 0.0]]), np.zeros((1, 2))),
    (np.array([math.nan, 0.0]), np.zeros((1, 2))),
    (np.array([1.0, 0.0]), np.array([[math.inf, 0.0]])),
])
def test_recheck_validates_the_point_set(x, others):
    with pytest.raises(DomainError):
        verify_certificate(OVERCLAIM, x, others)


@pytest.mark.parametrize("normal", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], [math.nan, 0.0]])
def test_recheck_rejects_malformed_normals(normal):
    for others in (OVERCLAIM_OTHERS, np.zeros((0, 2))):
        cert = SeparabilityCertificate("separable", "lp", 0.5, hyperplane=np.array(normal))
        assert not verify_certificate(cert, OVERCLAIM_X, others)
    cert = SeparabilityCertificate("separable", "lp", 0.5, hyperplane=np.array([1.0, 0.0]))
    assert verify_certificate(cert, OVERCLAIM_X, OVERCLAIM_OTHERS)
    assert not verify_certificate(OVERCLAIM, OVERCLAIM_X, OVERCLAIM_OTHERS)


def test_recheck_rejects_coefficients_that_do_not_sum_to_one():
    # nonnegative and the right shape, and they rebuild x = 0, but sum to 1.2
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cert = SeparabilityCertificate("not_separable", "lp", 0.0, coefficients=np.full(4, 0.3))
    assert not verify_certificate(cert, np.zeros(2), square)
    cert = SeparabilityCertificate("not_separable", "lp", 0.0, coefficients=np.full(4, 0.25))
    assert verify_certificate(cert, np.zeros(2), square)


@pytest.mark.parametrize("coefficients", [1.0, [[1.0]], [0.5, 0.5]])
def test_recheck_rejects_malformed_coefficients(coefficients):
    # x = 0 is the single point of others, so only the shape is wrong
    x, others = np.zeros(2), np.zeros((1, 2))
    cert = SeparabilityCertificate("not_separable", "lp", 0.0,
                                   coefficients=np.array(coefficients))
    assert not verify_certificate(cert, x, others)
    cert = SeparabilityCertificate("not_separable", "lp", 0.0, coefficients=np.array([1.0]))
    assert verify_certificate(cert, x, others)


def test_certificates_recheck_on_random_clouds():
    rng = np.random.default_rng(31)
    for trial in range(20):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2, 30))
        cloud = sample_layer(LayerSpec(d=d, r=0.5), n, seed=int(rng.integers(1 << 30))).points
        report = linearly_separable_set(cloud)
        for i, cert in enumerate(report.per_point):
            others = np.delete(cloud, i, axis=0)
            assert verify_certificate(cert, cloud[i], others), (
                f"certificate failed re-check: trial={trial} i={i} {cert.method}"
            )


def test_near_tie_lp_certificates_recheck():
    # the gaps of these certificates are ~1e-10 against products of ~0.25, so
    # re-checking the claimed margin takes the rounding-error bound, and gaps
    # inside it are decided exactly; the coefficients of every not_separable
    # certificate rebuild x, on the near-tie and on the dyadic clouds
    separable = 0
    for n, cloud in enumerate(tie_clouds()):
        for i in range(len(cloud)):
            x, others = cloud[i], np.delete(cloud, i, axis=0)
            cert = lp_point_vs_set(x, others)
            separable += cert.separable
            assert verify_certificate(cert, x, others), (n, i)
    assert separable > 1000


@pytest.mark.parametrize("e", [-600, -30, 27, 60, 500])
def test_recheck_accepts_the_coefficients_of_a_scaled_program(e):
    # the LP decides x and the set times 2**-e, and the re-check rebuilds x in
    # those units; an absolute 10 * tol on the input as given once rejected
    # correct coefficients from 2**27 up
    rechecked = 0
    for x, others in simplex_pin_instances():
        try:
            if lp_point_vs_set(x, others).separable:
                continue
        except LPStallError:
            continue
        x, others = np.ldexp(x, e), np.ldexp(others, e)
        cert = lp_point_vs_set(x, others)
        assert not cert.separable and verify_certificate(cert, x, others), rechecked
        rechecked += 1
        if rechecked == 60:
            break
    assert rechecked == 60


@pytest.mark.parametrize("e", [0, -30, -600])
def test_recheck_rejects_coefficients_that_rebuild_another_point(e):
    # (1, 0, 0) rebuilds the vertex (1, 0), not x = (0.125, 0.25); at 2**-30
    # the two lie within an absolute 10 * tol, which once let them pass
    triangle, x = np.ldexp(TRIANGLE, e), np.ldexp([0.125, 0.25], e)
    wrong = SeparabilityCertificate("not_separable", "lp", 0.0, coefficients=np.eye(3)[0])
    assert not verify_certificate(wrong, x, triangle)
    assert verify_certificate(lp_point_vs_set(x, triangle), x, triangle)


@pytest.mark.parametrize("flip", [False, True])
def test_recheck_decides_gaps_inside_the_band_exactly(flip):
    # x = (1, 2**-60) against y = (1, 0): the computed gaps are exact, but
    # 2**-60 lies far inside the rounding-error bound, so only the exact test
    # can accept the true normal (0, 1) and reject its negation
    x, others = np.array([1.0, 2.0**-60]), np.array([[1.0, 0.0]])
    normal = np.array([0.0, -1.0 if flip else 1.0])
    cert = SeparabilityCertificate("separable", "lp", 2.0**-61, hyperplane=normal)
    assert verify_certificate(cert, x, others) is not flip


def test_separable_hyperplane_exact_recheck():
    # every separating hyperplane must hold in exact rational arithmetic;
    # every hull verdict must match the enumeration oracle
    cloud = sample_layer(LayerSpec(d=4, r=0.9), 25, seed=8).points
    report = linearly_separable_set(cloud)
    assert report.lp_calls + report.lp_skipped_by_fisher == len(cloud)
    for i, cert in enumerate(report.per_point):
        others = np.delete(cloud, i, axis=0)
        if cert.separable:
            assert cert.hyperplane is not None
            assert oracles.exact_hyperplane_separates(cloud[i], others, cert.hyperplane)
        else:
            assert exact_point_vs_set(*point_and_rest(cloud, i)).verdict == "not_separable"
