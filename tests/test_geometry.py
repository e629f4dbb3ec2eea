import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp

from layersep import geometry
from layersep.errors import DomainError, check_points
from layersep.geometry import (
    LayerSpec,
    log_unit_ball_volume,
    radius_inverse_cdf,
    sample_layer,
    unit_ball_volume,
)

import oracles

# chi-square upper critical value, 35 degrees of freedom, tail mass 0.001
CHI2_CRIT_35DOF_P999 = 66.61882884370108


def test_layer_spec_validation():
    LayerSpec(d=1, r=0.0)
    LayerSpec(d=200, r=0.999)
    with pytest.raises(DomainError):
        LayerSpec(d=0, r=0.5)
    with pytest.raises(DomainError):
        LayerSpec(d=3, r=1.0)
    with pytest.raises(DomainError):
        LayerSpec(d=3, r=-0.1)
    with pytest.raises(DomainError):
        LayerSpec(d=2.5, r=0.1)


def test_inverse_cdf_quarter_in_disk():
    # full disk, u = 1/4: rho = sqrt(0.25)
    assert radius_inverse_cdf(0.25, LayerSpec(d=2, r=0.0)) == pytest.approx(0.5, abs=1e-15)


def test_inverse_cdf_endpoints_exact():
    for layer in (LayerSpec(2, 0.0), LayerSpec(10, 0.9), LayerSpec(1, 0.3), LayerSpec(77, 0.5)):
        assert radius_inverse_cdf(0.0, layer) == layer.r
        assert radius_inverse_cdf(1.0, layer) == 1.0


def test_inverse_cdf_against_bisection():
    # independent root-finding on the CDF, no closed form
    ours = radius_inverse_cdf(0.5, LayerSpec(d=10, r=0.9))
    ref = oracles.bisect_radius(0.5, d=10, r=0.9)
    assert abs(ours - ref) < 1e-14


def test_inverse_cdf_d1_is_uniform():
    layer = LayerSpec(d=1, r=0.25)
    u = np.linspace(0.0, 1.0, 101)
    rho = radius_inverse_cdf(u, layer)
    assert np.allclose(rho, 0.25 + 0.75 * u, atol=1e-15)


def test_inverse_cdf_roundtrip_and_monotone():
    for layer in (LayerSpec(2, 0.0), LayerSpec(10, 0.9), LayerSpec(60, 0.5), LayerSpec(7, 0.99)):
        u = np.linspace(0.0, 1.0, 4001)
        rho = radius_inverse_cdf(u, layer)
        assert np.all(np.diff(rho) >= 0.0)
        assert rho.min() >= layer.r and rho.max() <= 1.0
        back = oracles.radial_cdf(rho[1:-1], layer.d, layer.r)
        assert np.max(np.abs(back - u[1:-1])) < 1e-12


def test_inverse_cdf_rejects_bad_u():
    layer = LayerSpec(3, 0.5)
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(DomainError):
            radius_inverse_cdf(bad, layer)


@settings(deadline=None, max_examples=60)
@given(
    u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    d=st.integers(min_value=1, max_value=300),
    r=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
)
def test_inverse_cdf_range_property(u, d, r):
    layer = LayerSpec(d=d, r=r)
    rho = radius_inverse_cdf(u, layer)
    assert layer.r <= rho <= 1.0


def test_sample_layer_reproducible():
    layer = LayerSpec(d=7, r=0.4)
    a = sample_layer(layer, 50, seed=123)
    b = sample_layer(layer, 50, seed=123)
    c = sample_layer(layer, 50, seed=124)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.seed == 123 and len(a.points) == 50


def test_sample_layer_norms_inside_shell():
    for d, r in ((1, 0.0), (2, 0.5), (13, 0.9), (80, 0.99)):
        cloud = sample_layer(LayerSpec(d, r), 2000, seed=d)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert norms.max() <= 1.0 + 4 * np.spacing(1.0)
        assert norms.min() >= r - 4 * np.spacing(1.0)


# sha256 of sample_layer(LayerSpec(d, r), n, seed).points.tobytes(), taken
# before the sampler switched to one norm and in-place scaling: the record CSV
# digests pin verdicts, these pin the coordinates themselves
SAMPLE_DIGESTS = [
    (1, 0.0, 1000, 0, "3e4be44ba5a952b5977206ed840febcc6c02a59f0139817c3a007c3eb875b3b7"),
    (1, 0.5, 1000, 1, "8cb5d9aaa4c577a68e3c1d88c880143c9aae7fe5793a2def5b5dfc4c1563eb5a"),
    (2, 0.5, 1000, 2, "27d759c4929cca7eb3a6a526a57bbaa5bfb986cb1fd901eafde4e26834758eaf"),
    (10, 0.9, 1000, 3, "68efa8bfb3d4ef31fd5e42127d6bead4a200741648c972fdebd30a24a4fd6218"),
    (59, 0.99, 500, 4, "73ba2ede7b9a8c5ccc262f0f93c39c63c9ffb20dd49d722d2f11c30f3c75f170"),
    (80, 0.0, 500, 5, "cdfa7025e78e4cd29405b16fe508b1a862f2beb44ca13f22fa3da4e7c2099a2e"),
    (80, 0.99, 300, 6, "f4d3f28c91017c291868b335de3aea5010410e303131aebb9d1293004a76f131"),
    (10, 0.5, 0, 7, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # clouds that span many of _row_norms's blocks, pinned before it went blockwise
    (59, 0.5, 10001, 8, "c5cbbf37154e978a4e377ac70748a7556baf94799619b512e1289ecbd3cb707e"),
    (80, 0.9, 3001, 9, "fa9484d07ccf684a5515e8f1f42f329d34ffa8f83e64026b8d1a18cec52a8a70"),
]


@pytest.mark.parametrize("d, r, n, seed, digest", SAMPLE_DIGESTS)
def test_sample_layer_bytes_pinned(d, r, n, seed, digest):
    points = sample_layer(LayerSpec(d=d, r=r), n, seed).points
    assert points.shape == (n, d)
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


def test_sample_layer_holds_one_cloud_sized_array():
    # the two row norms go through a block-sized buffer, not a second n x d array
    layer = LayerSpec(d=59, r=0.5)
    sample_layer(layer, 10, seed=0)
    cloud, peak = oracles.traced_peak(sample_layer, layer, 10001, 8)
    assert peak <= 1.25 * cloud.points.nbytes


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("d", [1, 7, 8, 9, 59, 80])
def test_row_norms_equal_linalg_norm_at_block_edges(d, scale):
    rows = max(geometry.NORM_BLOCK // d, 1)
    rng = np.random.default_rng(d)
    for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
        pts = rng.standard_normal((n, d)) * scale
        want = np.linalg.norm(pts, axis=1)
        assert geometry._row_norms(pts).tobytes() == want.tobytes()


def test_sampled_clouds_pass_outside_validation():
    # the sampler checks its output itself; what it returns must be exactly
    # what the checks' validator accepts, stored the way it stores it
    for d in (1, 2, 9, 40):
        for r in (0.0, 0.5, 0.9, 0.99):
            for seed in (0, 1, 2**62 + 3):
                cloud = sample_layer(LayerSpec(d=d, r=r), 300, seed)
                pts = cloud.points
                assert pts.dtype == np.float64 and pts.flags.c_contiguous
                assert not pts.flags.writeable
                with pytest.raises(ValueError):
                    pts[0, 0] = 0.0
                checked, _ = check_points(pts)
                assert checked.tobytes() == pts.tobytes()


@pytest.mark.parametrize("bad_radius", [1.0 + 1e-12, float("nan")])
def test_sample_layer_rejects_radii_off_the_shell(monkeypatch, bad_radius):
    # the sampler's own finiteness and shell checks are its only guard: its
    # radii come from _radii, which trusts the sampler's draws unchecked
    monkeypatch.setattr(geometry, "_radii", lambda u, layer: np.full(len(u), bad_radius))
    with pytest.raises(DomainError):
        sample_layer(LayerSpec(d=5, r=0.5), 100, seed=0)


def test_sample_layer_d1_signs_balanced():
    cloud = sample_layer(LayerSpec(d=1, r=0.5), 20000, seed=5)
    x = cloud.points[:, 0]
    assert np.all((np.abs(x) >= 0.5) & (np.abs(x) <= 1.0))
    frac_pos = np.mean(x > 0)
    # sign is a fair coin: 3-sigma binomial band around 1/2
    assert abs(frac_pos - 0.5) < 3 * math.sqrt(0.25 / 20000)


def test_sample_layer_radial_fraction_annulus():
    # area fraction of {0.5 <= |x| <= 0.75} inside the d=2, r=0.5 shell
    n = 100_000
    cloud = sample_layer(LayerSpec(d=2, r=0.5), n, seed=77)
    norms = np.linalg.norm(cloud.points, axis=1)
    p = (0.75**2 - 0.5**2) / (1.0 - 0.5**2)
    frac = np.mean(norms <= 0.75)
    assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_sample_layer_radial_ks():
    # full radial law, not just one threshold
    n = 100_000
    layer = LayerSpec(d=10, r=0.5)
    cloud = sample_layer(layer, n, seed=11)
    u = np.sort(oracles.radial_cdf(np.linalg.norm(cloud.points, axis=1), layer.d, layer.r))
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
    assert ks < 1.9495 / math.sqrt(n)  # asymptotic 0.001-level critical value


def test_sample_layer_angular_uniformity_chi_square():
    n = 100_000
    cloud = sample_layer(LayerSpec(d=2, r=0.0), n, seed=99)
    ang = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    counts, _ = np.histogram(ang, bins=36, range=(-math.pi, math.pi))
    expected = n / 36.0
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    assert chi2 < CHI2_CRIT_35DOF_P999


def test_sample_layer_redraws_zero_directions(monkeypatch):
    # a zero Gaussian row has no direction: it is drawn again, not divided by 0
    real = np.random.default_rng
    draws = []

    class ZeroRowFirst:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, shape):
            g = self.rng.standard_normal(shape)
            if not draws:
                g[1] = 0.0
            draws.append(shape)
            return g

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", ZeroRowFirst)
    layer = LayerSpec(d=3, r=0.5)
    cloud = sample_layer(layer, 5, seed=3)
    assert draws == [(5, 3), (1, 3)]
    norms = np.linalg.norm(cloud.points, axis=1)
    assert norms.min() >= 0.5 - 1e-12 and norms.max() <= 1.0 + 1e-12


def test_sample_layer_rejects_bad_n():
    with pytest.raises(DomainError):
        sample_layer(LayerSpec(2, 0.0), -1, seed=0)


def test_benchmark_reads_the_sampler_as_it_returns(monkeypatch):
    # perfbench builds its xval_exact inputs from sample_layer(...).points
    # (workloads.xval_instances) and counts coordinates by .points.size
    # (tracing.Tracer._count_coords): a change of the sampler's return type
    # must fail here, not in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    instances = workloads.xval_instances(0)
    assert len(instances) == 100
    assert all(x.shape == others.shape[1:] for x, others in instances)
    assert sample_layer(LayerSpec(d=3, r=0.5), 4, seed=0).points.size == 12


def test_point_cloud_is_immutable():
    cloud = sample_layer(LayerSpec(d=2, r=0.0), 5, seed=1)
    with pytest.raises((ValueError, RuntimeError)):
        cloud.points[0, 0] = 2.0


def test_unit_ball_volume_small_d():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_unit_ball_volume_large_d_against_mpmath():
    with mp.workdps(60):
        ref = mp.pi ** mp.mpf(50) / mp.gamma(51)  # d = 100
    assert unit_ball_volume(100) == pytest.approx(float(ref), rel=1e-12)
    # far beyond float range of Gamma: the log form must stay finite
    assert math.isfinite(log_unit_ball_volume(10**6))


def test_unit_ball_volume_rejects_bad_d():
    with pytest.raises(DomainError):
        unit_ball_volume(0)
