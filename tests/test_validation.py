"""The shared validators: one integer check, one real-interval check and one
finiteness check."""

import math

import numpy as np
import pytest

from layersep.asymptotics import fisher_gap_exact
from layersep.bounds import BoundQuery
from layersep.cli import EXIT_DOMAIN, main
from layersep.errors import DomainError, all_finite, check_int, check_point_set, check_real
from layersep.experiments import ExperimentPlan
from layersep.geometry import LayerSpec, PointCloud

PLAN = dict(mode="point_level", d_values=(3,), r_values=(0.5,), n=10, trials=2, master_seed=1)


@pytest.mark.parametrize("bad", [None, 10**400], ids=["None", "10**400"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: LayerSpec(d=v, r=0.5),
        lambda v: BoundQuery(d=3, n=v),
        lambda v: ExperimentPlan(**{**PLAN, "trials": v}),
        lambda v: fisher_gap_exact(v, 0.5, 3),
    ],
    ids=["LayerSpec.d", "BoundQuery.n", "ExperimentPlan.trials", "fisher_gap_exact.d"],
)
def test_integer_parameters_raise_domain_error(build, bad):
    # these once leaked TypeError (None) and OverflowError (10**400)
    with pytest.raises(DomainError):
        build(bad)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0)])
def test_check_int_accepts_integral_values(value):
    got = check_int(value, "d", 1)
    assert got == 3 and type(got) is int


def test_check_int_keeps_large_ints_exact():
    assert check_int(2**64 - 1, "seed", 0, 2**64) == 2**64 - 1
    assert check_int(np.uint64(2**64 - 1), "seed", 0, 2**64) == 2**64 - 1


@pytest.mark.parametrize(
    "value",
    [True, False, np.True_, np.False_, 2.5, math.nan, math.inf, "3.0", None, 10**400, 0, 2**64],
)
def test_check_int_rejects(value):
    with pytest.raises(DomainError):
        check_int(value, "seed", 1, 2**64)


def test_check_real_ends_and_nan():
    assert check_real(0.0, "r", 0.0, 1.0, low_closed=True) == 0.0
    assert type(check_real(np.float32(0.5), "r", 0.0, 1.0)) is float
    for value in (0.0, 1.0, math.nan, math.inf, -math.inf, None, "x", 10**400):
        with pytest.raises(DomainError):
            check_real(value, "theta", 0.0, 1.0)
    with pytest.raises(DomainError):
        check_real(math.inf, "tol", 0.0, math.inf)


# a 5 x 3 set of points in the unit ball
FINITE_SET = np.linspace(-0.5, 0.5, 15).reshape(5, 3)


def spoiled(a, where, bad):
    """A copy of ``a`` with ``bad`` at its first, middle or last coordinate."""
    a = a.copy()
    a.flat[{"first": 0, "middle": a.size // 2, "last": -1}[where]] = bad
    return a


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_every_finiteness_check_rejects_a_non_finite_coordinate(bad, where, tmp_path, capsys):
    points, x = spoiled(FINITE_SET, where, bad), spoiled(FINITE_SET[0], where, bad)
    assert all_finite(FINITE_SET) and all_finite(FINITE_SET[0])
    assert not all_finite(points) and not all_finite(x)
    with pytest.raises(DomainError, match="finite coordinates"):
        check_point_set(FINITE_SET[0], points)
    with pytest.raises(DomainError, match="finite coordinates"):
        check_point_set(x, FINITE_SET)
    with pytest.raises(DomainError, match="points must be finite"):
        PointCloud(layer=LayerSpec(d=3, r=0.0), points=points, seed=0)
    source = tmp_path / "pts.csv"
    source.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in points))
    assert main(["check", "--input", str(source), "--mode", "set"]) == EXIT_DOMAIN
    assert "input points must be finite" in capsys.readouterr().err


def test_finiteness_of_empty_sets():
    assert all_finite(np.empty(0)) and all_finite(np.empty((0, 3)))
    assert check_point_set(FINITE_SET[0], np.empty((0, 3)))[1].shape == (0, 3)
    assert PointCloud(layer=LayerSpec(d=3, r=0.0), points=np.empty((0, 3)), seed=0).n == 0
