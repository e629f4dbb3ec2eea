"""The shared validators: one integer check and one real-interval check."""

import math

import numpy as np
import pytest

from layersep.asymptotics import fisher_gap_exact
from layersep.bounds import BoundQuery
from layersep.errors import DomainError, check_int, check_real
from layersep.experiments import ExperimentPlan
from layersep.geometry import LayerSpec

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
