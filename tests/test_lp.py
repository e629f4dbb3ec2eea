import math

import numpy as np
import pytest

from layersep.errors import DomainError, LPStallError
from layersep.lp import solve_standard_form


def test_simple_equality_lp():
    # min x2  s.t.  x1 + x2 = 1  ->  x = (1, 0)
    res = solve_standard_form(c=[0.0, 1.0], A=[[1.0, 1.0]], b=[1.0], max_pivots=100, basis=[1])
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-12)


def test_negative_rhs_rows_are_flipped():
    # min x1  s.t.  -x1 - x2 = -2  ->  x = (0, 2); a feasible start basis
    # needs no sign on b, so the row is solved as given
    res = solve_standard_form(c=[1.0, 0.0], A=[[-1.0, -1.0]], b=[-2.0], max_pivots=100, basis=[1])
    assert res.x == pytest.approx([0.0, 2.0], abs=1e-12)


def test_duals_satisfy_strong_duality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = 3, 8
        A = rng.normal(size=(m, n))
        b = A[:, :m] @ rng.uniform(0.1, 1.0, size=m)  # the first m columns are a feasible basis
        c = rng.normal(size=n)
        c -= c.min() - 0.5  # positive costs keep the program bounded
        res = solve_standard_form(c, A, b, max_pivots=1000, basis=range(m))
        # strong duality: y @ b == c @ x at the optimum
        assert res.duals @ b == pytest.approx(res.objective, rel=1e-8, abs=1e-8)
        # dual feasibility: y @ A <= c componentwise
        assert np.all(res.duals @ A <= c + 1e-8)


def test_unbounded_is_a_diagnostic():
    # min -x2  s.t.  x1 - x2 = 1: x2 grows without bound along x1 = 1 + x2
    with pytest.raises(LPStallError):
        solve_standard_form(c=[0.0, -1.0], A=[[1.0, -1.0]], b=[1.0], max_pivots=100, basis=[0])


def test_pivot_cap_is_a_diagnostic():
    with pytest.raises(LPStallError):
        solve_standard_form(c=[0.0, 1.0], A=[[1.0, 1.0]], b=[1.0], max_pivots=0, basis=[1])


# Beale (1955): Dantzig's most-negative rule with lowest-index ratio ties
# cycles on this program from the slack basis
BEALE_C = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
BEALE_A = [
    [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
]
BEALE_B = [0.0, 0.0, 1.0]


@pytest.mark.parametrize("basis", [[0, 1, 2]])
def test_bland_fallback_breaks_beale_cycle(basis):
    res = solve_standard_form(BEALE_C, BEALE_A, BEALE_B, max_pivots=100, basis=basis)
    assert res.objective == pytest.approx(-1.25, abs=1e-12)
    assert np.asarray(BEALE_A) @ res.x == pytest.approx(BEALE_B, abs=1e-12)


def test_start_basis_skips_phase_one():
    # min x2  s.t.  x1 + x2 = 1, started at x2 = 1: one pivot to x = (1, 0)
    res = solve_standard_form(c=[0.0, 1.0], A=[[1.0, 1.0]], b=[1.0], max_pivots=100, basis=[1])
    assert res.pivots == 1
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-12)
    # an optimal start basis needs no pivot at all
    res = solve_standard_form(c=[0.0, 1.0], A=[[1.0, 1.0]], b=[1.0], max_pivots=0, basis=[0])
    assert res.pivots == 0
    assert res.objective == 0.0


@pytest.mark.parametrize(
    "basis, message",
    [
        ([0], "integer column indices"),  # wrong length
        ([0, 1, 2], "integer column indices"),
        ([0.0, 1.0], "integer column indices"),
        ([True, False], "integer column indices"),
        ([[0, 1]], "integer column indices"),
        ([0, 0], "distinct"),
        ([0, 4], r"lie in \[0, 4\)"),
        ([-1, 0], r"lie in \[0, 4\)"),
        ([0, 1], "singular"),  # columns 0 and 1 are parallel
        ([2, 3], "not feasible"),  # x3 = -1
    ],
)
def test_start_basis_is_validated(basis, message):
    A = [[1.0, 2.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]]
    b = [1.0, -1.0]
    with pytest.raises(DomainError, match=message):
        solve_standard_form(c=[1.0, 1.0, 1.0, 1.0], A=A, b=b, max_pivots=100, basis=basis)


def test_nearly_singular_start_basis_is_rejected():
    A = [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]
    with pytest.raises(DomainError, match="singular"):
        solve_standard_form(c=[1.0, 1.0], A=A, b=[1.0, 1.0], max_pivots=100, basis=[0, 1])


@pytest.mark.parametrize(
    "c, A, b",
    [
        ([1.0], [1.0], [1.0]),  # A is not 2-d
        ([1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0]),  # c longer than A is wide
        ([1.0, 1.0], [[1.0, 1.0]], [1.0, 1.0]),  # b longer than A is tall
    ],
)
def test_mismatched_shapes_raise_domain_error(c, A, b):
    with pytest.raises(DomainError, match="shape"):
        solve_standard_form(c=c, A=A, b=b, max_pivots=10, basis=[0])


@pytest.mark.parametrize(
    "c, A, b, name",
    [
        ([1.0, 1.0], [[1.0, 1.0]], [math.nan], "b"),  # once returned x = [nan, 0]
        ([math.nan, 1.0], [[1.0, 1.0]], [1.0], "c"),  # once pivoted to objective nan
        ([1.0, math.inf], [[1.0, 1.0]], [1.0], "c"),
        ([1.0, 1.0], [[1.0, math.nan]], [1.0], "A"),  # outside the start basis
    ],
)
def test_non_finite_entries_raise_domain_error(c, A, b, name):
    with pytest.raises(DomainError, match=f"^{name} must have finite entries"):
        solve_standard_form(c=c, A=A, b=b, max_pivots=10, basis=[0])
