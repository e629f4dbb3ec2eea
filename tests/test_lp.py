import numpy as np
import pytest

from layersep.errors import LPStallError
from layersep.lp import PICK_ON_FLOATS, first_extreme, solve_standard_form


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


@pytest.mark.parametrize("basis", [[0, 1, 2], np.array([0, 1, 2])])
def test_solve_leaves_its_inputs_alone(basis):
    # callers read A after the solve, and a caller's basis is theirs to reuse
    c, A, b = (np.array(v, dtype=np.float64) for v in (BEALE_C, BEALE_A, BEALE_B))
    inputs = [c.copy(), A.copy(), b.copy(), np.array(basis)]
    res = solve_standard_form(c, A, b, max_pivots=100, basis=basis)
    assert res.pivots > 0
    for before, after in zip(inputs, (c, A, b, basis)):
        assert np.array_equal(before, after)


class _NoNumPyPick(np.ndarray):
    def argmin(self, *args, **kwargs):
        raise AssertionError("argmin called on a small array")

    argmax = argmin


def _pick_inputs(size, rng):
    # random floats; forced ties of the extremes and of other entries; signed
    # zeros as the least, the greatest and every entry; bools
    values = rng.standard_normal(size)
    yield values
    for extreme in (values.min(), values.max(), values[0]):
        tied = values.copy()
        tied[rng.integers(size, size=max(1, size // 4))] = extreme
        yield tied
    zeros = np.where(rng.random(size) < 0.5, -0.0, 0.0)
    yield zeros
    for sign in (1.0, -1.0):
        signed = sign * np.abs(values)
        signed[rng.integers(size, size=max(1, size // 3))] = zeros[: max(1, size // 3)]
        yield signed
    for share in (0.0, 0.5, 1.0):
        yield rng.random(size) < share


@pytest.mark.parametrize("size", [1, PICK_ON_FLOATS, PICK_ON_FLOATS + 1, 1019])
@pytest.mark.parametrize("pick, numpy_pick", [(min, np.argmin), (max, np.argmax)])
def test_first_extreme_is_numpys_first_index(size, pick, numpy_pick):
    # the first of equal extremes, -0.0 and 0.0 being equal, on either path;
    # up to PICK_ON_FLOATS entries the pick never reaches NumPy's argmin/argmax
    rng = np.random.default_rng(size)
    for _ in range(20):
        for values in _pick_inputs(size, rng):
            want = int(numpy_pick(values))
            if size <= PICK_ON_FLOATS:
                values = values.view(_NoNumPyPick)
            i, extreme = first_extreme(pick, values)
            assert (type(i), i) == (int, want), values
            assert type(extreme) is type(values[want].item())
            assert np.array(extreme).tobytes() == np.asarray(values)[want].tobytes()
