"""Revised primal simplex for small standard-form linear programs.

Solves ``min c @ x  s.t.  A @ x = b, x >= 0`` for the hull-membership programs
of :mod:`layersep.separability`: few rows (dimension + 1), possibly many
columns (cloud size), well-scaled coefficients.  Their one builder also
supplies a feasible start basis, so there is no phase 1, and neither the
program nor that basis is checked.

The solver keeps an explicit inverse of the (m x m) basis matrix, updates it
by one rank-1 eta step per pivot and refactors it from ``A[:, basis]`` every
``REFACTOR_EVERY`` pivots and before it declares a basis optimal.  Pricing is
one matvec per pivot.  The entering column has the most negative reduced cost
(Dantzig).  A pivot makes progress when it lowers the best objective of the
run by more than the tolerance; after more than m pivots in a row without
progress (degenerate ones, and ones that rounding leaves flat) pricing takes
Bland's lowest index until progress resumes.  The best objective can fall
only finitely often, so a cycle would have to run under Bland's rule, which
cannot cycle.  The leaving row is always the lowest basis index among
ratio-test ties.  A pivot cap turns numerical pathology into a loud
:class:`LPStallError` instead of a wrong answer.

Steps over the n columns run in NumPy.  The ratio test, over m entries, and
pricing's pick among at most ``PICK_ON_FLOATS`` columns (``first_extreme``) run
on Python floats: there NumPy's per-call cost and the GIL it may hand to
another thread at each call (``argmin`` does at every call) outweigh the
arithmetic.  Both keep every float operation, so every pivot is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPStallError

# reduced costs / pivot elements below this count as zero
PIVOT_TOL = 1e-11
# eta updates between two refactorizations of the basis inverse
REFACTOR_EVERY = 32
PICK_ON_FLOATS = 32  # first_extreme searches arrays up to this size on Python floats

__all__ = ["SimplexResult", "first_extreme", "solve_standard_form", "PICK_ON_FLOATS", "PIVOT_TOL"]


@dataclass(frozen=True)
class SimplexResult:
    """Optimum of a simplex run.

    Attributes:
        x: optimal primal solution.
        duals: one multiplier per row.
        objective: c @ x at the returned point.
        pivots: total pivot count.
    """

    x: np.ndarray
    duals: np.ndarray
    objective: float
    pivots: int


def first_extreme(pick, values) -> tuple:
    """``(i, values[i])``, the entry as a Python scalar, with i the index ``np.argmin``
    (pick=min) or ``np.argmax`` (pick=max) gives for a 1-d array with no NaN."""
    if len(values) > PICK_ON_FLOATS:
        i = int(values.argmin() if pick is min else values.argmax())
        return i, values[i].item()
    extreme = pick(listed := values.tolist())  # the first of equal extremes, as in NumPy
    return listed.index(extreme), extreme


def solve_standard_form(c, A, b, max_pivots: int, basis) -> SimplexResult:
    """Revised simplex from a caller's feasible basis.

    The caller vouches for every condition below; none is checked, and a
    program that breaks one gives NumPy's error, LPStallError or a wrong answer.

    Args:
        c: finite costs, shape (n,).
        A: finite equality-constraint matrix, shape (m, n).
        b: finite right-hand side, shape (m,).
        max_pivots: hard cap on total pivots; exceeding it raises LPStallError.
        basis: m distinct column indices whose matrix ``A[:, basis]`` is
            nonsingular with ``A[:, basis]^-1 b >= 0``.

    Raises:
        LPStallError: pivot cap exceeded, or an unbounded ray shows up (which
            for a correctly posed bounded program means numerical failure).
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    basis = np.array(basis, dtype=np.intp)  # a copy: the pivots below write to it
    binv = np.linalg.inv(A[:, basis])
    xb = binv @ b

    # pivot until no column prices out: Dantzig's pricing, or Bland's after
    # more than m pivots in a row without progress (see the module docstring)
    basic_costs = c[basis]  # kept equal to c[basis] by each pivot
    best = float(basic_costs @ xb)
    pivots = etas = stalled = 0
    while True:
        duals = basic_costs @ binv
        reduced = c - duals @ A
        if stalled > m:
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            q = int(candidates[0]) if candidates.size else -1
        else:
            q, low = first_extreme(min, reduced)
            q = q if low < -PIVOT_TOL else -1
        if q < 0:
            if etas == 0:
                break
            binv = np.linalg.inv(A[:, basis])  # confirm optimality on a fresh inverse
            xb, etas = binv @ b, 0
            continue
        column = binv @ A[:, q]
        values, ids = xb.tolist(), basis.tolist()
        ratios = [(max(values[i], 0.0) / v, i)
                  for i, v in enumerate(column.tolist()) if v > PIVOT_TOL]
        if not ratios:
            raise LPStallError("unbounded direction in a bounded program")
        theta = min(ratios)[0]
        near = {i: ratio for ratio, i in ratios if ratio <= theta + 1e-12 * (1.0 + theta)}
        r = min(near, key=ids.__getitem__)  # Bland: lowest basis index
        # column q enters at row r; column's entry r is zeroed to serve as the eta
        xb -= near[r] * column
        xb[r] = near[r]
        binv[r] /= column[r]
        column[r] = 0.0
        binv -= column[:, None] * binv[r]
        basis[r] = q
        basic_costs[r] = c[q]
        pivots += 1
        etas += 1
        if etas >= REFACTOR_EVERY:  # before the objective below reads xb
            binv = np.linalg.inv(A[:, basis])
            xb, etas = binv @ b, 0
        if pivots > max_pivots:
            raise LPStallError(
                f"simplex exceeded its pivot cap ({max_pivots}); "
                "treating as a diagnostic, not a verdict"
            )
        objective = float(basic_costs @ xb)
        if objective < best - PIVOT_TOL * (1.0 + abs(best)):
            best, stalled = objective, 0
        else:
            stalled += 1
    x = np.zeros(n)
    x[basis] = xb
    np.maximum(x, 0.0, out=x)  # basic values can round to -1e-17
    return SimplexResult(x, duals, float(c @ x), pivots)
