"""Revised primal simplex for small standard-form linear programs.

Solves ``min c @ x  s.t.  A @ x = b, x >= 0``.  Built for the hull-membership
programs in :mod:`layersep.separability`: few rows (dimension + 1), possibly
many columns (cloud size), well-scaled coefficients.

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
ratio-test ties.

The solve starts from a feasible basis that the caller supplies; there is no
phase 1.  A pivot cap turns numerical pathology into a loud
:class:`LPStallError` instead of a wrong answer.

Steps over the n columns run in NumPy.  The ratio test and the start checks, over
m entries, run on Python floats: there NumPy's per-call cost and the GIL it may
hand to another thread at each call outweigh the arithmetic.  They do the same
float operations in the same order, so every pivot and result is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LPStallError, all_finite

# reduced costs / pivot elements below this count as zero
PIVOT_TOL = 1e-11
# a negative start-basis value above -FEASIBILITY_TOL counts as feasible
FEASIBILITY_TOL = 1e-9
# eta updates between two refactorizations of the basis inverse
REFACTOR_EVERY = 32

__all__ = ["SimplexResult", "solve_standard_form", "PIVOT_TOL", "FEASIBILITY_TOL"]


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


def solve_standard_form(c, A, b, max_pivots: int, basis) -> SimplexResult:
    """Revised simplex from a caller's feasible basis.

    Args:
        c: costs, shape (n,).
        A: equality-constraint matrix, shape (m, n).
        b: right-hand side, shape (m,).
        max_pivots: hard cap on total pivots; exceeding it raises LPStallError.
        basis: m distinct column indices whose matrix ``A[:, basis]`` is
            nonsingular with ``A[:, basis]^-1 b >= -FEASIBILITY_TOL``.

    Raises:
        DomainError: ``A`` is not 2-d, ``c`` or ``b`` does not match its
            shape, an entry of ``c``, ``A`` or ``b`` is NaN or infinite, or
            ``basis`` is malformed, singular or infeasible.
        LPStallError: pivot cap exceeded, or an unbounded ray shows up (which
            for a correctly posed bounded program means numerical failure).
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if A.ndim != 2:
        raise DomainError(f"A must be a 2-d matrix, got shape {A.shape}")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise DomainError(
            f"c must have shape ({n},) and b shape ({m},) for A of shape {A.shape}, "
            f"got {c.shape} and {b.shape}"
        )
    for name, values in (("c", c), ("A", A), ("b", b)):
        if not all_finite(values):  # NaN fails every feasibility and pricing test
            raise DomainError(f"{name} must have finite entries")
    simplex = _start(A, b, basis, max_pivots)
    duals = simplex.run(c)
    x = np.zeros(n)
    x[simplex.basis] = simplex.xb
    np.maximum(x, 0.0, out=x)  # basic values can round to -1e-17
    return SimplexResult(x, duals, float(c @ x), simplex.pivots)


def _start(A, b, basis, max_pivots) -> _Simplex:
    """The solve at a caller's start basis, checked as outside input."""
    m, n = A.shape
    idx = np.asarray(basis)
    if idx.shape != (m,) or not np.issubdtype(idx.dtype, np.integer):
        raise DomainError(f"basis must hold {m} integer column indices, got {basis!r}")
    ids = idx.tolist()
    if min(ids, default=0) < 0 or max(ids, default=0) >= n:
        raise DomainError(f"basis indices must lie in [0, {n}), got {basis!r}")
    if len(set(ids)) != m:
        raise DomainError(f"basis indices must be distinct, got {basis!r}")
    try:
        simplex = _Simplex(A, b, idx, max_pivots)
    except np.linalg.LinAlgError:
        raise DomainError("basis matrix A[:, basis] is singular") from None
    condition = np.abs(A[:, idx]).sum(axis=0).max() * np.abs(simplex.binv).sum(axis=0).max()
    if not condition < 1.0 / np.finfo(np.float64).eps:  # also rejects inf and NaN
        raise DomainError("basis matrix A[:, basis] is singular")
    if any(v < -FEASIBILITY_TOL for v in simplex.xb.tolist()):
        raise DomainError("basis is not feasible: A[:, basis]^-1 b has a negative entry")
    return simplex


class _Simplex:
    """Basis, basis inverse and basic values of one revised-simplex solve."""

    def __init__(self, A, b, basis, max_pivots):
        self.A = A
        self.b = b
        self.basis = np.array(basis, dtype=np.intp)
        self.max_pivots = max_pivots
        self.pivots = 0
        self.refactor()

    def refactor(self) -> None:
        self.binv = np.linalg.inv(self.A[:, self.basis])
        self.xb = self.binv @ self.b
        self.etas = 0

    def pivot(self, r: int, q: int, column: np.ndarray, theta: float) -> None:
        """Column q enters at row r with value ``theta``; ``column`` is
        ``binv @ A[:, q]``, and its entry r is zeroed here to serve as the eta."""
        self.xb -= theta * column
        self.xb[r] = theta
        self.binv[r] /= column[r]
        column[r] = 0.0
        self.binv -= column[:, None] * self.binv[r]
        self.basis[r] = q
        self.pivots += 1
        self.etas += 1
        if self.etas >= REFACTOR_EVERY:
            self.refactor()

    def run(self, costs: np.ndarray) -> np.ndarray:
        """Pivot until no column prices out; return the duals.  Pricing is
        Dantzig's, or Bland's after more than m pivots in a row without
        progress (see the module docstring)."""
        m = len(self.basis)
        basic_costs = costs[self.basis]  # kept equal to costs[self.basis] by each pivot
        best = float(basic_costs @ self.xb)
        stalled = 0
        while True:
            duals = basic_costs @ self.binv
            reduced = costs - duals @ self.A
            if stalled > m:
                candidates = np.flatnonzero(reduced < -PIVOT_TOL)
                q = int(candidates[0]) if candidates.size else -1
            else:
                q = int(reduced.argmin())
                if reduced[q] >= -PIVOT_TOL:
                    q = -1
            if q < 0:
                if self.etas == 0:
                    return duals
                self.refactor()  # confirm optimality on a fresh inverse
                continue
            column = self.binv @ self.A[:, q]
            xb, basis = self.xb.tolist(), self.basis.tolist()
            ratios = [(max(xb[i], 0.0) / v, i)
                      for i, v in enumerate(column.tolist()) if v > PIVOT_TOL]
            if not ratios:
                raise LPStallError("unbounded direction in a bounded program")
            theta = min(ratios)[0]
            near = {i: ratio for ratio, i in ratios if ratio <= theta + 1e-12 * (1.0 + theta)}
            r = min(near, key=basis.__getitem__)  # Bland: lowest basis index
            self.pivot(r, q, column, near[r])
            basic_costs[r] = costs[q]
            if self.pivots > self.max_pivots:
                raise LPStallError(
                    f"simplex exceeded its pivot cap ({self.max_pivots}); "
                    "treating as a diagnostic, not a verdict"
                )
            objective = float(basic_costs @ self.xb)
            if objective < best - PIVOT_TOL * (1.0 + abs(best)):
                best, stalled = objective, 0
            else:
                stalled += 1
