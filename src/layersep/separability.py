"""Point-vs-set separability checks with re-checkable certificates.

Two notions of separability for a point X against a finite set M:

* Fisher: ``(X, Y) < (X, X)`` strictly for every Y in M.  The hyperplane with
  normal X witnesses it.  Cheapest check, and it implies linear separability.
* Linear: ``X not in conv(M)``.  Decided by the bounded-normal margin program
  ``max m  s.t. (A, X - Y) >= m for all Y,  |A|_inf <= 1``; the point is
  separable iff the optimal margin exceeds ``tol``.  The implementation runs
  the revised simplex on the exact dual of that program — minimize
  ``|X - sum(lambda_j Y_j)|_1`` over the probability simplex — which has the
  same optimal value and (dimension + 1) rows however large M is.  The solve
  starts from a crash basis that is feasible by construction.  The dual values
  give the optimal normal A, the basis gives the convex coefficients; so one
  solve produces the witness for either verdict.

Set-level checks ask whether every point is separable from the others
(1-convexity).  Both set checks get every point's Fisher margin from one
blockwise Gram kernel, ``fisher_margins``.  The linear set check is a cascade
(Gorban et al. 2018): a point that fails the Fisher test gets at most
``PERCEPTRON_STEPS`` perceptron steps from its Fisher normal X, and only a
point the perceptron does not certify goes to the simplex.  Novikoff (1962)
bounds the steps a perceptron needs by (R / gamma)^2, so well-separated points
are settled by a few matvecs.  A perceptron normal is accepted only when its
computed margin exceeds the LP's tolerance by more than the rounding-error
bound of the products (``gap_error_bound``), so it certifies only points whose
LP margin exceeds that tolerance: points the LP calls separable.

A separable certificate is re-checked with the same bound: a computed gap
(A, X) - (A, Y) beyond the bound has the sign of the exact one, and a gap
within it is decided in exact integer arithmetic (:mod:`layersep.dyadic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dyadic import gaps_positive_exactly
from .errors import LPStallError, check_int, check_point_set, check_real
from .geometry import PointCloud
from .lp import solve_standard_form

__all__ = [
    "DEFAULT_TOL",
    "SeparabilityCertificate",
    "SetReport",
    "fisher_margins",
    "fisher_separable_point",
    "fisher_separable_set",
    "gap_error_bound",
    "linearly_separable_point",
    "linearly_separable_set",
    "fisher_point_vs_set",
    "lp_point_vs_set",
    "others_of",
    "verify_certificate",
]

DEFAULT_TOL = 1e-9
# perceptron matvecs per point the Fisher test leaves open, before the simplex
PERCEPTRON_STEPS = 20

# simplex pivot budget for a check against k points in dimension d: the cloud
# has n = k + 1 points, cap = 50 * (n + d)
def _pivot_cap(k: int, d: int) -> int:
    return 50 * (k + 1 + d)


@dataclass(frozen=True)
class SeparabilityCertificate:
    """One verdict plus the evidence to re-check it by direct arithmetic.

    Attributes:
        verdict: 'separable' or 'not_separable'.
        method: 'fisher' | 'perceptron' | 'lp' | 'exact_oracle' — which
            decision path ran.  'perceptron' certificates come only from the
            linear set check and are always separable.
        margin: achieved strict-separation slack.  Fisher: min over Y of
            (X,X) - (X,Y) (negative when not separable, +inf for an empty M).
            Perceptron: min over Y of (A,X) - (A,Y) for its normal A.
            LP: the optimal margin of the bounded-normal program.  The exact
            oracle proves verdicts without a metric, so it reports 0.0.
        hyperplane: witness normal A with (A, X) > (A, Y) for all Y; present
            for separable fisher/perceptron/lp verdicts.
        coefficients: convex coefficients over M (aligned with M's order)
            reconstructing X; present for not_separable lp/exact verdicts.
    """

    verdict: str
    method: str
    margin: float
    hyperplane: np.ndarray | None = None
    coefficients: np.ndarray | None = None

    @property
    def separable(self) -> bool:
        return self.verdict == "separable"


@dataclass(frozen=True)
class SetReport:
    """Outcome of a 1-convexity check; per-point certificates are built on demand.

    ``margins`` holds the Fisher margin of each inspected point in order (the
    point passed the Fisher test iff its margin is > 0) and ``lp_certificates``
    the certificate of each point handed past the Fisher screen, by index,
    whether the perceptron stage or the simplex decided it.  In verdict-only
    mode the inspected points, and so ``per_point``, stop at the first failure.
    ``lp_calls`` counts the points handed past the Fisher screen and
    ``lp_skipped_by_fisher`` the points the screen settled; their sum is the
    number of linear checks.  ``simplex_runs`` counts the points of
    ``lp_calls`` the perceptron did not certify, so the LP ran on them.
    """

    all_separable: bool
    first_failure: int | None
    margins: np.ndarray = field(repr=False, compare=False)
    points: np.ndarray = field(repr=False, compare=False)
    lp_certificates: dict = field(default_factory=dict, repr=False, compare=False)
    lp_calls: int = 0
    lp_skipped_by_fisher: int = 0
    simplex_runs: int = 0

    @cached_property
    def per_point(self) -> tuple[SeparabilityCertificate, ...]:
        return tuple(
            self.lp_certificates[i]
            if i in self.lp_certificates
            else _fisher_certificate(self.points[i], margin)
            for i, margin in enumerate(self.margins.tolist())
        )


def others_of(points: np.ndarray, i: int) -> np.ndarray:
    """The rows of ``points`` other than row i, in order: the set point i is checked against."""
    return np.delete(points, i, axis=0)


# ---------------------------------------------------------------------------
# Fisher checks

FISHER_BLOCK = 256  # Gram rows per block, and the granularity of the early exit


def gap_error_bound(d: int, a_peak, x_peak, y_peak):
    """Bound on the rounding error of a computed gap ``(A, X) - (A, Y)``.

    ``a_peak``, ``x_peak`` and ``y_peak`` bound the largest coordinates of A,
    X and Y in magnitude (scalars or arrays that broadcast).  A computed gap
    above the bound is positive in exact arithmetic, one below minus the bound
    is negative.
    """
    # any summation order gives |fl(a.y) - (a,y)| <= d u sum|a_k y_k| <= d^2 u
    # max|a| max|y|: the bound covers two such errors and underflow
    band = 4.0 * d * d * 2.0**-53 * a_peak * (x_peak + y_peak)
    band += d * 2.0**-1072
    return band


def _fisher_certificate(x: np.ndarray, margin: float) -> SeparabilityCertificate:
    # margin > 0 is the strict test: two floats differ by zero only when equal
    if margin > 0.0:
        return SeparabilityCertificate("separable", "fisher", margin, hyperplane=x.copy())
    return SeparabilityCertificate("not_separable", "fisher", margin)


def _point_margin(x: np.ndarray, others: np.ndarray) -> float:
    """(x,x) - max_y (x,y).  Unlike BLAS, einsum reduces each row on its own,
    so a row's inner product does not depend on the row's position: permuting
    ``others`` or deleting a row leaves every product bit-identical."""
    self_dot = np.einsum("ij,j->i", x[None, :], x)[0]
    return float(self_dot - np.einsum("ij,j->i", others, x).max())


def fisher_margins(points: np.ndarray, stop_at_failure: bool = False) -> np.ndarray:
    """margin_i = (X_i,X_i) - max_{j != i} (X_i,X_j) for every row, blockwise Gram.

    Row i is Fisher-separable from the other rows iff margin_i > 0.  A Gram
    margin within the rounding-error bound of 0 is recomputed with the product
    of ``fisher_point_vs_set``, so the sign always equals that function's
    verdict.  ``stop_at_failure`` ends the scan after the first block holding a
    margin <= 0, and the result then covers only the rows scanned.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, d = points.shape
    self_dots = np.einsum("ij,ij->i", points, points)
    peaks = np.abs(points).max(axis=1)
    tie_band = gap_error_bound(d, peaks, peaks, peaks.max(initial=0.0))
    columns = np.ascontiguousarray(points.T)  # a faster GEMM operand than the view
    # the Gram matrix is symmetric: a block's rows meet only the columns from its
    # start on, and col_max carries the earlier blocks' part of each row maximum
    col_max = np.full(n, -np.inf)
    margins = np.empty(n)
    for start in range(0, n, FISHER_BLOCK):
        stop = min(start + FISHER_BLOCK, n)
        gram = points[start:stop] @ columns[:, start:]
        np.fill_diagonal(gram, -np.inf)
        np.maximum(col_max[start:], gram.max(axis=0), out=col_max[start:])
        block = margins[start:stop]
        row_max = np.maximum(gram.max(axis=1), col_max[start:stop])
        np.subtract(self_dots[start:stop], row_max, out=block)
        for i in np.flatnonzero(np.abs(block) <= tie_band[start:stop]):
            block[i] = _point_margin(points[start + i], others_of(points, start + i))
        if stop_at_failure and not np.all(block > 0.0):
            return margins[:stop]
    return margins


def fisher_point_vs_set(x: np.ndarray, others: np.ndarray) -> SeparabilityCertificate:
    """Fisher-separate an arbitrary point from an arbitrary finite set."""
    x, others = check_point_set(x, others)
    x = np.ascontiguousarray(x)
    if len(others) == 0:
        return _fisher_certificate(x, float("inf"))
    return _fisher_certificate(x, _point_margin(x, np.ascontiguousarray(others)))


def fisher_separable_point(i: int, cloud: PointCloud) -> SeparabilityCertificate:
    """Is point i Fisher-separable from the rest of the cloud?"""
    i = check_int(i, "point index", 0, cloud.n)
    return fisher_point_vs_set(cloud.points[i], others_of(cloud.points, i))


def fisher_separable_set(cloud: PointCloud, verdict_only: bool = False) -> SetReport:
    """Fisher 1-convexity: every point Fisher-separable from the others.

    ``verdict_only`` permits early exit at the first failure; per_point is
    then truncated.
    """
    margins = fisher_margins(cloud.points, stop_at_failure=verdict_only)
    failures = np.flatnonzero(margins <= 0.0)
    first_failure = int(failures[0]) if failures.size else None
    if verdict_only and first_failure is not None:
        margins = margins[: first_failure + 1]
    return SetReport(first_failure is None, first_failure, margins, cloud.points)


# ---------------------------------------------------------------------------
# linear (hull) checks


def lp_point_vs_set(
    x: np.ndarray, others: np.ndarray, tol: float = DEFAULT_TOL
) -> SeparabilityCertificate:
    """Linear-separate an arbitrary point from an arbitrary finite set.

    Runs the L1 polytope-distance program described in the module docstring.
    Raises LPStallError if the simplex stalls, or if the normal it yields does
    not strictly separate (diagnostic, not a verdict).
    """
    x, others = check_point_set(x, others)
    tol = check_real(tol, "tol", 0.0, np.inf)
    k, d = others.shape
    if k == 0:
        return SeparabilityCertificate(
            "separable", "lp", float("inf"), hyperplane=x.copy()
        )
    scale = max(float(np.abs(others).max(initial=0.0)), float(np.abs(x).max(initial=0.0)))
    tol_eff = _scaled_tol(tol, scale)

    # min sum(u) + sum(v)  s.t.  (others - x).T @ lam + u - v = 0,  sum(lam) = 1:
    # x - others.T @ lam written with sum(lam) = 1, so that points within ~1e-9
    # of x enter as differences at full relative precision and their nearly
    # parallel columns do not swamp the simplex in rounding error
    n_var = k + 2 * d
    A = np.zeros((d + 1, n_var))
    A[:d, :k] = (others - x).T
    A[:d, k : k + d] = np.eye(d)
    A[:d, k + d :] = -np.eye(d)
    A[d, :k] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    c = np.concatenate([np.zeros(k), np.ones(2 * d)])
    # crash basis: lam_j = 1 for the point with the largest Fisher product, and
    # u_i or v_i carries |x - y_j|_i by its sign.  B = [[y_j - x, diag(+-1)],
    # [1, 0]] has determinant +-1 and B^-1 b = (1, |x - y_j|) >= 0.
    j = int(np.argmax(others @ x))
    coords = np.arange(d)
    crash = np.concatenate([[j], np.where(x >= others[j], k + coords, k + d + coords)])
    result = solve_standard_form(c, A, b, max_pivots=_pivot_cap(k, d), basis=crash)

    margin_star = result.objective
    if margin_star > tol_eff:
        normal = result.duals[:d].copy()
        peak = float(np.abs(normal).max())
        if peak > 1.0:  # rounding can poke the box constraint by ~1e-15
            normal /= peak
        achieved = float(np.min((x - others) @ normal))
        if not achieved > 0.0:
            raise LPStallError(
                f"optimal L1 distance {margin_star:.3e} exceeds the tolerance, but the "
                f"dual normal's margin is {achieved:.3e}; treating as a diagnostic, not a verdict"
            )
        return SeparabilityCertificate("separable", "lp", achieved, hyperplane=normal)
    lam = result.x[:k].copy()
    np.maximum(lam, 0.0, out=lam)
    return SeparabilityCertificate(
        "not_separable", "lp", float(margin_star), coefficients=lam
    )


def _scaled_tol(tol: float, scale: float) -> float:
    """The LP's tolerance for an instance whose largest coordinate is ``scale``
    (norms are <= 1 for shell clouds, so effectively absolute there)."""
    return tol * scale if scale > 0.0 else tol


def _perceptron_certificate(
    points: np.ndarray, i: int, peak: float, tol_eff: float
) -> SeparabilityCertificate | None:
    """Separate row i from the other rows by perceptron steps from A = X, or None.

    Each step is one matvec over all rows with row i masked; the most violated
    Y gives the update A <- A + (X - Y) / 2.  A is accepted once every computed
    gap (A, X) - (A, Y) exceeds the LP's tolerance scaled by max|A| by more
    than the rounding-error bound: then A / max|A| is a feasible normal of the
    margin program with a margin above ``tol_eff``, which the LP calls
    separable.  ``peak`` is max |points|.
    """
    x = points[i]
    d = len(x)
    x_peak = float(np.abs(x).max())
    normal = x.copy()
    for _ in range(PERCEPTRON_STEPS):
        products = points @ normal
        top = products[i]
        products[i] = -np.inf
        j = int(np.argmax(products))
        gap = float(top - products[j])
        a_peak = float(np.abs(normal).max())
        if gap > gap_error_bound(d, a_peak, x_peak, peak) + tol_eff * a_peak:
            return SeparabilityCertificate("separable", "perceptron", gap, hyperplane=normal)
        normal = normal + 0.5 * (x - points[j])
    return None


def linearly_separable_point(
    i: int, cloud: PointCloud, tol: float = DEFAULT_TOL
) -> SeparabilityCertificate:
    """Is point i outside the convex hull of the rest of the cloud?"""
    i = check_int(i, "point index", 0, cloud.n)
    return lp_point_vs_set(cloud.points[i], others_of(cloud.points, i), tol)


def linearly_separable_set(
    cloud: PointCloud, tol: float = DEFAULT_TOL, verdict_only: bool = False
) -> SetReport:
    """Linear 1-convexity by the Fisher, perceptron, simplex cascade.

    Points that pass the Fisher check are recorded separable with
    method='fisher' (Fisher separability implies linear separability).  The
    perceptron stage certifies what it can of the rest with method='perceptron',
    and the LP decides the remainder.  verdict_only permits early exit at the
    first not-separable point.
    """
    tol = check_real(tol, "tol", 0.0, np.inf)
    pts = cloud.points
    margins = fisher_margins(pts)
    lp_certificates: dict[int, SeparabilityCertificate] = {}
    first_failure = None
    simplex_runs = 0
    peak = tol_eff = None
    for i in np.flatnonzero(margins <= 0.0).tolist():
        if peak is None:  # a cloud the Fisher test settles pays nothing here
            peak = float(np.abs(pts).max())
            tol_eff = _scaled_tol(tol, peak)
        cert = _perceptron_certificate(pts, i, peak, tol_eff)
        if cert is None:
            cert = lp_point_vs_set(pts[i], others_of(pts, i), tol)
            simplex_runs += 1
        lp_certificates[i] = cert
        if not cert.separable and first_failure is None:
            first_failure = i
            if verdict_only:
                margins = margins[: i + 1]
                break
    skipped = int(np.count_nonzero(margins > 0.0))
    return SetReport(first_failure is None, first_failure, margins, pts, lp_certificates,
                     len(lp_certificates), skipped, simplex_runs)


# ---------------------------------------------------------------------------
# certificate re-checking


def verify_certificate(
    cert: SeparabilityCertificate,
    x: np.ndarray,
    others: np.ndarray,
    tol: float = DEFAULT_TOL,
    eps: float = 1e-9,
) -> bool:
    """Re-check a certificate by direct arithmetic.

    Separable with hyperplane A: margin > 0, (A, x) - (A, y) > 0 exactly for
    every y, and (A, x) - (A, y) >= margin * (1 - eps) for every y up to the
    rounding-error bound of the computed gaps (``gap_error_bound``).  A gap
    within that bound of 0 is decided in exact integer arithmetic.  Not
    separable with coefficients: they are nonnegative, sum to 1 within
    tolerance, and reconstruct x within 10 * tol.  Verdicts without a witness
    (vacuous separations, exhaustive oracle proofs, Fisher failures) verify
    trivially.  x, others, ``tol`` > 0 and ``eps`` in [0, 1) are validated
    (DomainError); a witness of the wrong shape or a non-finite normal fails.
    """
    x, others = check_point_set(x, others)
    tol = check_real(tol, "tol", 0.0, np.inf)
    eps = check_real(eps, "eps", 0.0, 1.0, low_closed=True)
    if cert.separable and cert.hyperplane is not None:
        normal = np.asarray(cert.hyperplane, dtype=np.float64)
        if not (cert.margin > 0.0 and normal.shape == x.shape and np.isfinite(normal).all()):
            return False  # also rejects a NaN margin
        if len(others) == 0:
            return True
        gaps = float(normal @ x) - others @ normal
        band = gap_error_bound(len(x), np.abs(normal).max(), np.abs(x).max(),
                               np.abs(others).max())
        claimed = min(cert.margin, np.finfo(np.float64).max) * (1.0 - eps)
        if np.any(gaps < claimed - band):
            return False
        close = others[~(gaps > band)]  # also takes the NaN of overflowed products
        return gaps_positive_exactly(normal.tolist(), x.tolist(), close.tolist())
    if not cert.separable and cert.coefficients is not None:
        lam = np.asarray(cert.coefficients, dtype=np.float64)
        if lam.shape != (len(others),) or bool(np.any(lam < 0.0)):
            return False
        if abs(float(lam.sum()) - 1.0) > 1e-7:
            return False
        recon = lam @ others
        return bool(np.linalg.norm(recon - x) <= 10.0 * tol)
    return cert.hyperplane is None and cert.coefficients is None

