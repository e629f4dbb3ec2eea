"""Point-vs-set separability checks with re-checkable certificates.

Two notions of separability for a point X against a finite set M:

* Fisher: ``(X, Y) < (X, X)`` strictly for every Y in M.  The hyperplane with
  normal X witnesses it.  Cheapest check, and it implies linear separability.
* Linear: ``X not in conv(M)``.  Decided by the bounded-normal margin program
  ``max m  s.t. (A, X - Y) >= m for all Y,  |A|_inf <= 1``; the point is
  separable iff the optimal margin exceeds ``tol`` times max|coordinate|.  The
  revised simplex runs on the exact dual of that program — minimize
  ``|X - sum(lambda_j Y_j)|_1`` over the probability simplex — which has
  (dimension + 1) rows however large M is, from a crash basis that is feasible
  by construction.  The dual values give the optimal normal A, the basis the
  convex coefficients; so one solve produces the witness for either verdict.

Neither notion changes under positive scaling, and scaling by a power of two is
exact, so both point checks, ``fisher_flags`` and the perceptron stage decide X
and M times ``2**-e``, with e the exponent of their peak: no product over- or
underflows, and the simplex's absolute tolerances see the same floats at any
scale.  Margins come back times ``2**2e`` (Fisher) or ``2**e`` (LP) by
``dyadic.times_two_to``, which keeps a positive margin > 0.

Set-level checks ask whether every row of an (n, d) array, any finite input
``errors.check_points`` accepts, is separable from the others (1-convexity).
Both use only the sign of each Fisher margin, from one float32 blockwise Gram
kernel, ``fisher_flags``; its rounding band sends close calls to the point
check's float64 product, so every sign is that check's verdict.  Margin values
are computed only when read, and equal its margins bit for bit.  The linear set
check is a cascade (Gorban et al. 2018): a point that fails the Fisher test
gets at most ``PERCEPTRON_STEPS`` perceptron steps from its Fisher normal X,
and only a point the perceptron does not certify goes to the simplex.  Novikoff
(1962) bounds the steps a perceptron needs by (R / gamma)^2, so well-separated
points are settled by a few matvecs.  A perceptron normal is accepted only when
its computed margin exceeds the LP's tolerance by more than the rounding-error
bound of the products (``gap_error_bound``), so it certifies only points the LP
calls separable.

A separable certificate is re-checked with the same bound: a computed gap
(A, X) - (A, Y) beyond the bound has the sign of the exact one, and a gap
within it is decided in exact integer arithmetic (:mod:`layersep.dyadic`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dyadic import gaps_positive_exactly, peak, split_peak, times_two_to
from .errors import LPStallError, check_point_set, check_points, check_real
from .lp import first_extreme, solve_standard_form

__all__ = [
    "DEFAULT_TOL",
    "SeparabilityCertificate",
    "SetReport",
    "fisher_flags",
    "fisher_margins",
    "fisher_separable_set",
    "gap_error_bound",
    "linearly_separable_set",
    "fisher_point_vs_set",
    "lp_point_vs_set",
    "verify_certificate",
]

DEFAULT_TOL = 1e-9
# perceptron matvecs per point the Fisher test leaves open, before the simplex
PERCEPTRON_STEPS = 20

# relative slack a separable certificate's re-checked gaps get below its margin
RECHECK_EPS = 1e-9


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
    """Outcome of a 1-convexity check; margins and certificates are built on demand.

    ``flags`` holds whether each inspected point in order passed the Fisher
    test, and ``margins`` its Fisher margin, > 0 exactly where the flag is set.
    ``points`` is the array the check was given (as float64, not copied when it
    already was); ``margins`` and ``per_point`` read it when first read.
    ``lp_certificates`` holds the certificate of each point handed past the
    Fisher screen, by index, whether the perceptron stage or the simplex
    decided it.  In verdict-only mode the inspected points, and so
    ``per_point``, stop at the first failure.  A linear failure fails the
    screen first, so the flags of either report give the Fisher verdict.
    ``lp_skipped_by_fisher`` counts the points the screen settled.  The other
    two counters are read off the certificates: ``lp_calls``, the points handed
    past the screen (with ``lp_skipped_by_fisher``, the number of linear
    checks), and ``simplex_runs``, those of them the perceptron did not
    certify, so the LP ran on them.
    """

    all_separable: bool
    first_failure: int | None
    flags: np.ndarray = field(repr=False, compare=False)
    points: np.ndarray = field(repr=False, compare=False)
    lp_certificates: dict = field(default_factory=dict, repr=False, compare=False)
    lp_skipped_by_fisher: int = 0

    @property
    def lp_calls(self) -> int:
        return len(self.lp_certificates)

    @property
    def simplex_runs(self) -> int:
        return sum(cert.method == "lp" for cert in self.lp_certificates.values())

    @cached_property
    def margins(self) -> np.ndarray:
        return fisher_margins(self.points, len(self.flags))

    @cached_property
    def per_point(self) -> tuple[SeparabilityCertificate, ...]:
        return tuple(
            self.lp_certificates[i]
            if i in self.lp_certificates
            else _fisher_certificate(self.points[i], margin)
            for i, margin in enumerate(self.margins.tolist())
        )


# ---------------------------------------------------------------------------
# Fisher checks

FISHER_BLOCK = 256  # Gram rows per block, and the granularity of the early exit
_gram_scratch = threading.local()  # fisher_flags' Gram block buffer, one per thread


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


def _point_margin(x: np.ndarray, others: np.ndarray, skip: int | None = None) -> float:
    """(x,x) - max_y (x,y) over the rows y of ``others`` but row ``skip``, +inf for
    no y.  Unlike BLAS, einsum reduces each row on its own: permuting ``others``
    or deleting or skipping a row leaves every product bit-identical."""
    self_dot = np.einsum("ij,j->i", x[None, :], x)[0]
    products = np.einsum("ij,j->i", others, x)
    if skip is not None:
        # shift out row skip: max reduces the array a deletion leaves, NaN sign included
        products[skip:-1] = products[skip + 1:]
        products = products[:-1]
    return float(self_dot - products.max(initial=-np.inf))


def _sign_band(d: int, norms: np.ndarray) -> np.ndarray:
    """Per row of a cloud scaled to coordinates below 1, with row norms
    ``norms``: a float32 Gram margin beyond the band has the sign of
    ``_point_margin`` on the row.  +inf (the float64 fallback) where the bound
    fails: d + 2 >= 2**24, or a norm negative or not finite."""
    norm_peak = float(np.max(norms, initial=0.0))
    k = d + 2
    if not (k * 2.0**-24 < 1.0 and math.isfinite(norm_peak) and np.min(norms, initial=0.0) >= 0.0):
        return np.full(np.shape(norms), np.inf)
    # Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1: with
    # operands rounded to float32 and any summation order, FMA included,
    # |fl32(X.Y) - (X,Y)| <= gamma_{d+2} |X| |Y|, gamma_k = k u / (1 - k u),
    # u = 2**-24; _point_margin's products obey it with gamma_d, u = 2**-53.
    # A margin holds two products; beyond both errors the two signs agree.
    gamma32 = k * 2.0**-24 / (1.0 - k * 2.0**-24)
    gamma64 = d * 2.0**-53 / (1.0 - d * 2.0**-53)
    # underflow: a cast or product errs by 2**-150 in float32, by 2**-1075 in float64
    floor = d * 2.0**-146 + d * 2.0**-1073
    # the last factor covers rounding in the float32 subtraction, the norms and here
    return ((2.0 * (gamma32 + gamma64) * norm_peak) * norms + floor) * (1.0 + 2.0**-20)


def fisher_flags(points, stop_at_failure: bool = False) -> np.ndarray:
    """flag_i: is row i Fisher-separable from the other rows, as
    ``fisher_point_vs_set`` says?  ``points`` is any set ``check_points``
    accepts.  One blockwise float32 Gram pass; a row inside ``_sign_band`` goes
    to ``_point_margin``.  ``stop_at_failure`` ends the scan after the first
    block holding a failure, and the result then covers only the rows scanned.

    Every block is written into one float32 buffer that the calling thread keeps
    across calls and grows to ``FISHER_BLOCK * n`` for the largest n it has seen
    (1 MB at n = 1000, 10 MB at n = 10000) until the thread ends: a block
    allocated per call is returned to the system and faulted in again."""
    points, top = check_points(points)
    n, d = points.shape
    # scaled so that max|coord| lies in [0.5, 1): nothing overflows float32
    _, exponent = split_peak(top)
    scaled = np.ldexp(points, -exponent) if exponent else points
    band = _sign_band(d, np.sqrt(np.einsum("ij,ij->i", scaled, scaled)))
    rows = scaled.astype(np.float32)
    columns = np.ascontiguousarray(rows.T)  # a faster GEMM operand than the view
    # the Gram matrix is symmetric: a block's rows meet only the columns from its
    # start on, and col_max carries the earlier blocks' part of each row maximum
    col_max = np.full(n, -np.inf, dtype=np.float32)
    flags = np.empty(n, dtype=bool)
    size = min(FISHER_BLOCK, n) * n  # the first block is the largest
    buffer = getattr(_gram_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _gram_scratch.buffer = np.empty(size, dtype=np.float32)
    for start in range(0, n, FISHER_BLOCK):
        stop = min(start + FISHER_BLOCK, n)
        gram = buffer[: (stop - start) * (n - start)].reshape(stop - start, n - start)
        np.matmul(rows[start:stop], columns[:, start:], out=gram)
        margins = gram.diagonal().copy()
        np.fill_diagonal(gram, -np.inf)
        np.maximum(col_max[start:], gram.max(axis=0), out=col_max[start:])
        margins -= np.maximum(gram.max(axis=1), col_max[start:stop])
        block = flags[start:stop]
        np.greater(margins, 0.0, out=block)
        for i in np.flatnonzero(~(np.abs(margins) > band[start:stop])):
            block[i] = _point_margin(scaled[start + i], scaled, start + i) > 0.0
        if stop_at_failure and not block.all():
            return flags[:stop]
    return flags


def fisher_margins(points: np.ndarray, count: int | None = None) -> np.ndarray:
    """Float64 margin (X_i,X_i) - max_{j != i} (X_i,X_j) of each of the first
    ``count`` rows (default all), equal to ``fisher_point_vs_set``'s bit for bit."""
    points, top = check_points(points)
    _, e = split_peak(top)
    scaled = np.ldexp(points, -e) if e else points
    rows = range(len(points) if count is None else count)
    return np.array([times_two_to(2 * e, _point_margin(scaled[i], scaled, i)) for i in rows])


def fisher_point_vs_set(x: np.ndarray, others: np.ndarray) -> SeparabilityCertificate:
    """Fisher-separate an arbitrary point from an arbitrary finite set."""
    x, others, (_, e) = check_point_set(x, others)
    others = np.ldexp(others, -e) if e else others
    margin = _point_margin(np.ldexp(x, -e), others)
    return _fisher_certificate(x, times_two_to(2 * e, margin))


def fisher_separable_set(points, verdict_only: bool = False) -> SetReport:
    """Fisher 1-convexity: every row of ``points`` Fisher-separable from the others.

    ``verdict_only`` permits early exit at the first failure, truncating per_point.
    """
    flags = fisher_flags(points, stop_at_failure=verdict_only)  # checks the points
    points = np.asarray(points, dtype=np.float64)
    first_failure = None if flags.all() else first_extreme(min, flags)[0]
    if verdict_only and first_failure is not None:
        flags = flags[: first_failure + 1]
    return SetReport(first_failure is None, first_failure, flags, points)


# ---------------------------------------------------------------------------
# linear (hull) checks


def lp_point_vs_set(
    x: np.ndarray, others: np.ndarray, tol: float = DEFAULT_TOL
) -> SeparabilityCertificate:
    """Linear-separate an arbitrary point from an arbitrary finite set.

    Runs the L1 polytope-distance program described in the module docstring,
    on x and others times 2**-e.  Raises DomainError for input check_point_set
    rejects, and LPStallError if the simplex stalls or the normal it yields
    does not strictly separate (diagnostic, not a verdict).
    """
    x, others, (top, e) = check_point_set(x, others)
    tol = check_real(tol, "tol", 0.0, np.inf)
    k, d = others.shape
    if k == 0:
        return SeparabilityCertificate(
            "separable", "lp", float("inf"), hyperplane=x.copy()
        )
    tol_eff = tol * top  # relative to the largest coordinate, times 2**-e

    # min sum(u) + sum(v)  s.t.  (others - x).T @ lam + u - v = 0,  sum(lam) = 1:
    # x - others.T @ lam written with sum(lam) = 1, so that points within ~1e-9
    # of x enter as differences at full relative precision and their nearly
    # parallel columns do not swamp the simplex in rounding error
    A = np.zeros((d + 1, k + 2 * d))
    x, diff = np.ldexp(x, -e), A[:d, :k]
    np.ldexp(others.T, -e, out=diff)  # scaled in place: A is the one k x d array made
    diff -= x[:, None]
    step = k + 2 * d + 1  # flat distance from A[i, j] to A[i + 1, j + 1]
    A.flat[k : k + d * step : step] = 1.0
    A.flat[k + d : k + d + d * step : step] = -1.0
    A[d, :k] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    c = np.zeros(k + 2 * d)
    c[k:] = 1.0
    # crash basis: lam_j = 1 for the point with the largest (x, y_j - x), and
    # u_i or v_i carries |x - y_j|_i by its sign.  B = [[y_j - x, diag(+-1)],
    # [1, 0]] has determinant +-1 and B^-1 b = (1, |x - y_j|) >= 0.
    j, _ = first_extreme(max, x @ diff)
    crash = [j] + [k + i if v <= 0.0 else k + d + i for i, v in enumerate(diff[:, j].tolist())]
    # pivot budget: the cloud has n = k + 1 points, cap = 50 * (n + d)
    result = solve_standard_form(c, A, b, max_pivots=50 * (k + 1 + d), basis=crash)

    margin_star = result.objective
    if margin_star > tol_eff:
        normal = result.duals[:d].copy()
        normal_peak = peak(normal)
        if normal_peak > 1.0:  # rounding can poke the box constraint by ~1e-15
            normal /= normal_peak
        achieved = -float((normal @ diff).max())  # min over y of (A, x - y)
        if not achieved > 0.0:
            raise LPStallError(
                f"optimal L1 distance {margin_star:.3e} exceeds the tolerance, but the "
                f"dual normal's margin is {achieved:.3e}; treating as a diagnostic, not a verdict"
            )
        return SeparabilityCertificate("separable", "lp", times_two_to(e, achieved),
                                       hyperplane=normal)
    return SeparabilityCertificate("not_separable", "lp", times_two_to(e, margin_star),
                                   coefficients=result.x[:k].copy())


def _perceptron_certificate(
    points: np.ndarray, i: int, points_peak: float, tol_eff: float, e: int
) -> SeparabilityCertificate | None:
    """Separate row i from the other rows by perceptron steps from A = X, or None.

    Each step is one matvec over all rows with row i masked; the most violated
    Y gives the update A <- A + (X - Y) / 2.  A is accepted once every computed
    gap (A, X) - (A, Y) exceeds the LP's tolerance scaled by max|A| by more
    than the rounding-error bound: then A / max|A| is a feasible normal of the
    margin program with a margin above ``tol_eff``, which the LP calls
    separable.  ``points`` is a set times 2**-e, with max |coordinate|
    ``points_peak``; the certificate holds A times 2**e, for the set itself.
    """
    x = a = points[i].tolist()
    x_peak = max(map(abs, x), default=0.0)
    for _ in range(PERCEPTRON_STEPS):
        normal = np.array(a)
        products = points @ normal
        top = products[i].item()
        products[i] = -np.inf
        j, highest = first_extreme(max, products)
        gap = top - highest
        if gap > 0.0:  # the bound is positive, so no other gap can pass
            a_peak = max(map(abs, a))
            if gap > gap_error_bound(len(x), a_peak, x_peak, points_peak) + tol_eff * a_peak:
                return SeparabilityCertificate("separable", "perceptron", times_two_to(2 * e, gap),
                                               hyperplane=np.ldexp(normal, e))
        a = [ak + 0.5 * (xk - yk) for ak, xk, yk in zip(a, x, points[j].tolist())]
    return None


def linearly_separable_set(
    points, tol: float = DEFAULT_TOL, verdict_only: bool = False
) -> SetReport:
    """Linear 1-convexity of the rows of ``points`` by the Fisher, perceptron,
    simplex cascade.

    Points that pass the Fisher check are recorded separable with
    method='fisher' (Fisher separability implies linear separability).  The
    perceptron stage certifies what it can of the rest with method='perceptron',
    and the LP decides the remainder.  verdict_only permits early exit at the
    first not-separable point.
    """
    tol = check_real(tol, "tol", 0.0, np.inf)
    flags = fisher_flags(points)  # checks the points
    pts = np.asarray(points, dtype=np.float64)
    lp_certificates: dict[int, SeparabilityCertificate] = {}
    first_failure = None
    scaled = None
    for i in np.flatnonzero(~flags).tolist():
        if scaled is None:  # a cloud the Fisher test settles pays nothing here
            top, e = split_peak(peak(pts))
            scaled = np.ldexp(pts, -e) if e else pts
        cert = _perceptron_certificate(scaled, i, top, tol * top, e)
        if cert is None:
            cert = lp_point_vs_set(pts[i], np.delete(pts, i, axis=0), tol)
        lp_certificates[i] = cert
        if not cert.separable and first_failure is None:
            first_failure = i
            if verdict_only:
                flags = flags[: i + 1]
                break
    skipped = int(np.count_nonzero(flags))
    return SetReport(first_failure is None, first_failure, flags, pts, lp_certificates, skipped)


# ---------------------------------------------------------------------------
# certificate re-checking


def verify_certificate(
    cert: SeparabilityCertificate,
    x: np.ndarray,
    others: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Re-check a certificate by direct arithmetic.

    Separable with hyperplane A: margin > 0, (A, x) - (A, y) > 0 exactly for
    every y, and (A, x) - (A, y) >= margin * (1 - RECHECK_EPS) for every y up
    to the rounding-error bound of the computed gaps (``gap_error_bound``).  A gap
    within that bound of 0 is decided in exact integer arithmetic.  Not
    separable with coefficients: they are nonnegative, sum to 1 within
    tolerance, and reconstruct x within 10 * tol.  Verdicts without a witness
    (vacuous separations, exhaustive oracle proofs, Fisher failures) verify
    trivially.  x, others and ``tol`` > 0 are validated (DomainError); a
    witness of the wrong shape or a non-finite normal fails.
    """
    x, others, (_, e) = check_point_set(x, others)
    tol = check_real(tol, "tol", 0.0, np.inf)
    if cert.separable and cert.hyperplane is not None:
        normal = np.asarray(cert.hyperplane, dtype=np.float64)
        if not (cert.margin > 0.0 and normal.shape == x.shape and math.isfinite(peak(normal))):
            return False  # also rejects a NaN margin
        gaps = float(normal @ x) - others @ normal
        band = gap_error_bound(len(x), peak(normal), peak(x), peak(others))
        claimed = min(cert.margin, np.finfo(np.float64).max) * (1.0 - RECHECK_EPS)
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
        recon = lam @ np.ldexp(others, -e)  # times 2**-e, as the LP decides
        return bool(np.linalg.norm(recon - np.ldexp(x, -e)) <= 10.0 * tol)
    return cert.hyperplane is None and cert.coefficients is None

