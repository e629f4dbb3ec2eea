"""Exact hull-membership oracle for small instances, in integer arithmetic.

Decides ``X in conv(M)`` with no floating-point tolerance at all, in two
stages, after the input checks and the enumeration guard below.

Proof of separation.  A normal A with ``(A, X - Y) > 0`` for every Y in M
proves ``X not in conv(M)``: were ``X = sum(lam_j Y_j)`` with lam >= 0 summing
to 1, then ``0 = (A, X - X) = sum(lam_j (A, X - Y_j)) > 0``.  Candidates come
from floats: the Fisher normal A = X, then the normal after each of at most
``PERCEPTRON_STEPS`` perceptron steps ``A <- A + (X - Y*) / 2``, with Y* the
point of largest ``(A, Y)``.  The search runs on a copy scaled by the power of
two that brings the largest coordinate below 1, so no product overflows.  It
only proposes: a candidate whose float gaps are not all > 0 is skipped, and
one whose float gaps are counts only if every gap is positive in exact integer
arithmetic (:func:`layersep.dyadic.gaps_positive_exactly`).  Rounding can cost
a proof but never fake one.  A separable verdict carries no witness, so its
certificate is the same whichever stage decides.

Enumeration.  Otherwise X is in the hull iff some subset of at most d+1 points
of M contains it in its convex hull (Caratheodory), and each subset is settled
by solving its barycentric linear system exactly.  No proof exists for a point
of the hull, so a ``not_separable`` certificate always comes from the first
such subset, smallest size first and in lexicographic order.

The system is solved on integers.  One common power of two makes every
coordinate of X and M an exact Python int (:mod:`layersep.dyadic`).  Only the
d coordinate equations are scaled, on both sides, so the solution is unchanged
and the affine row ``sum(lam) = 1`` stays all ones.

Each subset's (d+1) x (k+1) integer system is reduced by fraction-free Gaussian
elimination (Bareiss 1968): step t replaces every entry below and to the right
of the pivot ``a_tt`` by ``(a_tt a_ij - a_it a_tj) / p``, with p the previous
pivot.  By Sylvester's determinant identity each result is a (t+1) x (t+1)
minor of the row-permuted input, an integer, so every division is exact and
the numbers stay as large as a determinant, not as a product of them.  The
last pivot is the determinant ``den`` of the k x k system, so by Cramer's rule
``num_j = den * lam_j`` are integers too, and a fraction-free back
substitution finds them with exact divisions.  The consistency and sign tests
are integer comparisons, and each coefficient is one int true division,
``num_j / den``, which Python rounds correctly.

The subset count grows combinatorially, so instances are guarded (guideline
n <= 64, d <= 6; the hard cap is on the enumeration size).  This module is
the ground truth the LP path is tested against and deliberately shares no
code with it.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .dyadic import gaps_positive_exactly, scaled_to_integers
from .errors import EnumerationLimitError, check_int, check_point_set
from .separability import PERCEPTRON_STEPS, SeparabilityCertificate

__all__ = ["exact_point_vs_set", "MAX_SUBSETS"]

# enumeration guard: sum over k <= d+1 of C(m, k) must stay below this
MAX_SUBSETS = 2_000_000


def exact_point_vs_set(x, others, max_subsets: int = MAX_SUBSETS) -> SeparabilityCertificate:
    """Exact hull membership of ``x`` in ``conv(others)``: a proved separating
    normal, else Caratheodory enumeration.

    Raises DomainError unless x is a finite point of shape (d,), others a
    finite set of shape (k, d) and ``max_subsets`` an integer >= 1, and
    EnumerationLimitError when the subsets to enumerate exceed ``max_subsets``.
    """
    x, others = check_point_set(x, others)
    max_subsets = check_int(max_subsets, "max_subsets", 1)
    m, d = others.shape
    if m == 0:
        return SeparabilityCertificate("separable", "exact_oracle", 0.0)
    k_max = min(d + 1, m)
    total = sum(math.comb(m, k) for k in range(1, k_max + 1))
    if total > max_subsets:
        raise EnumerationLimitError(
            f"enumeration of {total} subsets exceeds the guard ({max_subsets}); "
            f"instance m={m}, d={d} is too large for the exact oracle"
        )
    x_list, others_list = x.tolist(), others.tolist()
    if any(gaps_positive_exactly(normal, x_list, others_list)
           for normal in _candidate_normals(x_list, others_list)):
        return SeparabilityCertificate("separable", "exact_oracle", 0.0)
    target, *points = scaled_to_integers([x_list, *others_list])
    for k in range(1, k_max + 1):
        for subset in combinations(range(m), k):
            solution = _barycentric_if_inside(target, [points[j] for j in subset])
            if solution is not None:
                nums, den = solution
                coeffs = np.zeros(m)
                for j, num in zip(subset, nums):
                    coeffs[j] = num / den
                return SeparabilityCertificate(
                    "not_separable", "exact_oracle", 0.0, coefficients=coeffs
                )
    return SeparabilityCertificate("separable", "exact_oracle", 0.0)


def _candidate_normals(x: list[float], others: list[list[float]]):
    """Float normals A whose computed gaps (A, x) - (A, y) are all > 0, as lists.

    The Fisher normal A = x first, then the normal after each perceptron step.
    Scaling by a power of two is exact (into the subnormal range it drops bits,
    which only changes what is proposed).  With every coordinate below 1, each
    step adds at most 1 to max|A|, so every candidate and product is finite.
    The search runs on Python floats: on instances this small they beat
    numpy's per-call cost, and they hold the GIL, where ``np.argmax`` drops it
    on every call and so hands it back and forth between threads that run the
    oracle side by side.  A point in R^0 has exponent 0 and no candidate.
    """
    exponent = math.frexp(max((abs(v) for row in (x, *others) for v in row), default=0.0))[1]
    x = [math.ldexp(v, -exponent) for v in x]
    others = [[math.ldexp(v, -exponent) for v in y] for y in others]
    normal = x
    for _ in range(PERCEPTRON_STEPS):
        products = [_dot(normal, y) for y in others]
        top = _dot(normal, x)
        if all(top - product > 0.0 for product in products):
            yield normal
        far = others[products.index(max(products))]
        normal = [a + 0.5 * (xk - yk) for a, xk, yk in zip(normal, x, far)]


def _dot(a: list[float], b: list[float]) -> float:
    return sum(ak * bk for ak, bk in zip(a, b))


def _barycentric_if_inside(target, columns):
    """Solve sum(lam_j y_j) = target, sum(lam_j) = 1 exactly; require lam >= 0.

    ``target`` and each column are the integer coordinates of x and of the
    subset's points.  Returns ``(nums, den)`` with den > 0 and lam_j =
    nums[j] / den when the (d+1) x k system is consistent with a unique
    nonnegative solution, else None.  Rank-deficient subsets return None: by
    Caratheodory any hull membership is witnessed by some affinely independent
    subset, which an earlier (smaller) enumeration size covers.
    """
    k = len(columns)
    # augmented matrix: d coordinate equations plus the affine row of ones
    pending = [[col[row] for col in columns] + [value] for row, value in enumerate(target)]
    pending.append([1] * (k + 1))
    # pending rows hold the columns t..k not yet eliminated; eliminated rows
    # keep their pivot and the entries to its right, for the back substitution
    eliminated = []
    previous = 1
    for _ in range(k):
        pivot_row = next((i for i, row in enumerate(pending) if row[0]), None)
        if pivot_row is None:
            return None  # affinely dependent subset
        pending[0], pending[pivot_row] = pending[pivot_row], pending[0]
        top, *rest = pending
        pivot, tail = top[0], top[1:]
        pending = [
            [(pivot * a - row[0] * b) // previous for a, b in zip(row[1:], tail)]
            for row in rest
        ]
        eliminated.append(top)
        previous = pivot
    # consistency of the remaining equations: only their right-hand side is left
    if any(row[0] for row in pending):
        return None
    den = previous
    nums = []  # num_j = den * lam_j, from the last row up
    for top in reversed(eliminated):
        rhs = den * top[-1] - sum(a * num for a, num in zip(top[1:-1], reversed(nums)))
        nums.append(rhs // top[0])
    nums.reverse()
    if den < 0:  # a positive denominator keeps the signs of lam, and 0 / den at +0.0
        den, nums = -den, [-num for num in nums]
    if any(num < 0 for num in nums):
        return None
    return nums, den
