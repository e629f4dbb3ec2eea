"""Exact hull-membership oracle for small instances, in integer arithmetic.

Decides ``X in conv(M)`` with no floating-point tolerance at all, in two
stages, after the input checks and the enumeration guard below.

Proof of separation.  A normal A with ``(A, X - Y) > 0`` for every Y in M
proves ``X not in conv(M)``: were ``X = sum(lam_j Y_j)`` with lam >= 0 summing
to 1, then ``0 = (A, X - X) = sum(lam_j (A, X - Y_j)) > 0``.  Candidates come
from floats: the Fisher normal A = X, then the normal after each of at most
``PERCEPTRON_STEPS`` perceptron steps ``A <- A + (X - Y*) / 2``, with Y* the
point of largest ``(A, Y)``.  The search runs on a copy scaled by ``2**-e``,
with e the exponent the input check returns, so no product overflows.  It only
proposes: a candidate whose float gaps are not all > 0 is skipped, and one
whose float gaps are counts only if every gap is positive in exact integer
arithmetic (:func:`layersep.dyadic.integer_gaps_positive`).  Rounding can cost
a proof but never fake one.  A separable verdict carries no witness, so its
certificate is the same whichever stage decides.

Enumeration.  Otherwise X is in the hull iff some subset of at most d+1 points
of M contains it in its convex hull (Caratheodory), and each subset is settled
by solving its barycentric linear system exactly.  No proof exists for a point
of the hull, so a ``not_separable`` certificate always comes from the first
such subset, smallest size first and in lexicographic order.  A subset whose
bounding box does not hold X is skipped unsolved, since then some axis has no
point of it on one side of X: each point gets a mask of 2d bits on its integer
coordinates, bit 2c for ``y_c <= X_c`` and bit 2c+1 for ``y_c >= X_c``, and only
a subset whose masks OR to all ones is solved.  The first witness is the same
as without the skip, and so is every certificate.  The systems are
solved on integers (:func:`layersep.dyadic.barycentric_if_inside`): one common
power of two makes every coordinate of X and M an exact Python int, in the one
pass (:func:`layersep.dyadic.scaled_to_integers`) that also feeds the proof's
sign tests.  Only the d coordinate equations are scaled, on both
sides, so the solution is unchanged and the affine row ``sum(lam) = 1`` stays
all ones.  Each coefficient is one correctly rounded int true division,
``num_j / den``.

The subset count grows combinatorially, so instances are guarded (guideline
n <= 64, d <= 6; the hard cap is on the enumeration size, skipped subsets
included).  This module is
the ground truth for the LP path and shares none of its arithmetic.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from operator import mul, or_

import numpy as np

from .dyadic import barycentric_if_inside, integer_gaps_positive, scaled_to_integers
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
    x, others, (_, e) = check_point_set(x, others)
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
    target, *points = scaled_to_integers([x_list, *others_list])
    if e:  # 0 when max|coord| lies in [0.5, 1) or is 0: scaling would only copy
        x_list, others_list = np.ldexp(x, -e).tolist(), np.ldexp(others, -e).tolist()
    normals = _candidate_normals(x_list, others_list)
    if any(integer_gaps_positive(normal, target, points) for normal in normals):
        return SeparabilityCertificate("separable", "exact_oracle", 0.0)
    covers = [_cover_mask(target, point) for point in points]
    every_side = (1 << 2 * d) - 1
    for k in range(1, k_max + 1):
        for subset, cover in zip(combinations(range(m), k), combinations(covers, k)):
            if reduce(or_, cover) != every_side:
                continue  # some axis has no point of the subset on one side of x
            solution = barycentric_if_inside(target, [points[j] for j in subset])
            if solution is not None:
                nums, den = solution
                coeffs = np.zeros(m)
                for j, num in zip(subset, nums):
                    coeffs[j] = num / den
                return SeparabilityCertificate(
                    "not_separable", "exact_oracle", 0.0, coefficients=coeffs
                )
    return SeparabilityCertificate("separable", "exact_oracle", 0.0)


def _cover_mask(target: list[int], point: list[int]) -> int:
    """Bit 2c set when ``point[c] <= target[c]``, bit 2c+1 when ``point[c] >= target[c]``."""
    return sum(((y <= t) | (y >= t) << 1) << 2 * c for c, (y, t) in enumerate(zip(point, target)))


def _candidate_normals(x: list[float], others: list[list[float]]):
    """Float normals A whose computed gaps (A, x) - (A, y) are all > 0, as lists.

    The Fisher normal A = x first, then the normal after each perceptron step,
    on x and ``others`` scaled by a power of two to coordinates below 1 (exact;
    into the subnormal range it drops bits, which only changes what is
    proposed).  So each step adds at most 1 to max|A|, and every candidate and
    product is finite.
    The search runs on Python floats: on instances this small they beat
    numpy's per-call cost, and they hold the GIL, where ``np.argmax`` drops it
    on every call and so hands it back and forth between threads that run the
    oracle side by side.  A point in R^0 has no candidate.
    """
    normal = x
    for _ in range(PERCEPTRON_STEPS):
        products = [sum(map(mul, normal, y)) for y in others]
        highest = max(products)
        if sum(map(mul, normal, x)) > highest:  # every top - product > 0, the floats being finite
            yield normal
        far = others[products.index(highest)]
        normal = [a + 0.5 * (xk - yk) for a, xk, yk in zip(normal, x, far)]
