"""Floats as exact integers: every finite float is a dyadic rational.

Scaling by a power of two is exact.  ``scale_exponent``, the one exponent
helper, gives the e for which ``2**-e`` brings ``peak``, the largest magnitude,
into [0.5, 1).  Every finite float is an integer of at most 53 bits times a
power of two, ``v = m * 2**(e - 53)`` with ``(m, e)`` as ``math.frexp`` gives
them and m scaled by ``2**53``.  So one common factor ``2**s`` with
``s = max(53 - e)`` over the nonzero entries makes every entry an exact Python
int, with no float rounding or overflow on the way, and the smallest of them is
no wider than 53 bits; the largest such e is their ``scale_exponent``.  Sums
and products of the scaled entries are then exact, so the exact hull oracle and
the certificate re-check decide "a hyperplane separates" with no tolerance, by
the one sign test here, ``gaps_positive_exactly`` or its integer core.  The
oracle decides "X is in the hull" with the one membership test,
``barycentric_if_inside``: fraction-free Gaussian elimination (Bareiss 1968),
whose step t replaces every entry below and to the right of the pivot ``a_tt``
by ``(a_tt a_ij - a_it a_tj) / p``, with p the previous pivot.  By Sylvester's
determinant identity each result is a (t+1) x (t+1) minor of the row-permuted
input, an integer, so every division is exact and the numbers stay as large as
a determinant, not as a product of them.  The last pivot is the determinant
``den`` of the k x k system, so by Cramer's rule ``num_j = den * lam_j`` are
integers too, and a fraction-free back substitution finds them with exact
divisions.  The consistency and sign tests are integer comparisons.
"""

from __future__ import annotations

import math
from operator import mul, sub

__all__ = ["barycentric_if_inside", "gaps_positive_exactly", "integer_gaps_positive", "peak",
           "scale_exponent", "scaled_to_integers"]


def peak(*arrays) -> float:
    """Largest |entry| of finite arrays, 0.0 for none: two reductions each, no temporary."""
    return max((max(float(a.max(initial=0.0)), -float(a.min(initial=0.0))) for a in arrays),
               default=0.0) + 0.0  # no -0.0


def scale_exponent(*arrays) -> int:
    """The e that puts ``peak(*arrays) * 2**-e`` in [0.5, 1), or 0 for no nonzero entry."""
    return math.frexp(peak(*arrays))[1]


def scaled_to_integers(rows):
    """Finite float rows times one common power of two as exact ints, and their
    ``scale_exponent``."""
    # v = m * 2**(e - 53) with frexp's m scaled to an integer below 2**53, so
    # v * 2**s is that integer shifted left by s + e - 53 >= 0
    parts = [[math.frexp(v) for v in row] for row in rows]
    exponents = [e for row in parts for m, e in row if m]
    s = 53 - min(exponents, default=53)
    ints = [[int(math.ldexp(m, 53)) << (s + e - 53) if m else 0 for m, e in row] for row in parts]
    return ints, max(exponents, default=0)


def gaps_positive_exactly(normal, x, others) -> bool:
    """(A, x - y) > 0 for every row y of ``others``, in exact integer arithmetic.

    ``normal`` and ``x`` are finite float sequences of one length and
    ``others`` rows of that length.  A and the points are scaled by separate
    powers of two, which leaves the sign of every gap as it is.
    """
    if len(others) == 0:
        return True
    (xs, *ys), _ = scaled_to_integers([x, *others])
    return integer_gaps_positive(normal, xs, ys)


def integer_gaps_positive(normal, x, others) -> bool:
    """``gaps_positive_exactly`` on x and others already scaled to ints together."""
    (a,), _ = scaled_to_integers([normal])
    return all(sum(map(mul, a, map(sub, x, y))) > 0 for y in others)


def barycentric_if_inside(target, columns):
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
        rhs = den * top[-1] - sum(map(mul, top[1:-1], reversed(nums)))
        nums.append(rhs // top[0])
    nums.reverse()
    if den < 0:  # a positive denominator keeps the signs of lam, and 0 / den at +0.0
        den, nums = -den, [-num for num in nums]
    if any(num < 0 for num in nums):
        return None
    return nums, den
