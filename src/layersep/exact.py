"""Exact rational hull-membership oracle for small instances.

Decides ``X in conv(M)`` with no floating-point tolerance at all: floats are
promoted to dyadic rationals exactly, and X is in the hull iff some subset of
at most d+1 points of M contains it in its convex hull (Caratheodory), each
subset settled by solving the barycentric linear system in exact arithmetic.

The subset count grows combinatorially, so instances are guarded (guideline
n <= 64, d <= 6; the hard cap is on the enumeration size).  This module is
the ground truth the LP path is tested against and deliberately shares no
code with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .errors import EnumerationLimitError, check_int
from .geometry import PointCloud
from .separability import SeparabilityCertificate, _others

__all__ = ["exact_oracle_point", "exact_point_vs_set", "MAX_SUBSETS"]

# enumeration guard: sum over k <= d+1 of C(m, k) must stay below this
MAX_SUBSETS = 2_000_000


def exact_point_vs_set(x, others, max_subsets: int = MAX_SUBSETS) -> SeparabilityCertificate:
    """Exact hull membership of ``x`` in ``conv(others)`` by enumeration."""
    others = np.asarray(others, dtype=np.float64)
    m = len(others)
    d = len(x)
    if m == 0:
        return SeparabilityCertificate("separable", "exact_oracle", 0.0)
    k_max = min(d + 1, m)
    total = sum(comb(m, k) for k in range(1, k_max + 1))
    if total > max_subsets:
        raise EnumerationLimitError(
            f"enumeration of {total} subsets exceeds the guard ({max_subsets}); "
            f"instance m={m}, d={d} is too large for the exact oracle"
        )
    target = [Fraction(float(v)) for v in x]
    rows = [[Fraction(float(v)) for v in row] for row in others]
    for k in range(1, k_max + 1):
        for subset in combinations(range(m), k):
            lam = _barycentric_if_inside(target, [rows[j] for j in subset], d)
            if lam is not None:
                coeffs = np.zeros(m)
                for j, value in zip(subset, lam):
                    coeffs[j] = float(value)
                return SeparabilityCertificate(
                    "not_separable", "exact_oracle", 0.0, coefficients=coeffs
                )
    return SeparabilityCertificate("separable", "exact_oracle", 0.0)


def exact_oracle_point(i: int, cloud: PointCloud, max_subsets: int = MAX_SUBSETS) -> SeparabilityCertificate:
    """Exact verdict for point i of a cloud versus all the others."""
    i = check_int(i, "point index", 0, cloud.n)
    return exact_point_vs_set(cloud.points[i], _others(cloud.points, i), max_subsets)


def _barycentric_if_inside(target, subset_rows, d):
    """Solve sum(lam_j y_j) = target, sum(lam_j) = 1 exactly; require lam >= 0.

    Returns the coefficient list when the (d+1) x k system is consistent with
    a unique nonnegative solution, else None.  Rank-deficient subsets return
    None: by Caratheodory any hull membership is witnessed by some affinely
    independent subset, which an earlier (smaller) enumeration size covers.
    """
    k = len(subset_rows)
    # augmented matrix: d coordinate equations plus the affine row of ones
    M = [[subset_rows[j][row] for j in range(k)] + [target[row]] for row in range(d)]
    M.append([Fraction(1)] * k + [Fraction(1)])
    n_rows = d + 1

    rank_col = []
    r = 0
    for col in range(k):
        pivot_row = next((i for i in range(r, n_rows) if M[i][col] != 0), None)
        if pivot_row is None:
            return None  # affinely dependent subset
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pivot = M[r][col]
        M[r] = [v / pivot for v in M[r]]
        for i in range(n_rows):
            if i != r and M[i][col] != 0:
                factor = M[i][col]
                M[i] = [a - factor * b for a, b in zip(M[i], M[r])]
        rank_col.append(col)
        r += 1
    # consistency of the remaining equations
    for i in range(r, n_rows):
        if M[i][k] != 0:
            return None
    lam = [M[row][k] for row in range(k)]
    if any(v < 0 for v in lam):
        return None
    return lam
