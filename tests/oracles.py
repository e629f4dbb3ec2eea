"""Independent reference implementations used only by the tests.

Everything here is deliberately written from the mathematical definitions,
not from the package's code paths: bisection instead of closed-form inverses,
mpmath multiprecision instead of float64 log-space tricks, exact rational
arithmetic instead of simplex output.  Tests compare the package against
these.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 60  # >= 50 significant digits everywhere


# ---------------------------------------------------------------------------
# radial distribution


def radial_cdf(rho, d, r):
    """CDF of the radius of a uniform point in the shell, straight from volumes."""
    return (rho**d - r**d) / (1.0 - r**d)


def bisect_radius(u, d, r, tol=1e-16):
    """Invert radial_cdf by bisection; no closed-form root extraction."""
    lo, hi = r, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radial_cdf(mid, d, r) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# multiprecision bound formulas (direct transliteration, no clamping)


def _mpf(x):
    return mp.mpf(x) if not isinstance(x, mp.mpf) else x


def mp_p1_linear(d, n):
    with mp.workdps(DPS):
        return 1 - mp.mpf(n) / mp.power(2, d)


def mp_p_linear(d, n):
    with mp.workdps(DPS):
        return 1 - mp.mpf(n) * (mp.mpf(n) - 1) / mp.power(2, d)


def mp_p1_fisher(d, r, n):
    with mp.workdps(DPS):
        r = _mpf(r)
        return (1 - r**d) * (1 - (1 - r**2) ** (mp.mpf(d) / 2) / 2) ** n


def mp_p_fisher(d, r, n):
    with mp.workdps(DPS):
        r = _mpf(r)
        inner = 1 - (mp.mpf(n) - 1) * (1 - r**2) ** (mp.mpf(d) / 2) / 2
        return ((1 - r**d) * inner) ** n


def mp_n1_fisher(d, r, theta):
    with mp.workdps(DPS):
        r, theta = _mpf(r), _mpf(theta)
        return theta / (1 - r**2) ** (mp.mpf(d) / 2)


def mp_n_fisher(d, r, theta):
    with mp.workdps(DPS):
        r, theta = _mpf(r), _mpf(theta)
        return mp.sqrt(theta) / (1 - r**2) ** (mp.mpf(d) / 4)


def mp_n1_linear(d, theta):
    with mp.workdps(DPS):
        return _mpf(theta) * mp.power(2, d)


def mp_n_linear(d, theta):
    with mp.workdps(DPS):
        return mp.sqrt(_mpf(theta) * mp.power(2, d))


def mp_eq1_admissible(d, r, theta, dps=DPS):
    """Stabilized admissible-count form 2T / (r^d (sqrt(1 + 2T s^d) + 1)), s = sqrt(1-r^2)/r^2.

    r^d and s^d cancel, and each carries a relative rounding error about d
    times the working precision, so a d near 10^k needs ``dps`` beyond k + 20.
    """
    with mp.workdps(dps):
        r, theta = _mpf(r), _mpf(theta)
        s = mp.sqrt(1 - r**2) / r**2
        return 2 * theta / (r**d * (mp.sqrt(1 + 2 * theta * s**d) + 1))


def mp_fisher_gap(d, r, n):
    """Exact 1 - [(1-r^d)(1-(n-1)(1-r^2)^(d/2)/2)]^n, resolved to ~40 digits.

    Working precision must cover every leading 9 of the bound, so it is sized
    from a float estimate of the gap's magnitude (shell and pair terms).
    """
    shell = math.log10(n) + d * math.log10(r) if (r > 0 and n >= 1) else -math.inf
    pair = (
        math.log10(0.5 * n * (n - 1)) + 0.5 * d * math.log10(1.0 - r * r)
        if n >= 2
        else -math.inf
    )
    est_log10 = max(shell, pair)
    dps = DPS if est_log10 == -math.inf else max(DPS, int(40 - 1.1 * est_log10))
    with mp.workdps(dps):
        r_ = _mpf(r)
        inner = 1 - (mp.mpf(n) - 1) * (1 - r_**2) ** (mp.mpf(d) / 2) / 2
        return 1 - ((1 - r_**d) * inner) ** n


def mp_linear_gap(d, n):
    with mp.workdps(DPS):
        return mp.mpf(n) * (mp.mpf(n) - 1) / mp.power(2, d)


def mp_wilson(successes, trials, z="1.959963984540054"):
    """Wilson score interval evaluated in multiprecision."""
    with mp.workdps(DPS):
        z = mp.mpf(z)
        n = mp.mpf(trials)
        p = mp.mpf(successes) / n
        den = 1 + z**2 / n
        center = (p + z**2 / (2 * n)) / den
        half = (z / den) * mp.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
        return center - half, center + half


# ---------------------------------------------------------------------------
# exact rational geometry


def exact_hyperplane_separates(x, others, normal):
    """Check (normal, x) > (normal, y) for every y, in exact rational arithmetic."""
    xf = [Fraction(float(v)) for v in x]
    nf = [Fraction(float(v)) for v in normal]
    lhs = sum(a * b for a, b in zip(nf, xf))
    for row in others:
        rhs = sum(a * Fraction(float(b)) for a, b in zip(nf, row))
        if not lhs > rhs:
            return False
    return True


def exact_combination_residual(x, others, coeffs):
    """Rational (sum_j c_j y_j - x, sum c_j - 1) residual norms, as floats."""
    xf = [Fraction(float(v)) for v in x]
    cf = [Fraction(float(c)) for c in coeffs]
    d = len(xf)
    resid = [-v for v in xf]
    for c, row in zip(cf, others):
        for k in range(d):
            resid[k] += c * Fraction(float(row[k]))
    l2sq = sum(v * v for v in resid)
    csum = sum(cf)
    return float(l2sq) ** 0.5, abs(float(csum - 1))


def fraction_hull_oracle(x, others):
    """Hull membership of x in conv(others) by Caratheodory enumeration, in Fraction.

    Every subset of at most d+1 points, smallest first and in lexicographic
    order, gets its barycentric system solved by Gauss-Jordan elimination over
    the rationals; the first subset with a unique nonnegative solution proves
    membership.  Returns ("not_separable", coefficients as floats aligned with
    others) or ("separable", None).
    """
    d = len(x)
    m = len(others)
    target = [Fraction(float(v)) for v in x]
    rows = [[Fraction(float(v)) for v in row] for row in others]
    for k in range(1, min(d + 1, m) + 1):
        for subset in itertools.combinations(range(m), k):
            lam = _fraction_barycentric(target, [rows[j] for j in subset], d)
            if lam is not None:
                coeffs = np.zeros(m)
                for j, value in zip(subset, lam):
                    coeffs[j] = float(value)
                return "not_separable", coeffs
    return "separable", None


def _fraction_barycentric(target, subset_rows, d):
    """The unique nonnegative solution of sum(lam_j y_j) = target, sum(lam_j) = 1, or None."""
    k = len(subset_rows)
    M = [[subset_rows[j][row] for j in range(k)] + [target[row]] for row in range(d)]
    M.append([Fraction(1)] * k + [Fraction(1)])
    n_rows = d + 1
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
        r += 1
    if any(M[i][k] != 0 for i in range(r, n_rows)):
        return None  # inconsistent
    lam = [M[row][k] for row in range(k)]
    if any(v < 0 for v in lam):
        return None
    return lam


# ---------------------------------------------------------------------------
# planar convex hull (Andrew monotone chain, exact orientation via Fraction)


def hull2d_vertex_count(points):
    """Number of convex-hull vertices of a 2-d point set, exact arithmetic."""
    pts = sorted({(Fraction(float(p[0])), Fraction(float(p[1]))) for p in points})
    if len(pts) <= 2:
        return len(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return len(lower) + len(upper) - 2


# ---------------------------------------------------------------------------
# brute-force separability checks (naive loops, no linear algebra shortcuts)


def brute_fisher_point(x, others):
    """(x, y) < (x, x) for all y, checked pairwise in python floats."""
    self_dot = float(np.dot(x, x))
    return all(float(np.dot(x, y)) < self_dot for y in others)


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it held above what was held before the
    call, as tracemalloc sees it (NumPy reports its buffers there).  Call fn
    once beforehand: one-time allocations, such as the first Generator's, would
    count too."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
