"""Floats as exact integers: every finite float is a dyadic rational.

Every finite float is an integer of at most 53 bits times a power of two,
``v = m * 2**(e - 53)`` with ``(m, e)`` as ``math.frexp`` gives them and m
scaled by ``2**53``.  So one common factor ``2**s`` with ``s = max(53 - e)``
over the nonzero entries makes every entry an exact Python int, with no float
rounding or overflow on the way, and the smallest of them is no wider than 53
bits.  Sums and products of the scaled entries are then exact, which is how
the exact hull oracle and the certificate re-check decide signs with no
tolerance.
"""

from __future__ import annotations

import math

__all__ = ["scaled_to_integers"]


def scaled_to_integers(rows):
    """Finite float rows times one common power of two, as exact ints."""
    # v = m * 2**(e - 53) with frexp's m scaled to an integer below 2**53, so
    # v * 2**s is that integer shifted left by s + e - 53 >= 0
    parts = [[math.frexp(v) for v in row] for row in rows]
    s = max((53 - e for row in parts for m, e in row if m), default=0)
    return [[int(math.ldexp(m, 53)) << (s + e - 53) if m else 0 for m, e in row] for row in parts]
