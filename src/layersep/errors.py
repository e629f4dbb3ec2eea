"""Exceptions shared across the package, and the one validator per parameter
kind that raises the first of them.

Each class maps to one failure family so callers (and the CLI exit-code
table) can tell bad inputs apart from solver trouble.
"""

import math

import numpy as np

from .dyadic import peak, split_peak


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class LPStallError(RuntimeError):
    """The simplex solver hit its pivot cap or stalled numerically, or its
    optimum failed the check that turns it into a verdict.

    This is a diagnostic, never a verdict: callers must not coerce it into
    separable/not-separable.
    """


class EnumerationLimitError(ValueError):
    """The exact oracle's subset enumeration would exceed its size guard."""


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in ``[low, high)``, unbounded above when ``high`` is None.

    Ints, numpy ints and integral floats pass; bools, NaN, non-integral values,
    non-numbers and integers beyond float range raise DomainError.
    """
    try:
        number = int(value) if float(value).is_integer() else None
    except (TypeError, ValueError, OverflowError):
        number = None
    if isinstance(value, (bool, np.bool_)) or number is None or number < low or (
        high is not None and number >= high
    ):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return number


def check_real(value, name: str, low: float, high: float, low_closed: bool = False) -> float:
    """``value`` as a float in ``(low, high)``, or ``[low, high)`` when
    ``low_closed``; NaN and non-numbers raise DomainError.  -0.0 comes back
    as 0.0, so one real has one float (and one seed stream keyed on its bits)."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not ((number >= low if low_closed else number > low) and number < high):  # NaN fails
        raise DomainError(
            f"{name} must lie in {'[' if low_closed else '('}{low}, {high}), got {value!r}"
        )
    return number + 0.0


def check_point_set(x, others) -> tuple[np.ndarray, np.ndarray, tuple[float, int]]:
    """``x`` and ``others`` as float64 arrays, a point and a finite set of points
    in its dimension, and ``split_peak(peak(x, others))``, read off the
    reductions of the finiteness test.

    Anything else (x not 1-d, others not 2-d with ``len(x)`` columns), values
    that are not numbers, and NaN or infinite coordinates raise DomainError.
    """
    try:
        x = np.asarray(x, dtype=np.float64)
        others = np.asarray(others, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"a point and a set of points must be numeric arrays: {exc}") from None
    if x.ndim != 1 or others.ndim != 2 or others.shape[1] != x.shape[0]:
        raise DomainError(
            "need a point of shape (d,) and a set of shape (k, d), "
            f"got {x.shape} and {others.shape}"
        )
    x_peak, others_peak = peak(x), peak(others)  # NaN or inf for a non-finite entry
    if not (math.isfinite(x_peak) and math.isfinite(others_peak)):
        raise DomainError("a point and a set of points need finite coordinates")
    return x, others, split_peak(max(x_peak, others_peak))
