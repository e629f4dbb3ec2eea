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


def check_points(points) -> tuple[np.ndarray, float]:
    """``points`` as a C-contiguous float64 array of shape (n, d), a finite set of
    points, and its ``peak``, read off the reductions of the finiteness test.
    Other shapes, values that are not numbers and NaN or inf raise DomainError."""
    try:
        points = np.ascontiguousarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"a set of points must be a numeric array: {exc}") from None
    top = peak(points) if points.ndim == 2 else math.nan  # NaN or inf for a non-finite entry
    if not math.isfinite(top):
        raise DomainError(f"a set needs shape (n, d) and finite coordinates, got {points.shape}")
    return points, top


def check_point_set(x, others) -> tuple[np.ndarray, np.ndarray, tuple[float, int]]:
    """``x`` and ``others`` as float64 arrays, a finite point and a set of points
    (``check_points``) in its dimension, and ``split_peak(peak(x, others))``, read
    off the reductions of the finiteness tests; anything else raises DomainError."""
    others, others_peak = check_points(others)
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"a point must be a numeric array: {exc}") from None
    x_peak = peak(x)
    if not (x.shape == others.shape[1:] and math.isfinite(x_peak)):
        raise DomainError(f"a point needs shape {others.shape[1:]} and finite coordinates, "
                          f"got {x.shape}")
    return x, others, split_peak(max(x_peak, others_peak))
