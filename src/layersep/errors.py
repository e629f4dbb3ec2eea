"""Exceptions shared across the package.

Each class maps to one failure family so callers (and the CLI exit-code
table) can tell bad inputs apart from solver trouble.
"""


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
