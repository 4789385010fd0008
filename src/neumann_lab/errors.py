"""Exception hierarchy shared across the package, and its one input rule.

Every number the package takes in (a graph's weights, measures and
killings, a chain's rates and measures, a graph file's values, and the
experiments' scalar parameters) passes :func:`checked`: an int, Fraction
or float that is finite and positive, or nonnegative where zero is allowed.

The CLI maps these exceptions onto process exit codes: input problems exit
1, insufficient truncations exit 2.  Exit 3 comes from no exception: the
CLI returns it after writing a classification report flagged undetermined.
"""

import math
from fractions import Fraction


class NeumannLabError(Exception):
    """Base class for all package errors."""


class InputError(NeumannLabError):
    """Malformed graph data, bad parameters, unparsable expressions."""


def checked(value, what: str, *, positive: bool = True):
    """``value`` if it is an int, Fraction or float that is finite and
    positive (nonnegative with ``positive=False``); else InputError, in
    the form "{what} must be positive and finite, got {value}"."""
    number = isinstance(value, (int, Fraction, float))
    if number and (0 < value if positive else 0 <= value) and value < math.inf:  # nan fails
        return value
    sign = "positive" if positive else "nonnegative"
    if not number:
        raise InputError(f"{what} of type {type(value).__name__} is no int, Fraction "
                         f"or float: it must be {sign} and finite, got {value!r}")
    raise InputError(f"{what} must be {sign} and finite, got {value}")


class OverflowCapError(NeumannLabError):
    """Edge weights or degrees exceed the float-representable cap.

    Carries the largest usable truncation index when known: every set up to
    it restricts in both kinds, Dirichlet and Neumann.
    """

    def __init__(self, message, usable_cap=None):
        super().__init__(message)
        self.usable_cap = usable_cap


class TruncationInsufficientError(NeumannLabError):
    """An exhaustion ran out before a reference converged.

    ``last_increment`` holds the final observed increment so callers can
    judge how far the run was from the requested tolerance; ``increments``,
    when known, every increment between consecutive truncations up to it.
    """

    def __init__(self, message, last_increment=None, increments=None):
        super().__init__(message)
        self.last_increment = last_increment
        self.increments = increments
