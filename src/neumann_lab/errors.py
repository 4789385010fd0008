"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: input problems exit 1,
insufficient truncations exit 2.  Exit 3 comes from no exception: the CLI
returns it after writing a classification report flagged undetermined.
"""


class NeumannLabError(Exception):
    """Base class for all package errors."""


class InputError(NeumannLabError):
    """Malformed graph data, bad parameters, unparsable expressions."""


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
