"""Exception types shared across the package."""


class ModpFormsError(Exception):
    """Base class for all package-specific failures."""


class NotInSpanError(ModpFormsError):
    """A q-expansion is not in the span of the requested weight-graded basis.

    Usually signals a wrong weight lift or an input series that is not a
    modular form of the claimed weight.
    """


class ConductorNotFoundError(ModpFormsError):
    """No candidate congruence conductor explains the sampled Hecke action."""


class SpanNotClosedError(ModpFormsError):
    """Hecke closure of a form exceeded the configured dimension cap."""


class SplittingFieldNeededError(ModpFormsError):
    """The joint eigen-system is not rational over the prime field."""


class BudgetExceededError(ModpFormsError):
    """An input would need more work than a fixed limit allows; the message names the limit."""


class FormSyntaxError(ModpFormsError):
    """Parse error in a form expression; carries the 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} at column {column}")
        self.column = column


class InternalInvariantError(ModpFormsError):
    """An internal consistency check failed: a bug, not a property of the input."""
