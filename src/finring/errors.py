"""Shared exception types."""


class CapExceededError(Exception):
    """A construction or sweep would exceed the configured order/work cap."""


class NotCentralError(ValueError):
    """The scaling element of a generalized matrix ring is not central."""


class NotNilpotentError(ValueError):
    """A construction required a nilpotent scaling element."""


class RingAxiomError(AssertionError):
    """A ring axiom, or an identity that holds in every ring, failed.

    Raised explicitly, so the check also holds under ``python -O``; it
    subclasses AssertionError so existing ``except AssertionError`` callers
    keep catching it.
    """


class AssociativityError(Exception):
    """A candidate multiplication failed the associativity gate."""


class WrongConstructionError(TypeError):
    """An operation was applied to a ring built by the wrong constructor."""


class ParseError(ValueError):
    """Ring-DSL parse failure with position information."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at column {position + 1}"
        if expected:
            detail += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(detail)
