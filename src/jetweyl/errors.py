"""Exception hierarchy shared across the package.

Every error that a CLI command can surface maps to a stable exit code; the
codes are ``cli.EXIT_OK`` … ``cli.EXIT_INTERNAL`` and are part of the
documented interface.
"""

from __future__ import annotations


class JetweylError(Exception):
    """Base class for all package-specific errors."""


class ExprError(JetweylError):
    """Raised when an expression violates the kernel's term language."""


class UnknownSymbolError(ExprError):
    """An identifier is not a base variable, jet coordinate, or formal function."""


class ExponentPolicyError(ExprError):
    """A non-integer exponent appears on anything but a base variable."""


class ExpAtomError(ExprError):
    """An exponential atom appears where it is not admitted, or its argument
    is not a rational-linear form in base variables."""


class DivisionByZeroExpression(ExprError):
    """Division by an expression that canonicalizes to zero."""


class ParseError(JetweylError):
    """DSL syntax error; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ExponentCapError(JetweylError):
    """A monomial of a jet ring would hold an exponent past
    ``jets.MAX_EXPONENT``: each exponent of a packed monomial has a field
    of that width, and a result past it is refused, never wrapped."""


class JetOrderError(JetweylError):
    """A jet coordinate past ``MAX_JET_ORDER``, or outside the jet order a
    jet ring holds, was requested."""


class PointNotOnEquationError(JetweylError):
    """A full jet-space point assignment violates the equation constraints."""


class NotAPointFieldError(JetweylError):
    """Vector-field coefficients contain jet coordinates of positive order."""


class LiftError(JetweylError):
    """The conformal lift equations for a shape-preserving field are
    inconsistent (should not happen for fields in the admitted family)."""


class PseudogroupError(JetweylError):
    """A transformation violates the group's defining constraints
    (non-positive derivative data, missing inverse, ...)."""


class SolutionError(JetweylError):
    """A claimed solution fails the equation residual check."""


class SingularLocusError(JetweylError):
    """An evaluation point lies on the singular locus of the construction."""


class ComparisonError(JetweylError):
    """Signature clouds cannot be compared with the given configuration."""
