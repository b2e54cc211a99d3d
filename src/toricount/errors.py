"""Exception hierarchy shared by all modules.

Every toolkit-specific failure derives from :class:`ToricountError`, so callers
(and the CLI, which maps them to exit code 2) can catch one type. Names state
the violated precondition or detected condition.
"""

from __future__ import annotations


class ToricountError(Exception):
    """Base class for all toolkit errors."""


# --- field construction / arithmetic -------------------------------------

class CompositeP(ToricountError):
    """The requested characteristic is not prime."""


class CapExceeded(ToricountError):
    """A configured work/cardinality cap would be exceeded."""


class FieldMismatch(ToricountError):
    """Operands belong to different field specs."""


class DivisionByZero(ToricountError):
    """Multiplicative inverse of zero requested."""


# --- fans and gradings -----------------------------------------------------

class InvalidParams(ToricountError):
    """Arguments outside the documented domain."""


class NonPrimitiveRay(ToricountError):
    """A ray is zero or its entries have a common factor."""


class NonSimplicialFan(ToricountError):
    """Some maximal cone's rays are linearly dependent."""


class TorsionClassGroup(ToricountError):
    """The grading group has invariant factors > 1; the counts need a free grading."""


class NonEffectiveGrading(ToricountError):
    """A weight is negative, or no unimodular column change makes every weight nonnegative."""


# --- polynomials -----------------------------------------------------------

class PolyParseError(ToricountError):
    """Syntax error in polynomial text; carries the 0-based offset."""

    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        caret = ""
        if text:
            caret = "\n  " + text + "\n  " + " " * position + "^"
        super().__init__(f"{message} (at position {position}){caret}")


class UnknownVariable(PolyParseError):
    """Variable index out of range for the declared variable count."""


class CoefficientNotInDomain(PolyParseError):
    """A coefficient literal has no meaning in the coefficient domain."""


class NotHomogeneous(ToricountError):
    """All-terms-same-multidegree requirement violated; reports two offenders."""


class ZeroPolynomial(ToricountError):
    """The zero polynomial has no well-defined multidegree."""


class ArityMismatch(ToricountError):
    """Substitution images do not match the polynomial's variable count."""


class DegreeZeroGrading(ToricountError):
    """Every multidegree component is zero; the divisibility exponent is undefined."""


# --- counting / congruence checks -------------------------------------------

class HypothesisNotMet(ToricountError):
    """The degree hypothesis of the requested congruence does not hold."""


class NonIntegralQuotient(ToricountError):
    """An exact-divisibility step failed; indicates a non-free torus action or a caller error."""


class IdentityViolated(ToricountError):
    """A symbolic identity that must hold failed; indicates an implementation bug."""
