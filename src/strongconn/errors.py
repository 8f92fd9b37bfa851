"""Exception taxonomy. All library errors derive from StrongConnError."""


class StrongConnError(Exception):
    pass


class MalformedField(StrongConnError):
    pass


class FieldMismatch(StrongConnError):
    pass


class DivisionByZero(StrongConnError):
    pass


class NotInvertible(StrongConnError):
    """Inversion of a zero divisor in a reducible quotient ring."""


class ParseError(StrongConnError):
    pass


class DegreeOverflow(ParseError):
    """Coefficient list longer than the field extension degree."""


class ShapeError(StrongConnError):
    pass


class NotGalois(StrongConnError):
    """Surjectivity of the lifted canonical map fails."""


class NoGrouplikeUnit(StrongConnError):
    """The extension has no designated grouplike e with rho(1) = 1 (x) e."""


class ValidationFailed(StrongConnError):
    """Strict construction was asked for and a structural axiom failed."""


class InternalContradiction(StrongConnError):
    """A derivable identity failed; signals a bug upstream, not bad input."""


class NotHomogeneous(StrongConnError):
    """The designated subalgebra B does not satisfy Delta(B) in A (x) B."""


class NotCoideal(StrongConnError):
    pass


class TooLarge(StrongConnError):
    """A configured size cap was exceeded."""


class DependencyError(StrongConnError):
    """A requested pipeline stage is missing one of its prerequisites."""
