"""Exception types shared across the package."""


class FormatioError(Exception):
    """Base class for all library errors."""


class GroupConstructionError(FormatioError, ValueError):
    """A multiplication table failed validation."""


class NoIdentityAtZero(GroupConstructionError):
    pass


class NotAssociative(GroupConstructionError):
    pass


class NotInvertible(GroupConstructionError):
    pass


class NotNormal(FormatioError, ValueError):
    pass


class NotChiefFactor(FormatioError, ValueError):
    pass


class ActionNotAutomorphism(FormatioError, ValueError):
    pass


class ActionNotHomomorphism(FormatioError, ValueError):
    pass


class UnsupportedParameter(FormatioError, ValueError):
    pass


class NotCoprime(FormatioError, ValueError):
    pass


class TooLarge(FormatioError):
    """A configured size or enumeration budget was exceeded."""


class SizeCapExceeded(TooLarge):
    pass


class EmptyClass(FormatioError, ValueError):
    """An operation needed at least one member of the class and found none."""


class NotAFormationWitness(FormatioError):
    """A class declared as a formation violated the subdirect-product law."""


class InvalidExponentFunction(FormatioError, ValueError):
    pass


class DiagonalPair(FormatioError, ValueError):
    pass


class SpecSyntaxError(FormatioError, ValueError):
    """A class-spec or supernatural expression failed to parse."""
