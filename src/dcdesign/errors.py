"""Exception hierarchy for design construction and verification."""


class DesignError(ValueError):
    """Base class for all errors raised by this package."""


class NotPrimePower(DesignError):
    """Field order is not a prime power."""


class TooLarge(DesignError):
    """Requested object exceeds the supported size bound."""


class InverseOfZero(DesignError):
    """Multiplicative inverse of the additive identity requested."""


class LevelOutOfRange(DesignError):
    """Matrix entry lies outside the declared level range."""


class UnbalancedColumn(DesignError):
    """Column levels do not occur equally often."""


class DimensionMismatch(DesignError):
    """Input arrays disagree on rows, columns, or levels."""


class CellNotPermutation(DesignError):
    """A plan cell is not a permutation of its required range."""


class PreconditionFailed(DesignError):
    """A construction input fails its balance precondition."""


class NotStrength3(DesignError):
    """Input array does not have strength three."""


class UTooSmall(DesignError):
    """Regular construction needs at least three independent columns."""


class AllZeroSpec(DesignError):
    """Linear column specification has no nonzero coefficient."""


class StrengthUnsupported(DesignError):
    """Requested strength outside the supported set."""


class OmegaExceedsQ(DesignError):
    """Coupling order exceeds the number of qualitative factors."""


class RunSizeNotDivisible(DesignError):
    """Run size is not divisible by the required power of the level count."""


class ParseError(DesignError):
    """File contents do not match the expected format."""


class StrengthMismatch(DesignError):
    """Array fails verification at its declared strength."""


class InfeasibleParameters(DesignError):
    """Requested design parameters violate a known bound."""
