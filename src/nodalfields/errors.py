"""Exception and warning types shared across the package."""


class NodalError(Exception):
    """Base class for all library errors."""


class NotProbability(NodalError):
    """Atom weights do not sum to 1 (and auto-normalization is off)."""


class SupportOutsideDisc(NodalError):
    """An atom lies outside the closed unit disc."""


class NotPiInvariant(NodalError):
    """The atom set is not invariant under rotation by pi."""


class UnknownPreset(NodalError):
    """Preset name not recognized."""


class NotSumOfTwoSquares(NodalError):
    """n has no representation x^2 + y^2 = n."""


class TooLarge(NodalError):
    """Argument exceeds the brute-force enumeration cap."""


class EmptyGrid(NodalError):
    """Grid has no values to label."""


class ScheduleTooShort(NodalError):
    """Regression needs at least three R values."""


class DegenerateConditioning(NodalError):
    """Conditioning variance below threshold; use the degenerate classification."""


class DomainMismatch(NodalError):
    """Two grids/samples do not share a domain."""


class GridTooCoarse(UserWarning):
    """Grid spacing exceeds the resolution rule; counts may be unreliable."""
