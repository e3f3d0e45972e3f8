"""Exception types raised by the geometric operations."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class RealPointError(GeometryError):
    """A real point was passed where a genuinely complex one is required."""


class RealInputError(GeometryError):
    """A real number was passed where a non-real one is required."""


class CollinearityError(GeometryError):
    """Points that must share a projective line do not."""


class DegenerateError(GeometryError):
    """A configuration is too degenerate to evaluate (coincident points etc.)."""


class InfinityError(GeometryError):
    """A point lies on the hyperplane at infinity of the requested chart."""


class NotInteriorError(GeometryError):
    """A point that must lie inside the domain does not."""


class InsideTubeError(GeometryError):
    """A separator was requested for a point that lies inside the tube."""


class OutsideTubeError(GeometryError):
    """A tube-interior quantity was requested for a point outside the tube."""


class NotBoundaryError(GeometryError):
    """A boundary point was required but an interior/exterior one was given."""


class RepresentationError(GeometryError):
    """The domain representation does not support the requested operation."""


class EmptySliceError(GeometryError):
    """The complexified line does not meet the domain."""


class UnsupportedConfigurationError(GeometryError):
    """The input pair/configuration is outside the supported cases."""


class ZeroDirectionError(GeometryError):
    """A direction vector is zero where a nonzero one is required."""


class GroupValidationError(GeometryError):
    """A purported symmetry does not preserve the domain."""


class DrawBudgetError(GeometryError):
    """A rejection sampler used up its draw budget before it had accepted
    the requested number of points."""

    def __init__(self, sampler, accepted, count, draws):
        self.accepted = accepted
        self.draws = draws
        self.rate = accepted / draws if draws else 0.0
        super().__init__(
            f"{sampler}: {accepted} of {count} points accepted in {draws} draws "
            f"(acceptance rate {self.rate:.3g})"
        )


class ValidationError(GeometryError):
    """A domain or domain file failed validation."""


class DomainSpecError(ValidationError):
    """A domain file is malformed."""
