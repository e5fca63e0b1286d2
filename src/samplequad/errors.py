"""Exception types shared across the package."""


class SampleQuadError(Exception):
    """Base class for all library errors."""


class InvalidSpec(SampleQuadError):
    """A distribution or basis specification is malformed."""


def require_keys(data: dict, keys, what: str) -> None:
    """Raise InvalidSpec naming the keys of `keys` that `data` lacks."""
    missing = [key for key in keys if key not in data]
    if missing:
        raise InvalidSpec(f"{what} JSON lacks {', '.join(map(repr, missing))}")


class InvalidDomain(InvalidSpec):
    """A per-coordinate domain box has lo >= hi."""


class DimensionMismatch(SampleQuadError):
    """Points, bases, or matrices with incompatible dimensions."""


class NullSpaceFailure(SampleQuadError):
    """Null-space extraction could not meet its residual bound.

    Signals rank deficiency beyond expectation or catastrophic conditioning.
    """

    def __init__(self, msg, sample_index=None):
        super().__init__(msg)
        self.sample_index = sample_index


class DegenerateNullVector(SampleQuadError):
    """Null vector lacks a positive or a negative entry.

    Violates the zero-sum structure guaranteed by a constant basis function;
    indicates an upstream numerical failure.
    """


class InsufficientSamples(SampleQuadError):
    """Fewer samples than basis functions requested."""


class ExactnessViolation(SampleQuadError):
    """A finished rule failed its moment-residual bound."""


class ModeMismatch(SampleQuadError):
    """Extension request inconsistent with its declared mode."""


class MissingEvaluation(SampleQuadError):
    """An integrand value for a required node was not supplied."""


class AcceptanceTooLow(SampleQuadError):
    """Rejection or MH sampling acceptance rate collapsed."""


class ParseError(SampleQuadError):
    """Malformed sample file."""

    def __init__(self, msg, line=None):
        super().__init__(msg)
        self.line = line


class DimensionInconsistent(ParseError):
    """Rows of a sample file disagree on dimension."""
