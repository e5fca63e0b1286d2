"""Exception types shared across the package."""

import sys


class SampleQuadError(Exception):
    """Base class for all library errors."""


class InvalidSpec(SampleQuadError):
    """A distribution or basis specification is malformed."""


def require_keys(data: dict, keys, what: str) -> None:
    """Raise InvalidSpec naming the keys of `keys` that `data` lacks, or if it is no dict."""
    if not isinstance(data, dict):
        raise InvalidSpec(f"{what} JSON must be an object, got {data!r}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InvalidSpec(f"{what} JSON lacks {', '.join(map(repr, missing))}")


def require_int(value, name: str) -> int:
    """`value` as an int where int() would not truncate or parse it (no bool); else InvalidSpec."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, (bool, str)) or n != value:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    return n


# what numpy raises for an array it cannot allocate: MemoryError, or
# ValueError or OverflowError for a shape beyond its size limit
UNALLOCATABLE = (MemoryError, ValueError, OverflowError)


def is_number(value) -> bool:
    """A float, or an int (not a bool) that a float holds: a number a JSON reader takes as is."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


class InvalidDomain(InvalidSpec):
    """A per-coordinate domain box has lo >= hi or an end that is not finite."""


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
