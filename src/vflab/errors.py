"""Exception hierarchy for the library.

Everything raised on purpose derives from VflabError so callers (and the
CLI) can catch one base class and map it to an exit code.
"""


class VflabError(Exception):
    """Base class for all library errors."""


class ValidationError(VflabError):
    """A structural invariant of a data type is violated."""


class AllZero(ValidationError):
    """Weight vector has no positive entry: it carries no mass."""


class NegativeWeight(ValidationError):
    """Weight vector contains a negative entry."""


class SpaceMismatch(ValidationError):
    """Two objects that must share a space do not."""


class PointNotInSpace(ValidationError):
    """Point lookup failed: unknown label or index out of range."""


class NotMonotone(ValidationError):
    """A would-be decreasing sequence increases somewhere.

    Carries the first violating term index and the point label where the
    order breaks.
    """

    def __init__(self, index: int, point: str):
        self.index = index
        self.point = point
        super().__init__(
            f"sequence increases at term {index}, point {point!r}"
        )


class NegativeTerm(ValidationError):
    """A decreasing-to-zero sequence contains a negative value."""


class AllInfiniteRate(ValidationError):
    """Every rate entry is infinite; the sup-form functional would be -inf everywhere."""


class SequenceNotVanishing(VflabError):
    """Residual of the test sequence is too large to conclude anything."""


class PreconditionFailed(VflabError):
    """A check's entry condition does not hold for the supplied handle."""


class InfeasibleJ(VflabError):
    """No probed measure has finite J; ascent cannot start."""


class InvalidP(ValidationError):
    """Bernoulli parameter outside the open interval (0, 1)."""


class ScheduleTooShort(ValidationError):
    """Extrapolation needs at least three schedule entries."""


class InvariantViolation(VflabError):
    """Ingested data breaks a sequence-level invariant."""


class ParseError(VflabError):
    """Malformed input file.

    line is 1-based when known; field names the offending key or column.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
