"""Finite metric spaces and the vectors living on them.

A FiniteSpace is a list of labelled points with a metric: a stored
matrix, or one implied by 1-d coordinates (grids on a line) or by
neither (the discrete metric).  On top of it sit BoundedFunction (test
functions F, each one row of space.row_width floats; the half-line domain
adds a tail column), ProbabilityMeasure (weights) and RateFunction
(nonnegative, possibly infinite).  Structural tolerances are 1e-12
throughout; analytic tolerances live with the callers.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import (
    AllZero,
    NegativeTerm,
    NegativeWeight,
    NotMonotone,
    PointNotInSpace,
    SpaceMismatch,
    ValidationError,
)

STRUCTURAL_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _lse(z: np.ndarray):
    """log sum exp(z) over the last axis, each row shifted by its max.

    The package's one log-sum-exp kernel.  A 1-d z gives a float; a
    (k, m) z gives a (k,) array whose rows carry the same bits as k 1-d
    calls.  The maximal terms of a row are summed apart, as
    log1p(rest / k) + log(k) + max, which stays accurate to the last bits
    when they dominate (Blanchard, Higham and Higham 2021).  -inf entries
    are zero weights (all -inf gives -inf); a +inf or nan maximum is
    returned as it is.
    """
    one = z.ndim == 1
    m = z.max(-1)
    if not (math.isfinite(m) if one else np.isfinite(m).all()):
        # non-finite maxima come out of the same formula by IEEE rules
        with np.errstate(invalid="ignore", divide="ignore"):
            return _lse_rows(z, m, one)
    return _lse_rows(z, m, one)


def _lse_rows(z: np.ndarray, m, one: bool):
    # a 1-d z takes the scalar forms of the same steps: their axis forms
    # cost microseconds a call, and the ascents call this in their loops
    mk = m if one else m[..., None]
    top = z == mk
    e = z - mk
    np.exp(e, out=e)  # in place: one block-sized temporary fewer per call
    e[top] = 0.0
    k = np.count_nonzero(top) if one else top.sum(-1)
    out = np.log1p(e.sum(-1) / k) + np.log(k) + m
    return float(out) if one else out


# rows of one stacked array are capped so that it holds about this many
# floats; the batched checks and pit passes work through such blocks
_BLOCK_FLOATS = 65536


def _row_blocks(count: int, width: int):
    """(start, stop) ranges covering count rows of the given width in blocks."""
    step = max(1, _BLOCK_FLOATS // width)
    return [(a, min(count, a + step)) for a in range(0, count, step)]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector")
    return arr


def _line_coords(coords: np.ndarray, n: int) -> np.ndarray:
    if len(coords) != n or not np.all(np.isfinite(coords)):
        raise ValidationError("coords must be finite and match the label count")
    return _freeze(coords)


def _finite(x, name: str) -> float:
    """float(x), refusing nan and +-inf."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x!r}")
    return x


def _distinct_labels(coords: np.ndarray) -> bool:
    """Whether repr gives every coordinate a label of its own.

    repr tells apart any two floats that differ in a bit (0.0 and -0.0
    too) and prints every nan as "nan", so this compares bit patterns
    with all nans made one.
    """
    if np.all(coords[1:] > coords[:-1]):  # strictly increasing: every grid
        return True
    # all ones is a nan pattern, so no number shares it
    bits = np.where(np.isnan(coords), -1, coords.view(np.int64))
    return len(np.unique(bits)) == len(coords)


class FiniteSpace:
    """A finite metric space with opaque point labels.

    Three metric modes: an explicit (n, n) matrix, line coordinates with
    metric |x_i - x_j|, or, with neither given, the discrete metric.  The
    last two are computed on demand, so grids with 2^16 + 1 points and
    large default spaces never materialize a matrix.

    Labels are given, or derived: from_line without labels and default
    store only their coordinates or size, and build point_ids (repr of
    each coordinate, or x1..xn) and the label index on first use.  Two
    spaces are equal when they have the same type, coordinates, metric
    and labels; between two derived spaces the labels are compared
    through what they derive from (the coordinates' bits, or the size),
    and against a given-label space through the labels themselves.
    """

    __slots__ = ("_size", "_ids", "_index", "_matrix", "_coords")

    def __init__(self, point_ids: Sequence[str], metric=None, *, _coords=None):
        ids = tuple(str(p) for p in point_ids)
        index = {p: i for i, p in enumerate(ids)}
        if len(ids) < 1:
            raise ValidationError("a space needs at least one point")
        if len(index) != len(ids):
            raise ValidationError("point labels must be unique")
        n = len(ids)
        self._size, self._ids, self._index = n, ids, index

        self._coords = self._matrix = None  # neither: the discrete metric
        if _coords is not None:
            self._coords = _line_coords(_as_float_array(_coords, "coords"), n)
        elif metric is not None:
            try:
                m = np.array(metric, dtype=float)
            except (TypeError, ValueError):  # ragged rows or entries that are not numbers
                m = None
            if m is None or m.shape != (n, n):
                raise ValidationError(f"metric must be {n}x{n}")
            if not np.all(np.isfinite(m)):
                raise ValidationError("metric entries must be finite")
            if np.any(np.diag(m) != 0.0):
                raise ValidationError("metric diagonal must be exactly zero")
            if np.max(np.abs(m - m.T)) > STRUCTURAL_TOL:
                raise ValidationError("metric must be symmetric")
            if np.any(m < -STRUCTURAL_TOL):
                raise ValidationError("metric must be nonnegative")
            # triangle inequality, checked directly; spaces are small in matrix mode
            for k in range(n):
                if np.any(m > m[:, k][:, None] + m[None, k, :] + STRUCTURAL_TOL):
                    raise ValidationError("metric violates the triangle inequality")
            self._matrix = _freeze(m)

    def _init_derived(self, size: int, coords: np.ndarray | None) -> None:
        """Set up a space whose labels are built on first use."""
        if size < 1:
            raise ValidationError("a space needs at least one point")
        self._size, self._coords = size, coords
        self._ids = self._index = self._matrix = None

    @classmethod
    def from_line(cls, coords, point_ids: Sequence[str] | None = None) -> "FiniteSpace":
        """Space of points on the real line; metric is |x - y|, never materialized.

        Without point_ids the labels are repr of each coordinate, derived
        on first use; they must still come out unique.
        """
        arr = _as_float_array(coords, "coords")
        if point_ids is not None:
            return cls(point_ids, _coords=arr)
        if not _distinct_labels(arr):
            raise ValidationError("point labels must be unique")
        space = cls.__new__(cls)
        space._init_derived(len(arr), _line_coords(arr, len(arr)))
        return space

    @classmethod
    def default(cls, n: int) -> "FiniteSpace":
        """Discrete space with labels x1..xn, used when callers hand in bare weights."""
        space = cls.__new__(cls)
        space._init_derived(operator.index(n), None)
        return space

    @property
    def point_ids(self) -> tuple[str, ...]:
        """The point labels, in index order."""
        if self._ids is None:
            if self._coords is not None:
                # repr of a tolist() float is repr(float(c)), byte for byte
                self._ids = tuple(map(repr, self._coords.tolist()))
            else:
                self._ids = tuple(f"x{i}" for i in range(1, self._size + 1))
        return self._ids

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def metric(self) -> np.ndarray | None:
        """The stored metric matrix; None for a line or discrete space."""
        return self._matrix

    @property
    def row_width(self) -> int:
        """Length of a function row, the form FunctionalHandle.evaluate_many stacks."""
        return len(self)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        # only what is stored; np.array_equal(None, x) holds for x None alone
        return (
            type(self) is type(other)
            and self._size == other._size
            and np.array_equal(self._coords, other._coords)
            and np.array_equal(self._matrix, other._matrix)
            and self._same_labels(other)
        )

    def _same_labels(self, other: "FiniteSpace") -> bool:
        if self._ids is None and other._ids is None:
            # derived on both sides; the coordinates already compare equal
            # as numbers, and their bits tell 0.0 from -0.0 as repr does
            c = self._coords
            return c is None or np.array_equal(c.view(np.int64), other._coords.view(np.int64))
        return self.point_ids == other.point_ids

    def __hash__(self):
        # equal spaces share their type and size; their labels need not be built
        return hash((type(self), self._size))

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} points)"

    def index_of(self, point) -> int:
        """Resolve a point given as label or integer index."""
        if isinstance(point, (int, np.integer)):
            i = int(point)
            if 0 <= i < len(self):
                return i
            raise PointNotInSpace(f"index {i} out of range for {len(self)} points")
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.point_ids)}
        try:
            return self._index[str(point)]
        except KeyError:
            raise PointNotInSpace(f"unknown point label {point!r}") from None

    def distance(self, i: int, j: int) -> float:
        if self._coords is not None:
            return abs(float(self._coords[i] - self._coords[j]))
        if self._matrix is not None:
            return float(self._matrix[i, j])
        return float(i != j)

    def metric_matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        c = self._coords
        if c is None:
            return np.ones((len(self), len(self))) - np.eye(len(self))
        return np.abs(c[:, None] - c[None, :])

    def subset_diameter(self, indices: Sequence[int] | np.ndarray) -> float:
        """Max pairwise distance over the subset; 0 for empty or singleton sets."""
        idx = np.asarray(indices, dtype=np.intp)
        if len(idx) <= 1:
            return 0.0
        if self._coords is not None:
            c = self._coords[idx]
            return float(c.max() - c.min())
        if self._matrix is not None:
            return float(self._matrix[np.ix_(idx, idx)].max())
        return float(len(np.unique(idx)) > 1)

    # -- functions, each built from one row of row_width floats --

    def function(self, values) -> "BoundedFunction":
        return BoundedFunction(values, self)

    # a plain space's row is the function's values
    from_row = function

    def zero_function(self) -> "BoundedFunction":
        return self.constant_function(0.0)

    def constant_function(self, c: float) -> "BoundedFunction":
        return self.from_row(np.full(self.row_width, float(c)))

    def pit_function(self, index: int, depth: float) -> "BoundedFunction":
        """The test function equal to 0 at one point and -depth elsewhere.

        Every column past the points sits at -depth too: a tail domain's
        limsup sees the pit only then.
        """
        row = np.full(self.row_width, -float(depth))
        row[index] = 0.0
        return self.from_row(row)

    def sample_function(self, rng: np.random.Generator, low: float, high: float) -> "BoundedFunction":
        return self.from_row(rng.uniform(low, high, self.row_width))


def _require_same_space(sa, sb) -> None:
    if sa is not sb and sa != sb:
        raise SpaceMismatch("operands live on different spaces")


class BoundedFunction:
    """A real vector over the points of one space; all values finite.

    Every operation is one plain array operation on the row (see .row),
    rebuilt through space.from_row, so a subclass whose row carries more
    columns than the points gets the same operations on all of them.
    """

    __slots__ = ("values", "space")

    def __init__(self, values, space: FiniteSpace):
        arr = _as_float_array(values, "values")
        if len(arr) != len(space):
            raise ValidationError(
                f"function has {len(arr)} values but the space has {len(space)} points"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("function values must all be finite")
        self.values = _freeze(arr)
        self.space = space

    def __repr__(self):
        return f"{type(self).__name__}({np.array2string(self.row, threshold=8)})"

    def __eq__(self, other):
        if not isinstance(other, BoundedFunction):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.row, other.row))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == does not tell apart
        return hash((self.space, (self.row + 0.0).tobytes()))

    @property
    def row(self) -> np.ndarray:
        """The values themselves: one row of a stacked batch."""
        return self.values

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.row)))

    def shifted(self, c: float):
        return self.space.from_row(self.row + float(c))

    def scaled(self, a: float):
        return self.space.from_row(self.row * float(a))

    def plus(self, other):
        _require_same_space(self.space, other.space)
        return self.space.from_row(self.row + other.row)

    def pointwise_max(self, other):
        _require_same_space(self.space, other.space)
        return self.space.from_row(np.maximum(self.row, other.row))

    def sup_distance(self, other) -> float:
        _require_same_space(self.space, other.space)
        return float(np.max(np.abs(self.row - other.row)))

    def inf_minus(self, other) -> float:
        """inf over points of (self - other), the left side of the positivity bound."""
        _require_same_space(self.space, other.space)
        return float(np.min(self.row - other.row))


def pointwise_max(F, G):
    """Pointwise maximum F v G of two functions on one space."""
    return F.pointwise_max(G)


def sup_distance(F, G) -> float:
    """Sup-norm distance between two functions on one space."""
    return F.sup_distance(G)


class ProbabilityMeasure:
    """Nonnegative weights summing to 1 within 1e-12.

    log_weights defaults to elementwise log (with log 0 = -inf) but callers
    that know better, like the exact binomial builder, may pass sharper
    values, each finite or -inf; rate extraction at large n reads them
    directly.
    """

    __slots__ = ("weights", "log_weights", "normalization")

    def __init__(self, weights, log_weights=None, normalization: float = 1.0):
        arr = _as_float_array(weights, "weights")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("weights must be finite")
        if np.any(arr < 0):
            raise NegativeWeight("weights must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > STRUCTURAL_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {STRUCTURAL_TOL}; got {total!r}"
            )
        self.weights = _freeze(arr)
        if log_weights is None:
            with np.errstate(divide="ignore"):
                lw = np.log(arr)
        else:
            lw = np.array(log_weights, dtype=float)
            if len(lw) != len(arr):
                raise ValidationError("log_weights length mismatch")
            if not (lw < np.inf).all():  # nan fails too; -inf is a zero weight
                raise ValidationError("log_weights must be finite or -inf")
        self.log_weights = _freeze(lw)
        self.normalization = float(normalization)

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"ProbabilityMeasure({np.array2string(self.weights, threshold=8)})"

    def __eq__(self, other):
        if not isinstance(other, ProbabilityMeasure):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash(self.weights.tobytes())


def make_measure(weights) -> ProbabilityMeasure:
    """Normalize raw nonnegative weights into a ProbabilityMeasure.

    The divisor is recorded on the result as .normalization.
    """
    arr = _as_float_array(weights, "weights")
    if np.any(arr < 0):
        raise NegativeWeight("weights must be nonnegative")
    total = float(arr.sum())
    if total == 0.0:
        raise AllZero("cannot normalize an all-zero weight vector")
    return ProbabilityMeasure(arr / total, normalization=total)


class RateFunction:
    """Extended-real vector over points, entries in [0, inf].

    The minimum is 0 only when the source functional was normalized; the
    type does not force it.
    """

    __slots__ = ("values", "space")

    def __init__(self, values, space: FiniteSpace):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or len(arr) != len(space):
            raise ValidationError("rate vector length must match the space")
        if np.any(np.isnan(arr)) or np.any(arr < 0):
            raise ValidationError("rate entries must be in [0, inf]")
        self.values = _freeze(arr)
        self.space = space

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"RateFunction({np.array2string(self.values, threshold=8)})"

    def __eq__(self, other):
        if not isinstance(other, RateFunction):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == does not tell apart
        return hash((self.space, (self.values + 0.0).tobytes()))

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def min_finite(self) -> float:
        m = self.finite_mask()
        return float(self.values[m].min()) if m.any() else float("inf")


class DecreasingSequence:
    """Validated container for F_1 >= F_2 >= ... >= 0 aiming at zero.

    Build through validate_decreasing, which orders whole rows, so a
    half-line function's tail column must decrease too.  residual is the
    sup-norm of the last term over the points only (a declared tail value
    is deliberately not folded in: the sigma check reads it through the
    functional itself).
    """

    __slots__ = ("terms", "residual")

    def __init__(self, terms, residual: float):
        self.terms = tuple(terms)
        self.residual = float(residual)

    def __len__(self):
        return len(self.terms)


def validate_decreasing(seq) -> DecreasingSequence:
    """Check a list of functions is pointwise nonincreasing and nonnegative.

    Raises NotMonotone with the first violating term index and point label
    ("tail" for a tail column), or NegativeTerm; otherwise returns the
    sequence with its residual.
    """
    terms = list(seq)
    if not terms:
        raise ValidationError("empty sequence")
    space = terms[0].space
    for k, term in enumerate(terms):
        _require_same_space(space, term.space)
        if np.any(term.row < 0):
            raise NegativeTerm(f"term {k} has a negative value")
    for k in range(1, len(terms)):
        bad = np.nonzero(terms[k].row > terms[k - 1].row)[0]
        if len(bad):
            i = int(bad[0])
            # a row column past the points is a tail column
            raise NotMonotone(k, space.point_ids[i] if i < len(space) else "tail")
    residual = float(np.max(np.abs(terms[-1].values)))
    return DecreasingSequence(terms, residual)
