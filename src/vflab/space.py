"""Finite metric spaces and the vectors living on them.

A FiniteSpace is a list of labelled points with a metric: a given
matrix, or one implied by 1-d coordinates (grids on a line) or by
neither (the discrete metric).  On top of it sit BoundedFunction (test
functions F, each one row of space.row_width floats; the half-line domain
adds a tail column), ProbabilityMeasure (weights) and RateFunction
(nonnegative, possibly infinite).  Structural tolerances are 1e-12
throughout; analytic tolerances live with the callers.
"""

from __future__ import annotations

import math
import numbers
import sys
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


def _lse(z: np.ndarray, overwrite: bool = False):
    """log sum exp(z) over the last axis, each row shifted by its max.

    The package's one log-sum-exp kernel.  A 1-d z gives a float; a
    (k, m) z gives a (k,) array whose rows carry the same bits as k 1-d
    calls.  The maximal terms of a row are summed apart, as
    log1p(rest / k) + log(k) + max, which stays accurate to the last bits
    when they dominate (Blanchard, Higham and Higham 2021).  -inf entries
    are zero weights (all -inf gives -inf); a +inf or nan maximum is
    returned as it is.  With overwrite, a caller that owns z lets the
    shifted exponentials take its place, one block-sized array fewer.
    """
    one = z.ndim == 1
    m = z.max(-1)
    if not (math.isfinite(m) if one else np.isfinite(m).all()):
        # non-finite maxima come out of the same formula by IEEE rules
        with np.errstate(invalid="ignore", divide="ignore"):
            return _lse_rows(z, m, one, overwrite)
    return _lse_rows(z, m, one, overwrite)


def _lse_rows(z: np.ndarray, m, one: bool, overwrite: bool):
    # a 1-d z takes the scalar forms of the same steps: their axis forms
    # cost microseconds a call, and the ascents call this in their loops
    mk = m if one else m[..., None]
    top = z == mk
    e = np.subtract(z, mk, out=z if overwrite else None)
    np.exp(e, out=e)  # in place: one block-sized temporary fewer per call
    e[top] = 0.0
    k = np.count_nonzero(top) if one else top.sum(-1)
    out = np.log1p(e.sum(-1) / k) + np.log(k) + m
    return float(out) if one else out


# rows of one stacked array are limited so that it holds about this many
# floats; the batched checks and pit passes work through such blocks
_BLOCK_FLOATS = 65536


def _row_blocks(count: int, width: int):
    """(start, stop) ranges covering count rows of the given width in blocks."""
    step = max(1, _BLOCK_FLOATS // width)
    return [(a, min(count, a + step)) for a in range(0, count, step)]


def _as_float_array(values, name: str, shape_error: str | None = None) -> np.ndarray:
    """values as a 1-d float array; shape_error, if given, replaces the message for any other shape."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):  # ragged rows or entries that are not numbers
        raise ValidationError(f"{name} must be a 1-d vector of numbers") from None
    if arr.ndim != 1:
        raise ValidationError(shape_error or f"{name} must be a 1-d vector")
    return arr


def _finite(x, name: str) -> float:
    """float(x) for a real x, refusing bools, non-numbers, nan and +-inf."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x!r}")
    return x


def _positive_int(n) -> int:
    """int(n) for an integral real n >= 1 in the float range; bools refused, numpy integers pass."""
    if isinstance(n, bool) or not isinstance(n, numbers.Real):
        raise ValidationError("n must be a positive integer")
    if n == math.inf or isinstance(n, int) and n > sys.float_info.max:
        raise ValidationError("n is too large for a float")
    if not n >= 1 or int(n) != n:  # refuses nan as well
        raise ValidationError("n must be a positive integer")
    return int(n)


class FiniteSpace:
    """A finite metric space with opaque point labels.

    Three metric modes: an explicit (n, n) matrix, line coordinates with
    metric |x_i - x_j|, or, with neither given, the discrete metric.  The
    last two are computed on demand, so grids with 2^16 + 1 points and
    large default spaces never materialize a matrix.

    One rule for the labels: they are given, or derived on first use,
    repr of each coordinate on a line and x1..xn otherwise; every
    constructor runs _setup, which checks the size and leaves derived
    labels unbuilt until point_ids is read.  Derived line labels must
    come out unique, which for finite coordinates means distinct bits
    (0.0 and -0.0 are two points).  Two spaces are equal when they have
    the same type, size, coordinates, metric and point_ids; equal spaces
    hash alike without building labels.
    """

    __slots__ = ("_size", "_ids", "_index", "_matrix", "_coords")

    def __init__(self, point_ids: Sequence[str], metric=None):
        ids = tuple(str(p) for p in point_ids)
        n = len(ids)
        self._setup(n, ids=ids)
        if metric is not None:
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

    def _setup(self, size: int, coords: np.ndarray | None = None, ids: tuple | None = None) -> None:
        """The one setup step of every constructor: checks the size, then the given
        labels ids or the coordinates, and builds no labels."""
        if size < 1:
            raise ValidationError("a space needs at least one point")
        if ids is not None and len(set(ids)) != size:
            raise ValidationError("point labels must be unique")
        if coords is not None:
            if len(coords) != size or not np.all(np.isfinite(coords)):
                raise ValidationError("coords must be finite and match the label count")
            # finite floats have distinct reprs exactly when their bits differ;
            # a strictly increasing grid needs no sort to show it
            if ids is None and not np.all(coords[1:] > coords[:-1]):
                if len(np.unique(coords.view(np.int64))) != size:
                    raise ValidationError("point labels must be unique")
            coords = _freeze(coords)
        self._size, self._coords, self._ids = size, coords, ids
        self._index = self._matrix = None

    @classmethod
    def from_line(cls, coords, point_ids: Sequence[str] | None = None) -> "FiniteSpace":
        """Points on the real line, metric |x - y| (never materialized), labels repr(x) unless given."""
        arr = _as_float_array(coords, "coords")
        ids = None if point_ids is None else tuple(str(p) for p in point_ids)
        space = cls.__new__(cls)
        space._setup(len(arr) if ids is None else len(ids), arr, ids)
        return space

    @classmethod
    def default(cls, n: int) -> "FiniteSpace":
        """Discrete space with labels x1..xn, used when callers hand in bare weights."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValidationError(f"a space size must be an integer, got {n!r}")
        space = cls.__new__(cls)
        space._setup(int(n))
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
        # np.array_equal(None, x) holds for x None alone
        return (
            type(self) is type(other)
            and self._size == other._size
            and np.array_equal(self._coords, other._coords)
            and np.array_equal(self._matrix, other._matrix)
            and self.point_ids == other.point_ids
        )

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


class ProbabilityMeasure:
    """Nonnegative weights summing to 1 within 1e-12.

    log_weights defaults to elementwise log (with log 0 = -inf), computed
    on first read and then cached read-only, so a measure whose logs no
    one reads never takes them.  Callers that know better, like the exact
    binomial builder, may pass sharper values, each finite or -inf; rate
    extraction at large n reads them directly.
    """

    __slots__ = ("weights", "_log_weights")

    def __init__(self, weights, log_weights=None):
        arr = _weights(weights)
        total = _mass(arr)
        if abs(total - 1.0) > STRUCTURAL_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {STRUCTURAL_TOL}; got {total!r}"
            )
        self.weights = _freeze(arr)
        self._log_weights = None
        if log_weights is not None:
            lw = _as_float_array(log_weights, "log_weights", "log_weights length mismatch")
            if len(lw) != len(arr):
                raise ValidationError("log_weights length mismatch")
            if not (lw < np.inf).all():  # nan fails too; -inf is a zero weight
                raise ValidationError("log_weights must be finite or -inf")
            self._log_weights = _freeze(lw)

    @property
    def log_weights(self) -> np.ndarray:
        if self._log_weights is None:
            with np.errstate(divide="ignore"):
                self._log_weights = _freeze(np.log(self.weights))
        return self._log_weights

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


def _weights(values) -> np.ndarray:
    """The one check of a weight vector: 1-d floats, finite, nonnegative, not all zero."""
    arr = _as_float_array(values, "weights")
    # nan carries into both reductions; the initial 0.0 covers an empty vector
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("weights must be finite")
    if lo < 0:
        raise NegativeWeight("weights must be nonnegative")
    if not hi > 0:
        raise AllZero("weights must carry positive mass")
    return arr


def _mass(arr: np.ndarray) -> float:
    """arr.sum() as a float: inf, without a warning, past the float range."""
    with np.errstate(over="ignore"):
        return float(arr.sum())


def make_measure(weights) -> ProbabilityMeasure:
    """The one normalizer: checked weights as a ProbabilityMeasure.

    A sum within 1e-12 of 1 keeps the weights' bits; any other sum divides
    them, over their max first when the sum overflows.
    """
    arr = _weights(weights)
    total = _mass(arr)
    if abs(total - 1.0) > STRUCTURAL_TOL:
        if total == math.inf:
            arr = arr / arr.max()
        arr = arr / arr.sum()
    return ProbabilityMeasure(arr)


class RateFunction:
    """Extended-real vector over points, entries in [0, inf].

    The minimum is 0 only when the source functional was normalized; the
    type does not force it.
    """

    __slots__ = ("values", "space")

    def __init__(self, values, space: FiniteSpace):
        arr = _as_float_array(values, "rate", "rate vector length must match the space")
        if len(arr) != len(space):
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


def validate_decreasing(seq) -> tuple:
    """The terms of seq as a tuple, once they are nonnegative and nonincreasing.

    Whole rows are ordered, so a half-line function's tail column must
    decrease too.  Raises NotMonotone with the first violating term index
    and point label ("tail" for a tail column), or NegativeTerm.  The sigma
    check gates the last term at 1e-6 over its points only.
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
    return tuple(terms)


__all__ = [
    "FiniteSpace",
    "BoundedFunction",
    "ProbabilityMeasure",
    "RateFunction",
    "make_measure",
    "validate_decreasing",
]
