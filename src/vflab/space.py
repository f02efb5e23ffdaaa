"""Finite metric spaces and the vectors living on them.

A FiniteSpace is a list of labelled points with a metric, either stored as
an explicit matrix or implied by 1-d coordinates (grids on a line).  On top
of it sit BoundedFunction (test functions F), ProbabilityMeasure (weights)
and RateFunction (nonnegative, possibly infinite).  Structural tolerances
are 1e-12 throughout; analytic tolerances live with the callers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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
    e = np.exp(z - mk)
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


class FiniteSpace:
    """A finite metric space with opaque point labels.

    Two storage modes: an explicit (n, n) metric matrix, or line
    coordinates with metric |x_i - x_j| computed on demand.  The line mode
    exists so grids with 2^16 + 1 points never materialize a matrix.
    """

    __slots__ = ("point_ids", "_matrix", "_coords", "_index")

    def __init__(self, point_ids: Sequence[str], metric=None, *, _coords=None):
        ids = tuple(str(p) for p in point_ids)
        if len(ids) < 1:
            raise ValidationError("a space needs at least one point")
        if len(set(ids)) != len(ids):
            raise ValidationError("point labels must be unique")
        self.point_ids = ids
        self._index = {p: i for i, p in enumerate(ids)}
        n = len(ids)

        if _coords is not None:
            coords = _as_float_array(_coords, "coords")
            if len(coords) != n or not np.all(np.isfinite(coords)):
                raise ValidationError("coords must be finite and match the label count")
            self._coords = _freeze(coords)
            self._matrix = None
            return

        if metric is None:
            # discrete metric: distance 1 between distinct points; a metric
            # by construction, so it skips the O(n^3) validation
            m = np.ones((n, n)) - np.eye(n)
        else:
            m = np.array(metric, dtype=float)
            if m.shape != (n, n):
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
        self._coords = None

    @classmethod
    def from_line(cls, coords, point_ids: Sequence[str] | None = None) -> "FiniteSpace":
        """Space of points on the real line; metric is |x - y|, never materialized."""
        arr = _as_float_array(coords, "coords")
        if point_ids is None:
            point_ids = [repr(float(c)) for c in arr]
        return cls(point_ids, _coords=arr)

    @classmethod
    def default(cls, n: int) -> "FiniteSpace":
        """Discrete space with labels x1..xn, used when callers hand in bare weights."""
        return cls([f"x{i}" for i in range(1, n + 1)])

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def row_width(self) -> int:
        """Length of a function row, the form FunctionalHandle.evaluate_many stacks."""
        return len(self)

    def from_row(self, row) -> "BoundedFunction":
        return BoundedFunction(row, self)

    def __len__(self) -> int:
        return len(self.point_ids)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        if self.point_ids != other.point_ids:
            return False
        if self._coords is not None and other._coords is not None:
            return bool(np.array_equal(self._coords, other._coords))
        if len(self) > 4096:
            return False  # refuse to materialize matrices this large just for ==
        return bool(np.array_equal(self.metric_matrix(), other.metric_matrix()))

    def __hash__(self):
        return hash(self.point_ids)

    def __repr__(self):
        return f"FiniteSpace({len(self)} points)"

    def index_of(self, point) -> int:
        """Resolve a point given as label or integer index."""
        if isinstance(point, (int, np.integer)):
            i = int(point)
            if 0 <= i < len(self):
                return i
            raise PointNotInSpace(f"index {i} out of range for {len(self)} points")
        try:
            return self._index[str(point)]
        except KeyError:
            raise PointNotInSpace(f"unknown point label {point!r}") from None

    def distance(self, i: int, j: int) -> float:
        if self._coords is not None:
            return abs(float(self._coords[i] - self._coords[j]))
        return float(self._matrix[i, j])

    def metric_matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        c = self._coords
        return np.abs(c[:, None] - c[None, :])

    def subset_diameter(self, indices: Iterable[int]) -> float:
        """Max pairwise distance over the subset; 0 for empty or singleton sets."""
        idx = np.fromiter(indices, dtype=int)
        if len(idx) <= 1:
            return 0.0
        if self._coords is not None:
            c = self._coords[idx]
            return float(c.max() - c.min())
        sub = self._matrix[np.ix_(idx, idx)]
        return float(sub.max())

    # -- function plumbing used across modules --

    def function(self, values) -> "BoundedFunction":
        return BoundedFunction(values, self)

    def zero_function(self) -> "BoundedFunction":
        return BoundedFunction(np.zeros(len(self)), self)

    def constant_function(self, c: float) -> "BoundedFunction":
        return BoundedFunction(np.full(len(self), float(c)), self)

    def pit_function(self, index: int, depth: float) -> "BoundedFunction":
        """The test function equal to 0 at one point and -depth elsewhere."""
        v = np.full(len(self), -float(depth))
        v[index] = 0.0
        return BoundedFunction(v, self)

    def sample_function(self, rng: np.random.Generator, low: float, high: float) -> "BoundedFunction":
        return BoundedFunction(rng.uniform(low, high, len(self)), self)


def _require_same_space(a, b) -> None:
    sa, sb = a.space, b.space
    if sa is not sb and sa != sb:
        raise SpaceMismatch("operands live on different spaces")


class _RowOps:
    """Lattice and norm operations shared by BoundedFunction and TailFunction.

    A subclass provides .row and .space.from_row, so every operation is
    one plain array operation on the row.
    """

    __slots__ = ()

    def shifted(self, c: float):
        return self.space.from_row(self.row + float(c))

    def scaled(self, a: float):
        return self.space.from_row(self.row * float(a))

    def plus(self, other):
        _require_same_space(self, other)
        return self.space.from_row(self.row + other.row)

    def pointwise_max(self, other):
        _require_same_space(self, other)
        return self.space.from_row(np.maximum(self.row, other.row))

    def sup_distance(self, other) -> float:
        _require_same_space(self, other)
        return float(np.max(np.abs(self.row - other.row)))

    def inf_minus(self, other) -> float:
        """inf over points of (self - other), the left side of the positivity bound."""
        _require_same_space(self, other)
        return float(np.min(self.row - other.row))


class BoundedFunction(_RowOps):
    """A real vector over the points of one space; all values finite."""

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
        return f"BoundedFunction({np.array2string(self.values, threshold=8)})"

    def __eq__(self, other):
        if not isinstance(other, BoundedFunction):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.space.point_ids, self.values.tobytes()))

    @property
    def row(self) -> np.ndarray:
        """The values themselves: one row of a stacked batch."""
        return self.values

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def pointwise_max(F, G):
    """Pointwise maximum F v G; works for any function type sharing a space."""
    return F.pointwise_max(G)


def sup_distance(F, G) -> float:
    """Sup-norm distance between two functions on one space."""
    return F.sup_distance(G)


class ProbabilityMeasure:
    """Nonnegative weights summing to 1 within 1e-12.

    log_weights defaults to elementwise log (with log 0 = -inf) but callers
    that know better, like the exact binomial builder, may pass sharper
    values; rate extraction at large n reads them directly.
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
                log_weights = np.log(arr)
        lw = np.array(log_weights, dtype=float)
        if len(lw) != len(arr):
            raise ValidationError("log_weights length mismatch")
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
        return hash((self.space.point_ids, self.values.tobytes()))

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def min_finite(self) -> float:
        m = self.finite_mask()
        return float(self.values[m].min()) if m.any() else float("inf")


class DecreasingSequence:
    """Validated container for F_1 >= F_2 >= ... >= 0 aiming at zero.

    Build through validate_decreasing; residual is the sup-norm of the last
    term over the sampled grid (declared tail values of half-line functions
    are deliberately not folded in: the sigma check reads them through the
    functional itself).
    """

    __slots__ = ("terms", "residual")

    def __init__(self, terms, residual: float):
        self.terms = tuple(terms)
        self.residual = float(residual)

    def __len__(self):
        return len(self.terms)


def _term_grid_values(term) -> np.ndarray:
    # BoundedFunction has .values; TailFunction mirrors the same attribute
    return term.values


def validate_decreasing(seq) -> DecreasingSequence:
    """Check a list of functions is pointwise nonincreasing and nonnegative.

    Raises NotMonotone with the first violating term index and point label,
    or NegativeTerm; otherwise returns the sequence with its residual.
    """
    terms = list(seq)
    if not terms:
        raise ValidationError("empty sequence")
    first = terms[0]
    labels = first.space.point_ids
    for k, term in enumerate(terms):
        if k > 0:
            _require_same_space(first, term)
        vals = _term_grid_values(term)
        if np.any(vals < 0):
            raise NegativeTerm(f"term {k} has a negative value")
        tail = getattr(term, "tail_value", None)
        if tail is not None and tail < 0:
            raise NegativeTerm(f"term {k} has a negative tail value")
    for k in range(1, len(terms)):
        prev = _term_grid_values(terms[k - 1])
        cur = _term_grid_values(terms[k])
        bad = np.nonzero(cur > prev)[0]
        if len(bad):
            raise NotMonotone(k, labels[int(bad[0])])
        pt = getattr(terms[k - 1], "tail_value", None)
        ct = getattr(terms[k], "tail_value", None)
        if pt is not None and ct is not None and ct > pt:
            raise NotMonotone(k, "tail")
    residual = float(np.max(np.abs(_term_grid_values(terms[-1]))))
    return DecreasingSequence(terms, residual)
