"""The catalog of Varadhan functionals.

A FunctionalHandle wraps an evaluator F -> L(F) together with capability
claims (maximal, convex, sigma-continuous).  Claims are declarations, not
certifications; the axioms module is the certifier.  Four built-ins:

  log_integral  L(F) = log int e^F dnu        convex, not maximal
  sup_form      L(F) = L0 + max(F - I)        maximal and convex
  ldp_term      L(F) = (1/n) log int e^{nF}   one term of an LDP sequence
  tail_limsup   L(F) = limsup of F at +inf    maximal, not sigma-continuous

The last one lives on half-line functions with a declared tail value; that
is the smallest class on which the limsup is computable from finite data.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from .errors import AllInfiniteRate, SpaceMismatch, ValidationError
from .space import (
    BoundedFunction,
    FiniteSpace,
    ProbabilityMeasure,
    RateFunction,
    _finite,
    _freeze,
    _lse,
    _require_same_space,
)


class FunctionalHandle:
    """An evaluator for one functional plus its declared properties.

    The evaluator comes in one of two forms.  rows maps function rows
    (see BoundedFunction.row; last axis space.row_width) to L of each row,
    reducing over the last axis only; the built-ins give this form, so
    evaluate and evaluate_many run the same code.  fn maps one function
    object to L(F); evaluate_many then calls it row by row.

    evaluate is deterministic: the same input vector gives bit-identical
    output, in evaluate and in any row of evaluate_many.  base_value
    caches L(0).  gradient, when present, maps function values to the
    exact derivative dL/dF as a weight vector (the tilted measure for the
    log-integral family); conjugate_J builds its steps from it alone.
    hessian is always None: no solver calls it, and the slot stays only
    because the benchmark tracer reads it.  evaluate refuses a function
    on another space with SpaceMismatch.
    """

    __slots__ = (
        "name",
        "space",
        "claims_maximal",
        "claims_convex",
        "claims_sigma_continuous",
        "base_value",
        "gradient",
        "hessian",
        "_fn",
        "_rows",
    )

    def __init__(
        self,
        name: str,
        space,
        fn: Callable | None = None,
        *,
        rows: Callable | None = None,
        claims_maximal: bool,
        claims_convex: bool,
        claims_sigma_continuous: bool,
        gradient: Callable | None = None,
    ):
        if (fn is None) == (rows is None):
            raise ValidationError("a handle needs exactly one of fn and rows")
        self.name = name
        self.space = space
        self._fn = fn
        self._rows = rows
        self.claims_maximal = bool(claims_maximal)
        self.claims_convex = bool(claims_convex)
        self.claims_sigma_continuous = bool(claims_sigma_continuous)
        self.gradient = gradient
        self.hessian = None
        zero = space.zero_function()
        self.base_value = float(fn(zero) if rows is None else rows(zero.row))

    def evaluate(self, F) -> float:
        _require_same_space(F.space, self.space)
        if self._rows is not None:
            return float(self._rows(F.row))
        return float(self._fn(F))

    __call__ = evaluate

    def evaluate_many(self, V) -> np.ndarray:
        """L of every row of a (k, space.row_width) array, as a (k,) array.

        Row i gives the same bits as evaluate on the function of row i.
        """
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[1] != self.space.row_width:
            raise ValidationError(
                f"function rows must form a (k, {self.space.row_width}) array; got shape {V.shape}"
            )
        if not np.isfinite(V).all():
            raise ValidationError("function values must all be finite")
        if self._rows is not None:
            return np.array(self._rows(V), dtype=float)
        from_row = self.space.from_row
        return np.array([float(self._fn(from_row(r))) for r in V], dtype=float)

    def __repr__(self):
        return f"FunctionalHandle({self.name!r} on {self.space!r})"


# ---------------------------------------------------------------------------
# half-line domain for the limsup example


DEFAULT_TAIL_GRID = np.linspace(0.0, 10.0, 513)


class TailDomain(FiniteSpace):
    """A finite grid on [0, inf) plus the point at infinity, implicitly.

    The line space over its grid, except that a function row has one more
    column, the declared constant value beyond the last grid point;
    functions on it are TailFunction.  It never equals the line space over
    its grid, which .grid holds.
    """

    __slots__ = ("grid",)

    def __init__(self, grid_coords=None):
        grid = FiniteSpace.from_line(DEFAULT_TAIL_GRID if grid_coords is None else grid_coords)
        coords = grid.coords
        if np.any(np.diff(coords) <= 0) or coords[0] < 0:
            raise ValidationError("tail grid must be increasing and nonnegative")
        super().__init__(grid.point_ids, _coords=coords)
        self.grid = grid

    @property
    def row_width(self) -> int:
        """Grid points plus one last column for the tail value."""
        return len(self) + 1

    def from_row(self, row) -> "TailFunction":
        return self.function(row[:-1], row[-1])

    def function(self, values, tail_value: float) -> "TailFunction":
        return TailFunction(self.grid.function(values), tail_value, self)

    def ramp(self, scale: float) -> "TailFunction":
        """min(1, x/scale): the classical escaping-to-infinity witness."""
        return self.function(np.minimum(1.0, self.coords / float(scale)), 1.0)


class TailFunction(BoundedFunction):
    """Grid samples on the half-line plus the declared limit at infinity.

    values are the grid samples; the row appends the tail value as one
    last column, so the row operations see the tail too: the sup distance
    over [0, inf) includes the tail gap, and a shift moves the tail.
    """

    __slots__ = ("tail_value", "row")

    def __init__(self, grid_values: BoundedFunction, tail_value: float, domain: TailDomain):
        _require_same_space(grid_values.space, domain.grid)
        super().__init__(grid_values.values, domain)
        self.tail_value = _finite(tail_value, "tail value")
        self.row = _freeze(np.append(self.values, self.tail_value))


# ---------------------------------------------------------------------------
# the four built-ins


def _coerce_measure(nu, space):
    """Log weights and space from a ProbabilityMeasure or raw weights.

    Raw weights must be finite and nonnegative, and are not normalized:
    log_integral over a non-probability finite measure is well defined
    (its base value is log of the mass) and the const-preservation check
    relies on being able to build one.
    """
    if isinstance(nu, ProbabilityMeasure):
        log_weights = nu.log_weights
    else:
        arr = np.array(nu, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValidationError("weights must be a finite 1-d vector")
        if np.any(arr < 0):
            raise ValidationError("weights must be nonnegative")
        if arr.sum() == 0.0:
            raise ValidationError("weights must carry positive mass")
        with np.errstate(divide="ignore"):
            log_weights = np.log(arr)
    if space is None:
        space = FiniteSpace.default(len(log_weights))
    elif len(space) != len(log_weights):
        raise SpaceMismatch("measure length does not match the space")
    return log_weights, space


def _log_family(nu, n: int, name: str, space) -> FunctionalHandle:
    """L(F) = (1/n) log int e^{nF} dnu with its exact gradient.

    The gradient is the tilted measure p, proportional to e^{nF} nu.  Zero
    weights drop out as -inf log weights.
    """
    log_weights, space = _coerce_measure(nu, space)

    def rows(V):
        return _lse(n * V + log_weights) / n

    def grad(values: np.ndarray) -> np.ndarray:
        z = n * values + log_weights
        return np.exp(z - _lse(z))

    return FunctionalHandle(
        name,
        space,
        rows=rows,
        claims_maximal=False,
        claims_convex=True,
        claims_sigma_continuous=True,
        gradient=grad,
    )


def log_integral(nu, space: FiniteSpace | None = None) -> FunctionalHandle:
    """L(F) = log int e^F dnu, the convex non-maximal example.

    ldp_term at n = 1 under its own name.  The exact gradient at F is the
    exponentially tilted measure p, exposed for the conjugate ascent.
    """
    return _log_family(nu, 1, "log_integral", space)


def sup_form(I: RateFunction, L0: float = 0.0) -> FunctionalHandle:
    """L(F) = L0 + sup over points of (F - I), the variational representation.

    Entries with I = inf never contribute; a rate that is infinite
    everywhere is rejected because the functional would be -inf identically.
    """
    finite = I.finite_mask()
    if not finite.any():
        raise AllInfiniteRate("sup_form needs at least one finite rate entry")
    idx = np.nonzero(finite)[0]
    rates = I.values[idx]
    L0 = _finite(L0, "L0")

    def rows(V):
        return L0 + (V[..., idx] - rates).max(-1)

    return FunctionalHandle(
        "sup_form",
        I.space,
        rows=rows,
        claims_maximal=True,
        claims_convex=True,
        claims_sigma_continuous=True,
    )


def ldp_term(mu, n: int, space: FiniteSpace | None = None) -> FunctionalHandle:
    """L(F) = (1/n) log int e^{nF} dmu, the nth term of an LDP sequence.

    At n = 1 this is log_integral(mu) exactly, bit for bit: both are built
    by one evaluator.  The exact gradient is the tilted measure p,
    proportional to e^{nF} mu.
    """
    if n > sys.float_info.max:
        raise ValidationError("n is too large for a float")
    if not n >= 1 or int(n) != n:
        raise ValidationError("n must be a positive integer")
    n = int(n)
    return _log_family(mu, n, f"ldp_term(n={n})", space)


def tail_limsup(domain: TailDomain | None = None) -> FunctionalHandle:
    """L(F) = limsup of F at infinity = the declared tail value.

    Monotone, translation-equivariant and maximal, but not
    sigma-continuous: functions can sink to zero pointwise while their
    tails stay up.
    """
    domain = domain or TailDomain()

    def rows(V):
        return V[..., -1]

    return FunctionalHandle(
        "tail_limsup",
        domain,
        rows=rows,
        claims_maximal=True,
        claims_convex=True,
        claims_sigma_continuous=False,
    )


__all__ = [
    "FunctionalHandle",
    "TailDomain",
    "TailFunction",
    "DEFAULT_TAIL_GRID",
    "log_integral",
    "sup_form",
    "ldp_term",
    "tail_limsup",
]
