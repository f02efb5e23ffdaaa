"""The catalog of Varadhan functionals.

A FunctionalHandle wraps the row function of a functional F -> L(F) and
one declaration, claims_convex, which the conjugate ascent and the
const-preservation check read.  The axiom properties (monotone,
translation compatible, maximal, sigma-continuous) are not declared: the
axioms module certifies them.  Four built-ins:

  log_integral  L(F) = log int e^F dnu        convex, not maximal
  sup_form      L(F) = L0 + max(F - I)        maximal and convex
  ldp_term      L(F) = (1/n) log int e^{nF}   one term of an LDP sequence
  tail_limsup   L(F) = limsup of F at +inf    maximal, not sigma-continuous

The last one lives on half-line functions with a declared tail value; that
is the smallest class on which the limsup is computable from finite data.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    _positive_int,
    _require_same_space,
    _weights,
)


def _one_value_per_row(name: str, out, shape: tuple) -> np.ndarray:
    """A row function's result as floats, refused unless it has the given shape."""
    out = np.array(out, dtype=float)
    if out.shape != shape:
        raise ValidationError(f"{name}: rows must give one value per row, shape {shape}; got shape {out.shape}")
    return out


class FunctionalHandle:
    """A functional given by its row function, plus its convexity claim.

    rows maps a function row (see BoundedFunction.row; its last axis is
    space.row_width, and on a tail domain the row ends in the tail value)
    or a (k, row_width) stack of rows to L of each row, reducing over the
    last axis only.  evaluate and evaluate_many both run it; construction
    (on the zero row) and evaluate_many refuse a result that is not one
    value per row.

    evaluate is deterministic: the same input vector gives bit-identical
    output, in evaluate and in any row of evaluate_many.  base_value
    caches L(0).  gradient, when present, maps function values to the
    exact derivative dL/dF as a weight vector (the tilted measure for the
    log-integral family); conjugate_J builds its steps from it alone.
    hessian is always None: no solver calls it, and the slot stays only
    because the benchmark tracer reads it.  evaluate refuses a function
    on another space with SpaceMismatch.
    """

    __slots__ = ("name", "space", "claims_convex", "base_value", "gradient", "hessian", "_rows")

    def __init__(self, name: str, space, *, rows: Callable, claims_convex: bool, gradient: Callable | None = None):
        self.name = name
        self.space = space
        self._rows = rows
        self.claims_convex = bool(claims_convex)
        self.gradient = gradient
        self.hessian = None
        self.base_value = float(_one_value_per_row(name, rows(space.zero_function().row), ()))

    def evaluate(self, F) -> float:
        _require_same_space(F.space, self.space)
        return float(self._rows(F.row))

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
        return _one_value_per_row(self.name, self._rows(V), (len(V),))

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

    def __init__(self, grid_coords: Sequence[float] | None = None):
        grid = FiniteSpace.from_line(DEFAULT_TAIL_GRID if grid_coords is None else grid_coords)
        coords = grid.coords
        if np.any(np.diff(coords) <= 0) or coords[0] < 0:
            raise ValidationError("tail grid must be increasing and nonnegative")
        self._setup(len(grid), coords)
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

    Raw weights pass the measures' own check (space._weights) and are not
    normalized: log_integral over a non-probability finite measure is well
    defined (its base value is log of the mass) and the const-preservation
    check relies on being able to build one.
    """
    if isinstance(nu, ProbabilityMeasure):
        log_weights = nu.log_weights
    else:
        with np.errstate(divide="ignore"):
            log_weights = np.log(_weights(nu))
    if space is None:
        space = FiniteSpace.default(len(log_weights))
    elif len(space) != len(log_weights):
        raise SpaceMismatch("measure length does not match the space")
    return log_weights, space


def _exponents(V, log_weights, n: int):
    if n == 1:  # V + log weights stays in the float range
        return V + log_weights
    with np.errstate(over="ignore", invalid="ignore"):
        return n * V + log_weights


def _shifted(V, log_weights, n: int):
    """(top, exponents) with V taken relative to its top supported value."""
    W = np.where(np.isneginf(log_weights), -np.inf, V)
    top = W.max(-1, keepdims=True)
    with np.errstate(over="ignore"):
        return top[..., 0], n * (W - top) + log_weights


def _out_of_range(lse, n: int) -> bool:
    """Whether the plain log-sum-exp of n V left the float range somewhere."""
    return n > 1 and not np.isfinite(lse).all()


def _log_rows(V, log_weights, n: int):
    """(1/n) log sum e^{nV} w over the last axis: the row formula of ldp_term.

    Where n V overflows or underflows, V is taken relative to its top
    supported value; elsewhere the plain form runs.  A 1-d V gives a
    scalar.  The exponent arrays are its own, so _lse shifts them in place.
    """
    out = _lse(_exponents(V, log_weights, n), overwrite=True) / n
    if _out_of_range(out, n):
        top, z = _shifted(V, log_weights, n)
        out = np.where(np.isfinite(out), out, top + _lse(z, overwrite=True) / n)
    return out


def _log_family(nu, n: int, name: str, space) -> FunctionalHandle:
    """L(F) = (1/n) log int e^{nF} dnu, by _log_rows, with its exact gradient.

    The gradient is the tilted measure p, proportional to e^{nF} nu; it
    takes the shifted form exactly where _log_rows does.  Zero weights drop
    out as -inf log weights.
    """
    log_weights, space = _coerce_measure(nu, space)

    def grad(values: np.ndarray) -> np.ndarray:
        z = _exponents(values, log_weights, n)
        lse = _lse(z)
        if _out_of_range(lse, n):
            z = _shifted(values, log_weights, n)[1]
            lse = _lse(z)
        return np.exp(z - lse)

    return FunctionalHandle(name, space, rows=lambda V: _log_rows(V, log_weights, n), claims_convex=True, gradient=grad)


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

    return FunctionalHandle("sup_form", I.space, rows=rows, claims_convex=True)


def ldp_term(mu, n: int, space: FiniteSpace | None = None) -> FunctionalHandle:
    """L(F) = (1/n) log int e^{nF} dmu, the nth term of an LDP sequence.

    At n = 1 this is log_integral(mu) exactly, bit for bit: both are built
    by one evaluator.  The exact gradient is the tilted measure p,
    proportional to e^{nF} mu.
    """
    n = _positive_int(n)
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

    return FunctionalHandle("tail_limsup", domain, rows=rows, claims_convex=True)


__all__ = [
    "FunctionalHandle",
    "TailDomain",
    "TailFunction",
    "log_integral",
    "sup_form",
    "ldp_term",
    "tail_limsup",
]
