"""Desk-scale large-deviations experiments on Bernoulli empirical means.

The Cramer instance is fully oracle-checkable: Binomial(n, p)/n measures
on the grid {k/n}, the analytic rate x log(x/p) + (1-x) log((1-x)/(1-p)),
and per-n functional values whose limit the lab extrapolates.  The
module does no file I/O; serialize reads measure-sequence files.

Weight construction is hybrid.  Log weights come from log-gamma and are
good deep into the tails; linear weights start at 1.0 at the mode, run
the pmf ratio outward as cumulative products and are divided by their
exactly rounded sum, which keeps the weight sum within a few ulp of 1 up
to n = 2^16, where pure log-gamma exponentiation does not.  That sum is
math.fsum's, bit for bit, at a fraction of its cost: an error-free
extraction splits the weights into a few floats with the same exact sum,
and fsum rounds those few.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .duality import sublevel_set
from .errors import InvalidP, InvariantViolation, ScheduleTooShort, ValidationError
from .functionals import _log_rows
from .space import FiniteSpace, ProbabilityMeasure, RateFunction, _as_float_array, _finite, _positive_int

REFERENCE_GRID = np.linspace(0.0, 1.0, 1025)
FIT_FRACTION = 0.5
FIT_RESIDUAL_TOL = 1e-3
FINAL_STEP_TOL = 1e-2


@dataclass(frozen=True)
class SequenceEntry:
    """One scale of the sequence: n, its grid space, and the measure."""

    n: int
    space: FiniteSpace
    measure: ProbabilityMeasure


@dataclass(frozen=True)
class MeasureSequence:
    """Measures mu_n indexed by strictly increasing n."""

    description: str
    entries: tuple[SequenceEntry, ...]

    def __post_init__(self):
        ns = [e.n for e in self.entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvariantViolation("entries must have strictly increasing n")
        if any(len(e.measure) != len(e.space) for e in self.entries):
            raise InvariantViolation("measure length must match its space")

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class LimitReport:
    """Per-n values, the a + b log(n)/n extrapolation, and its quality."""

    terms: tuple[tuple[int, float], ...]
    extrapolated: float
    converged: bool
    fit_slope: float


class GridFunction:
    """Piecewise-linear interpolant on [0, 1], the continuum test function.

    Callable on scalars or arrays; evaluation at grid atoms k/n is plain
    linear interpolation from the reference nodes.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, ys, xs=None):
        ys = _as_float_array(ys, "ys")
        xs = REFERENCE_GRID if xs is None else _as_float_array(xs, "xs")
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValidationError("grid function needs matching xs/ys, at least two nodes")
        if np.any(np.diff(xs) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValidationError("grid function nodes must be finite")
        self.xs = xs
        self.ys = ys

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)


def _valid_p(p) -> float:
    """float(p) for a real p strictly between 0 and 1 (bool refused); InvalidP otherwise."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 < p < 1.0:
        raise InvalidP(f"p must lie strictly between 0 and 1, got {p!r}")
    return float(p)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n; MemoryError, before anything is allocated, past numpy's largest array."""
    if n + 1 > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"n = {n} is too large: n + 1 floats exceed numpy's largest array")
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


def binomial_weights(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear weights and log-gamma log weights for Binomial(n, p).

    Returns (weights, log_weights) over k = 0..n.  The linear weights set
    1.0 at the mode, run the pmf ratio outward through both tails as
    cumulative products and are divided by their exactly rounded sum:
    error-free extraction to a few parts with the same exact sum, then
    math.fsum of the parts.
    """
    p = _valid_p(p)
    n = _positive_int(n)
    return _binomial_weights(n, p, _log_factorials(n))


def _binomial_weights(n: int, p: float, lf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """binomial_weights for valid n and p, with lf[k] = log k! for k = 0..n at least."""
    lf = lf[: n + 1]
    k = np.arange(n + 1)
    log_w = (
        lf[n]
        - lf
        - lf[::-1]
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )

    k0 = min(n, max(0, round(n * p)))
    ratio = p / (1.0 - p)
    w = np.empty(n + 1)
    w[k0] = 1.0
    i = k[k0:n]  # w[i + 1] / w[i] = (n - i) p / ((i + 1) (1 - p))
    w[k0 + 1 :] = np.cumprod((n - i) / (i + 1) * ratio)
    j = k[k0:0:-1]  # w[j - 1] / w[j] = j (1 - p) / ((n - j + 1) p)
    w[:k0] = np.cumprod(j / (n - j + 1) / ratio)[::-1]
    return w / _exact_sum(w), log_w


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x), bit for bit, for finite x far below the float maximum.

    Error-free extraction (Rump, Ogita & Oishi 2008): with sigma = 2^k >= (len + 2) max|x|,
    q = (sigma + x) - sigma, x - q and sum(q) in any order are exact, so the parts keep
    the exact sum of x and fsum rounds it to the same double."""
    x = x[x != 0]
    parts = []
    while x.size:
        sigma = math.ldexp(1.0, math.frexp(np.abs(x).max())[1] + (x.size + 1).bit_length())
        q = (sigma + x) - sigma
        parts.append(float(q.sum()))
        x = (x - q)[x != q]
    return math.fsum(parts)


def cramer_grid_space(n: int) -> FiniteSpace:
    coords = np.arange(n + 1) / n
    return FiniteSpace.from_line(coords)


def cramer_sequence(p: float, schedule) -> MeasureSequence:
    """Binomial(n, p)/n on the grid {k/n} for each n in the schedule."""
    p = _valid_p(p)
    ns = list(schedule)
    if not ns:
        raise ValidationError("schedule is empty")
    # an order fault outranks a bad n ([4, 0]); a non-real entry is refused as n
    if all(isinstance(n, numbers.Real) for n in ns) and any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvariantViolation("schedule must be strictly increasing")
    ns = [_positive_int(n) for n in ns]
    lf = _log_factorials(ns[-1])  # one table, sliced for every n
    entries = []
    for n in ns:
        w, log_w = _binomial_weights(n, p, lf)
        entries.append(
            SequenceEntry(
                n=n,
                space=cramer_grid_space(n),
                measure=ProbabilityMeasure(w, log_weights=log_w),
            )
        )
    return MeasureSequence(description=f"bernoulli(p={p!r}) empirical means", entries=tuple(entries))


def cramer_rate(p: float):
    """The analytic rate x log(x/p) + (1-x) log((1-x)/(1-p)), vectorized.

    Finite at the endpoints: I(0) = -log(1-p), I(1) = -log(p); +inf
    outside [0, 1], where no empirical mean lies, and nan at nan.
    """
    p = _valid_p(p)

    def rate(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(x > 0, x * (np.log(x) - math.log(p)), 0.0)
            right = np.where(x < 1, (1 - x) * (np.log1p(-x) - math.log1p(-p)), 0.0)
        return np.where((0 <= x) & (x <= 1), left + right, np.where(np.isnan(x), math.nan, math.inf))[()]

    return rate


def _atoms(entry: SequenceEntry) -> np.ndarray:
    """The entry's grid coordinates; a space without them has no place on [0, 1]."""
    coords = entry.space.coords
    if coords is None:
        raise ValidationError("continuum functions need a line space with coordinates")
    return coords


def ldp_value(entry: SequenceEntry, F) -> float:
    """(1/n) log int e^{nF} dmu_n: ldp_term's row formula on F at the atoms."""
    f_at_atoms = np.asarray(F(_atoms(entry)), dtype=float)
    return float(_log_rows(f_at_atoms, entry.measure.log_weights, entry.n))


def estimate_limit(seq: MeasureSequence, F) -> LimitReport:
    """Extrapolate the per-n values to n = infinity.

    Least-squares fit value(n) ~ a + b log(n)/n over the last half of the
    schedule; converged means the fit residual is below 1e-3 and the last
    two terms differ by at most 1e-2.
    """
    if len(seq) < 3:
        raise ScheduleTooShort("need at least three schedule entries to extrapolate")
    terms = [(e.n, ldp_value(e, F)) for e in seq.entries]
    count = max(2, math.ceil(len(terms) * FIT_FRACTION))
    tail = terms[-count:]
    ns = np.array([t[0] for t in tail], dtype=float)
    ys = np.array([t[1] for t in tail])
    design = np.column_stack([np.ones_like(ns), np.log(ns) / ns])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.max(np.abs(design @ coef - ys)))
    final_step = abs(terms[-1][1] - terms[-2][1])
    converged = residual <= FIT_RESIDUAL_TOL and final_step <= FINAL_STEP_TOL
    return LimitReport(
        terms=tuple((int(n), float(v)) for n, v in terms),
        extrapolated=float(coef[0]),
        converged=bool(converged),
        fit_slope=float(coef[1]),
    )


def empirical_rate(entry: SequenceEntry) -> RateFunction:
    """I_n(x) = -(1/n) log mu_n({x}), read off the stored log weights."""
    values = -entry.measure.log_weights / entry.n
    # float cancellation can leave a -1e-17 at near-certain atoms
    return RateFunction(np.maximum(values, 0.0), entry.space)


def empirical_rate_at(entry: SequenceEntry, x: float) -> float:
    """Empirical rate at the grid atom nearest to a finite x (ties toward the lower atom)."""
    i = int(np.argmin(np.abs(_atoms(entry) - _finite(x, "x"))))
    return float(empirical_rate(entry).values[i])


def tightness_scan(seq: MeasureSequence, a: float) -> tuple[tuple[int, float], ...]:
    """Diameter of {x : I_n(x) <= a} for every n in the sequence.

    The diagnostic is stabilization of the diameters under refinement, not
    compactness itself, which is automatic here.
    """
    if isinstance(a, bool) or not isinstance(a, numbers.Real) or not a > 0:  # refuses nan as well
        raise ValidationError("tightness threshold must be positive")
    out = []
    for entry in seq.entries:
        level = sublevel_set(empirical_rate(entry), a)
        out.append((entry.n, float(level.diameter)))
    return tuple(out)


__all__ = [
    "SequenceEntry",
    "MeasureSequence",
    "LimitReport",
    "GridFunction",
    "binomial_weights",
    "cramer_sequence",
    "cramer_grid_space",
    "cramer_rate",
    "ldp_value",
    "estimate_limit",
    "empirical_rate",
    "empirical_rate_at",
    "tightness_scan",
]
