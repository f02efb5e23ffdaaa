"""Rate functions from functionals and back: the dual formula machinery.

The dual formula I(x) = L(0) + sup_F (F(x) - L(F)) is realized with the
one-parameter pit family: pits are 0 at x and -M elsewhere.  Translation
pins F(x) = 0 without loss, and monotonicity makes deeper pits dominate,
so -L(pit_{x,M}) climbs to the sup as M grows.  On a finite space that
limit is exact.

reconstruct is the reverse direction L0 + max(F - I), and the
representation gap between a functional and its own reconstruction
measures how far it sits from sup form: zero for maximal
sigma-continuous functionals, strictly positive otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .functionals import sup_form
from .space import BoundedFunction, FiniteSpace, RateFunction, _row_blocks

# values in (-1e-12, 0) coming out of the L(0) cancellation collapse to 0.0
# so RateFunction's nonnegativity accepts them
_NEGATIVE_CLAMP = 1e-12
# a point stops once its increment falls to STALL_TOLERANCE; I(x) is inf if
# it still grows DIVERGENCE_SLOPE per unit depth or more at the last depth
STALL_TOLERANCE = 1e-10
DIVERGENCE_SLOPE = 0.5
_DEFAULT_DEPTHS = tuple(float(2**k) for k in range(0, 41))


@dataclass(frozen=True)
class PitSchedule:
    """Pit depths, positive, finite and strictly increasing; 2**0..2**40 by default."""

    depths: tuple[float, ...] = None

    def __post_init__(self):
        try:
            depths = tuple(self.depths if self.depths is not None else _DEFAULT_DEPTHS)
        except TypeError:  # not iterable
            raise ValidationError("depths must be positive and finite") from None
        if not all(isinstance(d, numbers.Real) and not isinstance(d, bool) for d in depths):
            raise ValidationError("depths must be positive and finite")
        depths = tuple(float(d) for d in depths)
        # comparisons written as not (x > y) so that nan is refused too
        if not depths or not all(0 < d < math.inf for d in depths):
            raise ValidationError("depths must be positive and finite")
        if not all(b > a for a, b in zip(depths, depths[1:])):
            raise ValidationError("depths must be strictly increasing")
        object.__setattr__(self, "depths", depths)


@dataclass(frozen=True)
class PointConvergence:
    """How the pit limit went at one point."""

    point: str
    depth: float
    increment: float
    divergent: bool


@dataclass(frozen=True)
class DualReport:
    """Computed rate, the split-off L(0), and per-point convergence data."""

    rate: RateFunction
    base_value: float
    per_point_convergence: tuple[PointConvergence, ...]


def _dual_points(L, indices: np.ndarray, sched: PitSchedule) -> tuple[np.ndarray, list[PointConvergence]]:
    """The pit limit at a block of points, depth by depth.

    Each depth is one evaluate_many call over the points whose increment
    has not yet fallen to STALL_TOLERANCE; a point's numbers are those a
    pass over its own depths alone would give.  The pits, 0 at the point
    and -depth elsewhere (a tail domain's tail column included: only then
    does the limsup see them), are refilled into one buffer for the block.
    """
    depths = sched.depths
    k = len(indices)
    buffer = np.empty((k, L.space.row_width))

    def neg_pits(live: np.ndarray, d: float) -> np.ndarray:
        pits = buffer[: len(live)]
        pits.fill(-d)
        pits[np.arange(len(live)), indices[live]] = 0.0
        return -L.evaluate_many(pits)

    prev = neg_pits(np.arange(k), depths[0])
    depth = np.full(k, depths[0])
    increment = np.zeros(k)
    stalled = np.full(k, len(depths) == 1)
    for d in depths[1:]:
        live = np.flatnonzero(~stalled)
        if not len(live):
            break
        cur = neg_pits(live, d)
        inc = cur - prev[live]
        increment[live], depth[live], prev[live] = inc, d, cur
        stalled[live] = inc <= STALL_TOLERANCE
    divergent = np.zeros(k, dtype=bool)
    if len(depths) > 1:
        step = depths[-1] - depths[-2]
        divergent = ~stalled & (increment >= DIVERGENCE_SLOPE * step)
    values = L.base_value + prev
    values[(-_NEGATIVE_CLAMP < values) & (values < 0.0)] = 0.0
    values[divergent] = math.inf
    labels = L.space.point_ids
    convergence = [
        PointConvergence(labels[i], float(dp), float(inc), bool(div))
        for i, dp, inc, div in zip(indices, depth, increment, divergent)
    ]
    return values, convergence


def dual_rate(L, sched: PitSchedule | None = None) -> DualReport:
    """Apply the pit limit at every point and assemble the report.

    The transform works with L - L(0) internally, so base_value carries
    L(0) and the rate is exactly the dual of the normalized functional.
    Points go through in blocks of stacked pit rows.
    """
    sched = sched or PitSchedule()
    space = L.space
    values = np.empty(len(space))
    convergence = []
    for a, b in _row_blocks(len(space), space.row_width):
        values[a:b], conv = _dual_points(L, np.arange(a, b), sched)
        convergence.extend(conv)
    return DualReport(
        rate=RateFunction(values, space),
        base_value=float(L.base_value),
        per_point_convergence=tuple(convergence),
    )


def reconstruct(rate: RateFunction, L0: float, F: BoundedFunction) -> float:
    """L0 + max over points of (F - rate): sup_form(rate, L0) at F."""
    return sup_form(rate, L0).evaluate(F)


def representation_gap(L, F: BoundedFunction, *, dual: DualReport | None = None) -> float:
    """L(F) minus its own sup-form reconstruction; >= -1e-9 always.

    The rate is dual_rate(L) at the default depths, or dual when given:
    a precomputed DualReport amortizes the pit transform when probing
    many functions against one functional, and dual_rate(L, sched) gives
    other depths.
    """
    report = dual or dual_rate(L)
    return L.evaluate(F) - reconstruct(report.rate, report.base_value, F)


@dataclass(frozen=True)
class SublevelSet:
    """Points with rate <= a, plus their diameter under the space metric.

    labels are looked up in space only when read.
    """

    space: FiniteSpace
    indices: tuple[int, ...]
    diameter: float
    level: float

    @cached_property
    def labels(self) -> tuple[str, ...]:
        ids = self.space.point_ids
        return tuple(ids[i] for i in self.indices)


def sublevel_set(rate: RateFunction, a: float) -> SublevelSet:
    """The closed sublevel set {x : rate(x) <= a} with its diameter.

    Empty and singleton sets have diameter 0; the boundary rate = a is
    included.
    """
    if isinstance(a, bool) or not isinstance(a, numbers.Real) or not a > 0:  # refuses nan as well
        raise ValidationError("sublevel threshold must be positive")
    idx = np.nonzero(rate.values <= a)[0]
    return SublevelSet(
        space=rate.space,
        indices=tuple(idx.tolist()),
        diameter=rate.space.subset_diameter(idx),
        level=float(a),
    )


__all__ = [
    "PitSchedule",
    "DualReport",
    "SublevelSet",
    "dual_rate",
    "reconstruct",
    "representation_gap",
    "sublevel_set",
]
