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
from dataclasses import dataclass

import numpy as np

from .errors import AllInfiniteRate, ValidationError
from .space import BoundedFunction, RateFunction, _finite, _require_same_space, _row_blocks

# values in (-1e-12, 0) coming out of the L(0) cancellation collapse to 0.0
# so RateFunction's nonnegativity accepts them
_NEGATIVE_CLAMP = 1e-12


def _default_depths() -> tuple[float, ...]:
    return tuple(float(2**k) for k in range(0, 41))


@dataclass(frozen=True)
class PitSchedule:
    """Doubling depth schedule with stall and divergence detection knobs.

    stall_tolerance ends a point early once the increment drops below it;
    divergence_slope declares I(x) = inf when the value still grows at
    least that fast per unit depth at the final depth.
    """

    depths: tuple[float, ...] = None
    stall_tolerance: float = 1e-10
    divergence_slope: float = 0.5

    def __post_init__(self):
        depths = self.depths if self.depths is not None else _default_depths()
        depths = tuple(float(d) for d in depths)
        # comparisons written as not (x > y) so that nan is refused too
        if not depths or not all(0 < d < math.inf for d in depths):
            raise ValidationError("depths must be positive and finite")
        if not all(b > a for a, b in zip(depths, depths[1:])):
            raise ValidationError("depths must be strictly increasing")
        if not (self.stall_tolerance > 0 and self.divergence_slope > 0):
            raise ValidationError("tolerances must be positive")
        object.__setattr__(self, "depths", depths)

    def capped(self, cmax: float) -> "PitSchedule":
        """Restrict to depths <= 2**cmax."""
        cmax = float(cmax)
        # every finite depth is below 2**1024, a power too large to form
        cap = math.inf if cmax >= 1024 else 2.0**cmax
        kept = tuple(d for d in self.depths if d <= cap)
        if not kept:
            raise ValidationError("depth cap removes the whole schedule")
        return PitSchedule(kept, self.stall_tolerance, self.divergence_slope)


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


def _neg_pits(L, indices: np.ndarray, depths) -> np.ndarray:
    """-L(pit) for the pits 0 at indices[r] and -depths[r] (or one depth) elsewhere.

    A tail domain's pit drops to -depth in its tail column too: only then
    does the limsup see it.
    """
    width = L.space.row_width
    rows = np.empty((len(indices), width))
    rows[...] = -np.reshape(depths, (-1, 1))
    rows[np.arange(len(indices)), indices] = 0.0
    return -L.evaluate_many(rows)


def pit_values(L, index: int, sched: PitSchedule | None = None) -> list[float]:
    """The raw sequence -L(pit_{x,M}) over the whole schedule, no early exit.

    Diagnostic hook: for a Varadhan functional this sequence is
    nondecreasing, and tests assert exactly that.
    """
    sched = sched or PitSchedule()
    depths = np.array(sched.depths)
    out = []
    for a, b in _row_blocks(len(depths), L.space.row_width):
        out.extend(_neg_pits(L, np.full(b - a, index), depths[a:b]))
    return [float(v) for v in out]


def _dual_points(L, indices: np.ndarray, sched: PitSchedule) -> tuple[np.ndarray, list[PointConvergence]]:
    """The pit limit at a block of points, depth by depth.

    Each depth is one evaluate_many call over the points whose increment
    has not yet fallen to stall_tolerance; a point's numbers are those a
    pass over its own depths alone would give.
    """
    depths = sched.depths
    k = len(indices)
    prev = _neg_pits(L, indices, depths[0])
    depth = np.full(k, depths[0])
    increment = np.zeros(k)
    stalled = np.full(k, len(depths) == 1)
    for d in depths[1:]:
        live = np.flatnonzero(~stalled)
        if not len(live):
            break
        cur = _neg_pits(L, indices[live], d)
        inc = cur - prev[live]
        increment[live], depth[live], prev[live] = inc, d, cur
        stalled[live] = inc <= sched.stall_tolerance
    divergent = np.zeros(k, dtype=bool)
    if len(depths) > 1:
        step = depths[-1] - depths[-2]
        divergent = ~stalled & (increment >= sched.divergence_slope * step)
    values = L.base_value + prev
    values[(-_NEGATIVE_CLAMP < values) & (values < 0.0)] = 0.0
    values[divergent] = math.inf
    labels = L.space.point_ids
    convergence = [
        PointConvergence(labels[i], float(dp), float(inc), bool(div))
        for i, dp, inc, div in zip(indices, depth, increment, divergent)
    ]
    return values, convergence


def dual_rate_at(L, point, sched: PitSchedule | None = None) -> float:
    """Rate at one point: L(0) + lim over depths of -L(pit).

    Returns inf when the pit values keep climbing at the divergence slope
    through the final depth.  Single-point spaces give exactly 0.
    """
    sched = sched or PitSchedule()
    index = L.space.index_of(point)
    values, _ = _dual_points(L, np.array([index]), sched)
    return float(values[0])


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
    """L0 + max over points of (F - rate), infinite rate entries excluded."""
    finite = rate.finite_mask()
    if not finite.any():
        raise AllInfiniteRate("cannot reconstruct from an all-infinite rate")
    _require_same_space(F.space, rate.space)
    return _finite(L0, "L0") + float(np.max(F.values[finite] - rate.values[finite]))


def representation_gap(
    L,
    F: BoundedFunction,
    sched: PitSchedule | None = None,
    *,
    dual: DualReport | None = None,
) -> float:
    """L(F) minus its own sup-form reconstruction; >= -1e-9 always.

    Passing a precomputed DualReport amortizes the pit transform when
    probing many functions against one functional.
    """
    report = dual or dual_rate(L, sched)
    return L.evaluate(F) - reconstruct(report.rate, report.base_value, F)


@dataclass(frozen=True)
class SublevelSet:
    """Points with rate <= a, plus their diameter under the space metric."""

    labels: tuple[str, ...]
    indices: tuple[int, ...]
    diameter: float
    level: float


def sublevel_set(rate: RateFunction, a: float) -> SublevelSet:
    """The closed sublevel set {x : rate(x) <= a} with its diameter.

    Empty and singleton sets have diameter 0; the boundary rate = a is
    included.
    """
    if not a > 0:  # refuses nan as well
        raise ValidationError("sublevel threshold must be positive")
    idx = np.nonzero(rate.values <= a)[0]
    labels = tuple(rate.space.point_ids[int(i)] for i in idx)
    return SublevelSet(
        labels=labels,
        indices=tuple(int(i) for i in idx),
        diameter=rate.space.subset_diameter(idx),
        level=float(a),
    )


__all__ = [
    "PitSchedule",
    "PointConvergence",
    "DualReport",
    "SublevelSet",
    "pit_values",
    "dual_rate_at",
    "dual_rate",
    "reconstruct",
    "representation_gap",
    "sublevel_set",
]
