"""Measure-level conjugates: J from L and L back from J.

Both directions run one ascent skeleton, _ascend.  Each supplies its
objective, its gradient, its stationarity residual and a retraction; the
skeleton measures stationarity, takes a step from a secant first trial,
backtracks under one acceptance rule, and records why it stopped.

conjugate_J computes J(mu) = L(0) + sup_F (mu(F) - L(F)) over function
vectors with the translation gauge pinned.  Its direction log(mu/p) is
built from the gradient p = dL/dF alone, the log-ratio update of
generalized iterative scaling; for the log-integral family the step 1/n
along it lands on p = mu, so one step or a few halvings reach the sup.
For that family the conjugate is relative entropy, and kl_divergence
gives the closed form the ascent is tested against.  Each trial value
runs the handle's row function on the iterate itself, which by the row
contract of FunctionalHandle carries the bits of evaluate.

recover_L_from_J goes the other way, L(F) = L0 + sup_mu (mu(F) - J(mu)),
by entropic mirror ascent on the probability simplex from J's feasible
start (or the uniform measure): multiplicative weights keep iterates
strictly interior, and a final snap pushes sub-1e-7 mass back to the
boundary when that does not lower the value.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleJ, SpaceMismatch, ValidationError
from .space import BoundedFunction, ProbabilityMeasure, _finite, _row_blocks

EPS_INTERIOR = 1e-9
BOUNDARY_SNAP = 1e-7
ASCENT_TOL = 1e-8
STEP_INIT = 1.0
MAX_ITERS = 10000
VALUE_CAP = 1e6
FD_STEP = 1e-6
_EPS = float(np.finfo(float).eps)
_ARMIJO_C1 = 0.1
_STEP_FLOOR = 1e-20
_ROUNDING_ULPS = 16


@dataclass(frozen=True)
class ConjugateReport:
    """Outcome of one ascent.

    maximizer is a BoundedFunction for conjugate_J and a
    ProbabilityMeasure for recover_L_from_J.  iterations counts the steps
    taken.  stop_reason says why the ascent ended:

      stationary             the stationarity residual fell to tol
      stalled                a step did not strictly raise the value, and the
                             point it reached is not stationary (the objective
                             is flat to float precision there)
      line_search_exhausted  no step above the floor passed the acceptance rule
      max_iters              MAX_ITERS steps taken, the last point not stationary
      value_cap              the value passed VALUE_CAP or overflowed; value is inf

    converged is stop_reason == "stationary".  No stop raises.
    """

    value: float
    maximizer: object
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "stationary"


def kl_divergence(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> float:
    """Relative entropy sum mu log(mu/nu), with 0 log 0 = 0.

    Infinite exactly when mu puts mass where nu has none.
    """
    m = mu.weights
    v = nu.weights
    if len(m) != len(v):
        raise SpaceMismatch("measures have different lengths")
    support = m > 0
    if not support.all():  # a full support sums the same terms unmasked
        m, v = m[support], v[support]
    if (v == 0.0).any():
        return math.inf
    return float((m * (np.log(m) - np.log(v))).sum())


def _ascend(value, descent, retract, x, tol: float):
    """The one ascent loop; returns (x, value, iterations, stop_reason).

    value(x) is the objective.  descent(x) gives (residual, grad, d): the
    stationarity residual, the objective's gradient in the coordinates
    that retract moves, and the ascent direction.  retract(x, t, d) is the
    point reached by step t along d.

    The first trial step is STEP_INIT, then a secant (Barzilai-Borwein)
    step: the root of the slope along the last gradient, from its values
    at both ends of the last step.  A slope that did not fall reads as
    curvature at float resolution, so on a flat ray the step grows by
    1/eps.  A trial is accepted when it gains a fixed share of its slope,
    less the value's rounding error, so a step whose gain is below float
    resolution is still taken and the residual decides.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:  # nan too
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    val = value(x)
    last = None  # (step, gradient) of the last step
    stalled = False
    iterations = 0
    while True:
        residual, grad, d = descent(x)
        if residual <= tol:
            return x, val, iterations, "stationary"
        if stalled:
            return x, val, iterations, "stalled"
        if iterations == MAX_ITERS:
            return x, val, iterations, "max_iters"
        slope = float(grad @ d)
        step = STEP_INIT
        if last is not None:
            t0, g0 = last
            s0 = float(g0 @ g0)
            if s0 > 0:
                step = t0 * s0 / max(s0 - float(grad @ g0), _EPS * s0)
        rounding = _ROUNDING_ULPS * _EPS * (1.0 + abs(val) + float(abs(x).max()))
        while True:
            trial_x = retract(x, step, d)
            trial = value(trial_x)
            if trial >= val + _ARMIJO_C1 * step * slope - rounding:
                break
            step /= 2
            if step < _STEP_FLOOR:
                return x, val, iterations, "line_search_exhausted"
        iterations += 1
        if trial > VALUE_CAP or trial == math.inf:
            # an overflowed trial is no point to report: keep the last one
            return (trial_x if trial < math.inf else x), math.inf, iterations, "value_cap"
        stalled = not trial > val
        last = (step, grad)
        x, val = trial_x, trial


def _fd_gradient(L, values: np.ndarray) -> np.ndarray:
    """Central differences of L at values, step FD_STEP.

    The 2m probes values +- FD_STEP e_i are stacked in row blocks, one
    evaluate_many call per block, so a large m never holds all of them.
    Each slope carries the bits of the per-coordinate form through
    evaluate, by the row contract of FunctionalHandle.
    """
    m = len(values)
    g = np.empty(m)
    for a, b in _row_blocks(m, 2 * m):
        k = b - a
        probes = np.tile(values, (2 * k, 1))
        i = np.arange(k)
        probes[i, a + i] += FD_STEP
        probes[k + i, a + i] -= FD_STEP
        lv = L.evaluate_many(probes)
        g[a:b] = (lv[:k] - lv[k:]) / (2 * FD_STEP)
    return g


def conjugate_J(
    L,
    mu: ProbabilityMeasure,
    *,
    tol: float = ASCENT_TOL,
    exact_gradient: bool = True,
) -> ConjugateReport:
    """J(mu) = L(0) + sup_F (mu(F) - L(F)) by pinned ascent.

    The objective is translation-invariant, so each iterate is pinned to
    mean zero.  Its gradient is mu - p with p = dL/dF; log-integral style
    handles expose p exactly as the tilted measure, otherwise central
    finite differences step in with FD_STEP.  It stops at max|mu - p| <=
    tol; a tol not positive and finite, or a tail domain (rows that are
    not its points), is a ValidationError.

    The direction is log(mu/p), mu and p floored at float eps.  Its slope
    sum (mu - p) log(mu/p) is positive unless mu = p, so it ascends for
    any handle.  For L(F) = (1/n) log int e^{nF} dnu the tilt moves to
    p (mu/p)^{nt} at step t, so t = 1/n is exact: the first trial
    STEP_INIT at n = 1, one of its halvings at n = 2, 4, 8.  Where p is
    zero under mass of mu, the direction keeps the steep (mu - p)/eps,
    and a value beyond VALUE_CAP declares J(mu) = inf.
    """
    if not L.claims_convex:
        warnings.warn(
            f"handle {L.name!r} does not claim convexity; "
            "the conjugate is still defined but duality may not close",
            stacklevel=2,
        )
    space = L.space
    if space.row_width != len(space):
        raise ValidationError("conjugate_J needs a space whose function rows are its points")
    if len(mu) != len(space):
        raise SpaceMismatch("measure does not match the functional's space")
    use_exact = exact_gradient and L.gradient is not None
    w = mu.weights
    L0 = L.base_value
    rows = L._rows

    def objective(values: np.ndarray) -> float:
        if not np.isfinite(values).all():
            return math.inf  # the step left the float range: the value is unbounded
        return float(w @ values) - float(rows(values)) + L0

    def descent(values: np.ndarray):
        p = L.gradient(values) if use_exact else _fd_gradient(L, values)
        g = w - p
        floored = np.maximum(p, _EPS)
        # log(mu/p), but a point outside p's support keeps the steep (mu - p)/eps
        d = np.where((p == 0) & (w > 0), g / floored, np.log(np.maximum(w, _EPS) / floored))
        return float(abs(g).max()), g, d

    def retract(values: np.ndarray, step: float, d: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            moved = values + step * d
            return moved - moved.sum() / len(moved)  # the bits of moved.mean()

    values, val, iterations, reason = _ascend(objective, descent, retract, np.zeros(len(space)), tol)
    return ConjugateReport(val, space.function(values), iterations, reason)


class MeasureFunctional:
    """A rate over measures: J maps ProbabilityMeasure to [0, inf].

    gradient, when given, maps interior weight vectors to dJ/dmu.
    feasible_start supplies a measure with finite J for ascent
    initialization; without it, recover_L_from_J starts at the uniform
    measure.
    """

    __slots__ = ("name", "_rate", "gradient", "feasible_start")

    def __init__(self, name, fn, gradient=None, feasible_start=None):
        self.name = name
        self._rate = fn
        self.gradient = gradient
        self.feasible_start = feasible_start

    def __call__(self, mu: ProbabilityMeasure) -> float:
        return float(self._rate(mu))

    def __repr__(self):
        return f"MeasureFunctional({self.name!r})"


def kl_functional(nu: ProbabilityMeasure) -> MeasureFunctional:
    """J(mu) = KL(mu || nu) with its exact interior gradient log(mu/nu) + 1."""
    log_nu = nu.log_weights

    def grad(weights: np.ndarray) -> np.ndarray:
        # nan where both weights are 0: recover_L_from_J ascends on the support then
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(weights) - log_nu + 1.0

    return MeasureFunctional(
        "kl",
        lambda mu: kl_divergence(mu, nu),
        gradient=grad,
        feasible_start=nu,
    )


def _tangent_objective_grad(objective, weights, base):
    """FD supergradient of objective along simplex exchange directions.

    base is objective(weights).  Direction i trades mass between
    coordinate i and the last coordinate.  Blocked directions (both probes
    infeasible or infinite) contribute 0; half-blocked ones get a one-sided
    slope clipped toward feasibility.
    """
    m, h = len(weights), FD_STEP
    g = np.zeros(m)
    for i in range(m - 1):
        up = weights.copy()
        up[i] += h
        up[m - 1] -= h
        dn = weights.copy()
        dn[i] -= h
        dn[m - 1] += h
        fu, fd = objective(up), objective(dn)
        if np.isfinite(fu) and np.isfinite(fd):
            g[i] = (fu - fd) / (2 * h)
        elif np.isfinite(fu):
            g[i] = max((fu - base) / h, 0.0)
        elif np.isfinite(fd):
            g[i] = min((base - fd) / h, 0.0)
        # both blocked: leave 0
    return g


def recover_L_from_J(
    J,
    L0: float,
    F: BoundedFunction,
    *,
    tol: float = ASCENT_TOL,
    exact_gradient: bool = True,
) -> ConjugateReport:
    """L(F) = L0 + sup_mu (mu(F) - J(mu)) over the probability simplex.

    Entropic mirror ascent in the shared skeleton: the retraction is
    mu <- normalize(mu * exp(step * g)), with g the gradient of
    mu(F) - J(mu).  The stationarity residual is the KKT condition for
    the simplex: centered gradient components vanish on the support and
    are nonpositive off it; the ascent stops once they are within tol.

    The start is J's feasible_start, or the uniform measure when J gives
    none, floored at EPS_INTERIOR and renormalized.  Where J is infinite
    there, the ascent runs on the start's support, whose zeros stay zero;
    where J is infinite on that too, it raises InfeasibleJ.  Mass below
    BOUNDARY_SNAP is snapped to zero at the end unless that lowers the
    value by more than the ascent's rounding allowance.  SpaceMismatch
    when J's feasible start and F differ in length; a non-finite L0 or a
    tol not positive and finite is a ValidationError.
    """
    L0 = _finite(L0, "L0")
    F_vals = F.values
    m = len(F_vals)
    on = slice(None)  # the coordinates the ascent moves: all, or the start's support

    def lift(w: np.ndarray) -> np.ndarray:  # the measure's weights, zero off the support
        if len(w) == m:
            return w
        full = np.zeros(m)
        full[on] = w
        return full

    def objective(w: np.ndarray) -> float:
        if (w < 0).any():
            return -math.inf
        w = lift(w)
        j = float(J(ProbabilityMeasure(w / w.sum())))
        return float(w @ F_vals) - j if math.isfinite(j) else -math.inf

    start = getattr(J, "feasible_start", None)
    start = np.full(m, 1.0 / m) if start is None else start.weights
    if len(start) != m:
        raise SpaceMismatch("feasible start and function have different lengths")
    weights = np.maximum(start, EPS_INTERIOR)
    weights = weights / weights.sum()
    if objective(weights) == -math.inf:
        # the floored start charges a point where J is infinite: ascend on the start's support
        on = start > 0
        weights = start[on] / start[on].sum()
        if objective(weights) == -math.inf:
            raise InfeasibleJ("no probed measure has finite J")

    grad_hook = getattr(J, "gradient", None) if exact_gradient else None

    def descent(w: np.ndarray):
        if grad_hook is not None:
            g = (F_vals - grad_hook(lift(w)))[on]
        else:
            g = _tangent_objective_grad(objective, w, objective(w))
        centered = g - float(w @ g)
        viol = np.where(w > BOUNDARY_SNAP, np.abs(centered), np.maximum(centered, 0.0))
        # the mirror step moves log-weights along g, where the gradient is w * centered
        return float(viol.max()), w * centered, g

    def retract(w: np.ndarray, step: float, g: np.ndarray) -> np.ndarray:
        z = np.log(w) + step * g
        z -= z.max()
        trial = np.exp(z)
        trial = np.maximum(trial / trial.sum(), 1e-300)
        return trial / trial.sum()

    weights, val, iterations, reason = _ascend(objective, descent, retract, weights, tol)
    if reason != "value_cap":
        # snap dust back onto the boundary unless that lowers the value
        # beyond the ascent's own rounding allowance
        snapped = np.where(weights < BOUNDARY_SNAP, 0.0, weights)
        total = snapped.sum()
        if total > 0:
            snapped = snapped / total
            sval = objective(snapped)
            if sval >= val - _ROUNDING_ULPS * _EPS * (1.0 + abs(val)):
                weights, val = snapped, sval
    return ConjugateReport(L0 + val, ProbabilityMeasure(lift(weights)), iterations, reason)


__all__ = [
    "ConjugateReport",
    "MeasureFunctional",
    "conjugate_J",
    "kl_divergence",
    "kl_functional",
    "recover_L_from_J",
]
