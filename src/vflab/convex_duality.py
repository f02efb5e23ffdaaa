"""Measure-level conjugates: J from L and L back from J.

Both directions run one ascent skeleton, _ascend.  Each supplies its
objective, its gradient, its stationarity residual and a retraction; the
skeleton measures stationarity, takes a step from a secant first trial,
backtracks under one acceptance rule, and records why it stopped.

conjugate_J computes J(mu) = L(0) + sup_F (mu(F) - L(F)) over function
vectors with the translation gauge pinned.  Its direction (mu - p)/p is
built from the gradient p = dL/dF alone; for the log-integral family,
(1/n) times it is the pinned Newton step, and the secant finds that 1/n.
For that family the conjugate is relative entropy, and kl_divergence /
exponential_tilt provide the closed forms the ascent is tested against.

recover_L_from_J goes the other way, L(F) = L0 + sup_mu (mu(F) - J(mu)),
by entropic mirror ascent on the probability simplex: multiplicative
weights keep iterates strictly interior, and a final snap pushes
sub-1e-7 mass back to the boundary.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleJ, SpaceMismatch, ValidationError
from .space import BoundedFunction, ProbabilityMeasure, _lse

EPS_INTERIOR = 1e-9
BOUNDARY_SNAP = 1e-7
_EPS = float(np.finfo(float).eps)
_ARMIJO_C1 = 0.1
_STEP_FLOOR = 1e-20
_ROUNDING_ULPS = 16


@dataclass(frozen=True)
class AscentOptions:
    """Shared knobs for both ascent directions."""

    step_init: float = 1.0
    max_iters: int = 10000
    grad_tolerance: float = 1e-8
    value_cap: float = 1e6
    finite_difference_h: float = 1e-6

    def __post_init__(self):
        # written as not (x > 0) so that nan is refused too; value_cap may be inf
        if not all(
            x > 0 for x in (self.step_init, self.grad_tolerance, self.value_cap, self.finite_difference_h)
        ):
            raise ValidationError("ascent options must be positive")
        if not np.isfinite([self.step_init, self.grad_tolerance, self.finite_difference_h]).all():
            raise ValidationError("step_init, grad_tolerance and finite_difference_h must be finite")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")


@dataclass(frozen=True)
class ConjugateReport:
    """Outcome of one ascent.

    maximizer is a BoundedFunction for conjugate_J and a
    ProbabilityMeasure for recover_L_from_J.  iterations counts the steps
    taken.  stop_reason says why the ascent ended:

      stationary             the stationarity residual fell to grad_tolerance
      stalled                a step did not strictly raise the value, and the
                             point it reached is not stationary (the objective
                             is flat to float precision there)
      line_search_exhausted  no step above the floor passed the acceptance rule
      max_iters              max_iters steps taken, the last point not stationary
      value_cap              the value passed value_cap or overflowed; value is inf

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
    if np.any(v[support] == 0.0):
        return float("inf")
    terms = m[support] * (np.log(m[support]) - np.log(v[support]))
    return float(terms.sum())


def exponential_tilt(nu: ProbabilityMeasure, F: BoundedFunction) -> ProbabilityMeasure:
    """The measure proportional to e^F dnu, normalized in the log domain."""
    if len(nu) != len(F.values):
        raise SpaceMismatch("measure and function have different lengths")
    z = nu.log_weights + F.values
    z = z - _lse(z)
    w = np.exp(z)
    return ProbabilityMeasure(w / w.sum(), log_weights=z)


def _ascend(value, descent, retract, x, opts: AscentOptions):
    """The one ascent loop; returns (x, value, iterations, stop_reason).

    value(x) is the objective.  descent(x) gives (residual, grad, d): the
    stationarity residual, the objective's gradient in the coordinates
    that retract moves, and the ascent direction.  retract(x, t, d) is the
    point reached by step t along d.

    The first trial step is step_init, then a secant (Barzilai-Borwein)
    step: the root of the slope along the last gradient, from its values
    at both ends of the last step.  A slope that did not fall reads as
    curvature at float resolution, so on a flat ray the step grows by
    1/eps.  A trial is accepted when it gains a fixed share of its slope,
    less the value's rounding error, so a step whose gain is below float
    resolution is still taken and the residual decides.
    """
    val = value(x)
    last = None  # (step, gradient) of the last step
    stalled = False
    iterations = 0
    while True:
        residual, grad, d = descent(x)
        if residual <= opts.grad_tolerance:
            return x, val, iterations, "stationary"
        if stalled:
            return x, val, iterations, "stalled"
        if iterations == opts.max_iters:
            return x, val, iterations, "max_iters"
        slope = float(grad @ d)
        step = opts.step_init
        if last is not None:
            t0, g0 = last
            s0 = float(g0 @ g0)
            if s0 > 0:
                step = t0 * s0 / max(s0 - float(grad @ g0), _EPS * s0)
        rounding = _ROUNDING_ULPS * _EPS * (1.0 + abs(val) + float(np.max(np.abs(x))))
        while True:
            trial_x = retract(x, step, d)
            trial = value(trial_x)
            if trial >= val + _ARMIJO_C1 * step * slope - rounding:
                break
            step /= 2
            if step < _STEP_FLOOR:
                return x, val, iterations, "line_search_exhausted"
        iterations += 1
        if trial > opts.value_cap or trial == math.inf:
            # an overflowed trial is no point to report: keep the last one
            return (trial_x if trial < math.inf else x), math.inf, iterations, "value_cap"
        stalled = not trial > val
        last = (step, grad)
        x, val = trial_x, trial


def _fd_gradient_L(L, values: np.ndarray, h: float, space) -> np.ndarray:
    g = np.empty(len(values))
    for i in range(len(values)):
        up = values.copy()
        up[i] += h
        dn = values.copy()
        dn[i] -= h
        g[i] = (L.evaluate(space.function(up)) - L.evaluate(space.function(dn))) / (2 * h)
    return g


def conjugate_J(
    L,
    mu: ProbabilityMeasure,
    opts: AscentOptions | None = None,
    *,
    exact_gradient: bool = True,
) -> ConjugateReport:
    """J(mu) = L(0) + sup_F (mu(F) - L(F)) by pinned ascent.

    The objective is translation-invariant, so each iterate is pinned to
    mean zero.  Its gradient is mu - p with p = dL/dF; log-integral style
    handles expose p exactly as the tilted measure, otherwise central
    finite differences step in with opts.finite_difference_h.

    The direction is (mu - p)/p, with p floored at float eps.  For
    L(F) = (1/n) log int e^{nF} dnu the Hessian is n (diag p - p p^T), so
    the pinned Newton step is this direction times 1/n; the secant first
    trial of the shared skeleton finds that scale without a Hessian.
    Where p has a zero entry under mass of mu, the floored direction
    climbs steeply, and a value beyond value_cap declares J(mu) = inf.
    """
    opts = opts or AscentOptions()
    if not L.claims_convex:
        warnings.warn(
            f"handle {L.name!r} does not claim convexity; "
            "the conjugate is still defined but duality may not close",
            stacklevel=2,
        )
    space = L.space
    if len(mu) != len(space):
        raise SpaceMismatch("measure does not match the functional's space")
    use_exact = exact_gradient and L.gradient is not None
    w = mu.weights
    L0 = L.base_value

    def objective(values: np.ndarray) -> float:
        if not np.isfinite(values).all():
            return math.inf  # the step left the float range: the value is unbounded
        return float(w @ values) - L.evaluate(space.function(values)) + L0

    def descent(values: np.ndarray):
        if use_exact:
            p = L.gradient(values)
        else:
            p = _fd_gradient_L(L, values, opts.finite_difference_h, space)
        g = w - p
        return float(np.max(np.abs(g))), g, g / np.maximum(p, _EPS)

    def retract(values: np.ndarray, step: float, d: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            moved = values + step * d
            return moved - moved.mean()

    values, val, iterations, reason = _ascend(objective, descent, retract, np.zeros(len(space)), opts)
    return ConjugateReport(val, space.function(values), iterations, reason)


class MeasureFunctional:
    """A rate over measures: J maps ProbabilityMeasure to [0, inf].

    gradient, when given, maps interior weight vectors to dJ/dmu.
    feasible_start supplies a measure with finite J for ascent
    initialization; without it, recover_L_from_J probes the uniform
    measure and the corners.
    """

    __slots__ = ("name", "_fn", "gradient", "feasible_start")

    def __init__(self, name, fn, gradient=None, feasible_start=None):
        self.name = name
        self._fn = fn
        self.gradient = gradient
        self.feasible_start = feasible_start

    def __call__(self, mu: ProbabilityMeasure) -> float:
        return float(self._fn(mu))

    def __repr__(self):
        return f"MeasureFunctional({self.name!r})"


def kl_functional(nu: ProbabilityMeasure) -> MeasureFunctional:
    """J(mu) = KL(mu || nu) with its exact interior gradient log(mu/nu) + 1."""
    log_nu = nu.log_weights

    def grad(weights: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(weights) - log_nu + 1.0

    return MeasureFunctional(
        "kl",
        lambda mu: kl_divergence(mu, nu),
        gradient=grad,
        feasible_start=nu,
    )


def dirac_functional(mu0: ProbabilityMeasure, atol: float = 1e-7) -> MeasureFunctional:
    """J = 0 at mu0 (within atol in sup norm), inf elsewhere.

    atol sits between the interior-initialization shift (~1e-9 per
    coordinate) and the finite-difference step 1e-6, so the start is
    feasible while every probe direction is blocked; the ascent then stays
    put and reports <mu0, F> + L0.
    """
    anchor = mu0.weights

    def fn(mu: ProbabilityMeasure) -> float:
        return 0.0 if float(np.max(np.abs(mu.weights - anchor))) <= atol else float("inf")

    return MeasureFunctional("dirac", fn, feasible_start=mu0)


def _eval_J(J, weights: np.ndarray) -> float:
    if np.any(weights < 0):
        return float("inf")
    total = weights.sum()
    return float(J(ProbabilityMeasure(weights / total)))


def _tangent_objective_grad(J, F_vals, weights, base, h):
    """FD supergradient of mu(F) - J(mu) along simplex exchange directions.

    Direction i trades mass between coordinate i and the last coordinate.
    Blocked directions (both probes infeasible or infinite) contribute 0;
    half-blocked ones get a one-sided slope clipped toward feasibility.
    """
    m = len(weights)
    g = np.zeros(m)

    def obj(w):
        val = _eval_J(J, w)
        return float(w @ F_vals) - val if np.isfinite(val) else -float("inf")

    obj_base = float(weights @ F_vals) - base
    for i in range(m - 1):
        up = weights.copy()
        up[i] += h
        up[m - 1] -= h
        dn = weights.copy()
        dn[i] -= h
        dn[m - 1] += h
        fu = obj(up) if up[m - 1] >= 0 else -float("inf")
        fd = obj(dn) if dn[i] >= 0 else -float("inf")
        if np.isfinite(fu) and np.isfinite(fd):
            g[i] = (fu - fd) / (2 * h)
        elif np.isfinite(fu):
            g[i] = max((fu - obj_base) / h, 0.0)
        elif np.isfinite(fd):
            g[i] = min((obj_base - fd) / h, 0.0)
        # both blocked: leave 0
    return g


def recover_L_from_J(
    J,
    L0: float,
    F: BoundedFunction,
    opts: AscentOptions | None = None,
    *,
    exact_gradient: bool = True,
) -> ConjugateReport:
    """L(F) = L0 + sup_mu (mu(F) - J(mu)) over the probability simplex.

    Entropic mirror ascent in the shared skeleton: the retraction is
    mu <- normalize(mu * exp(step * g)), with g the gradient of
    mu(F) - J(mu).  The stationarity residual is the KKT condition for
    the simplex: centered gradient components vanish on the support and
    are nonpositive off it.  Raises InfeasibleJ when no probed start has
    finite J, and SpaceMismatch when J's feasible start and F differ in
    length.
    """
    opts = opts or AscentOptions()
    F_vals = F.values
    m = len(F_vals)

    candidates = []
    start_hint = getattr(J, "feasible_start", None)
    if start_hint is not None:
        if len(start_hint.weights) != m:
            raise SpaceMismatch("feasible start and function have different lengths")
        candidates.append(np.asarray(start_hint.weights, dtype=float))
    candidates.append(np.full(m, 1.0 / m))
    # corners one at a time: the ascent usually starts at an earlier candidate
    corners = (np.eye(1, m, i)[0] for i in range(m))
    weights = None
    for cand in itertools.chain(candidates, corners):
        interior = np.maximum(cand, EPS_INTERIOR)
        interior = interior / interior.sum()
        if np.isfinite(_eval_J(J, interior)):
            weights = interior
            break
    if weights is None:
        raise InfeasibleJ("no probed measure has finite J")

    grad_hook = getattr(J, "gradient", None) if exact_gradient else None

    def objective(w: np.ndarray) -> float:
        j = _eval_J(J, w)
        return float(w @ F_vals) - j if np.isfinite(j) else -math.inf

    def descent(w: np.ndarray):
        if grad_hook is not None:
            g = F_vals - grad_hook(w)
        else:
            g = _tangent_objective_grad(J, F_vals, w, _eval_J(J, w), opts.finite_difference_h)
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

    weights, val, iterations, reason = _ascend(objective, descent, retract, weights, opts)
    if reason != "value_cap":
        # snap dust back onto the boundary when J still accepts the result
        snapped = np.where(weights < BOUNDARY_SNAP, 0.0, weights)
        total = snapped.sum()
        if total > 0:
            snapped = snapped / total
            sval = objective(snapped)
            if np.isfinite(sval):
                weights, val = snapped, sval
    return ConjugateReport(float(L0) + val, ProbabilityMeasure(weights), iterations, reason)


__all__ = [
    "AscentOptions",
    "ConjugateReport",
    "MeasureFunctional",
    "conjugate_J",
    "kl_divergence",
    "exponential_tilt",
    "kl_functional",
    "dirac_functional",
    "recover_L_from_J",
]
