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
from .space import BoundedFunction, ProbabilityMeasure, _finite, _lse, _row_blocks

EPS_INTERIOR = 1e-9
BOUNDARY_SNAP = 1e-7
ASCENT_TOL = 1e-8
STEP_INIT = 1.0
MAX_ITERS = 10000
VALUE_CAP = 1e6
FD_STEP = 1e-6
# dirac_functional's tolerance sits between the interior shift EPS_INTERIOR
# and FD_STEP: the ascent's start is feasible, every FD probe is blocked
DIRAC_ATOL = 1e-7
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
    if not 0 < tol < math.inf:  # refuses nan as well
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

    The direction is (mu - p)/p, with p floored at float eps.  For
    L(F) = (1/n) log int e^{nF} dnu the Hessian is n (diag p - p p^T), so
    the pinned Newton step is this direction times 1/n; the secant first
    trial of the shared skeleton finds that scale without a Hessian.
    Where p has a zero entry under mass of mu, the floored direction
    climbs steeply, and a value beyond VALUE_CAP declares J(mu) = inf.
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

    def objective(values: np.ndarray) -> float:
        if not np.isfinite(values).all():
            return math.inf  # the step left the float range: the value is unbounded
        return float(w @ values) - L.evaluate(space.function(values)) + L0

    def descent(values: np.ndarray):
        p = L.gradient(values) if use_exact else _fd_gradient(L, values)
        g = w - p
        return float(np.max(np.abs(g))), g, g / np.maximum(p, _EPS)

    def retract(values: np.ndarray, step: float, d: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            moved = values + step * d
            return moved - moved.mean()

    values, val, iterations, reason = _ascend(objective, descent, retract, np.zeros(len(space)), tol)
    return ConjugateReport(val, space.function(values), iterations, reason)


class MeasureFunctional:
    """A rate over measures: J maps ProbabilityMeasure to [0, inf].

    gradient, when given, maps interior weight vectors to dJ/dmu.
    feasible_start supplies a measure with finite J for ascent
    initialization; without it, recover_L_from_J probes the uniform
    measure and the corners.
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
        with np.errstate(divide="ignore"):
            return np.log(weights) - log_nu + 1.0

    return MeasureFunctional(
        "kl",
        lambda mu: kl_divergence(mu, nu),
        gradient=grad,
        feasible_start=nu,
    )


def dirac_functional(mu0: ProbabilityMeasure) -> MeasureFunctional:
    """J = 0 at mu0 (within DIRAC_ATOL in sup norm), inf elsewhere.

    The ascent starts at mu0, every probe direction is blocked, and it
    stays put and reports <mu0, F> + L0.
    """
    anchor = mu0.weights

    def fn(mu: ProbabilityMeasure) -> float:
        return 0.0 if float(np.max(np.abs(mu.weights - anchor))) <= DIRAC_ATOL else float("inf")

    return MeasureFunctional("dirac", fn, feasible_start=mu0)


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
    Raises InfeasibleJ when no probed start has finite J, and
    SpaceMismatch when J's feasible start and F differ in length; a
    non-finite L0 or a tol not positive and finite is a ValidationError.
    """
    L0 = _finite(L0, "L0")
    F_vals = F.values
    m = len(F_vals)

    def objective(w: np.ndarray) -> float:
        if np.any(w < 0):
            return -math.inf
        j = float(J(ProbabilityMeasure(w / w.sum())))
        return float(w @ F_vals) - j if np.isfinite(j) else -math.inf

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
        if objective(interior) > -math.inf:
            weights = interior
            break
    if weights is None:
        raise InfeasibleJ("no probed measure has finite J")

    grad_hook = getattr(J, "gradient", None) if exact_gradient else None

    def descent(w: np.ndarray):
        if grad_hook is not None:
            g = F_vals - grad_hook(w)
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
        # snap dust back onto the boundary when J still accepts the result
        snapped = np.where(weights < BOUNDARY_SNAP, 0.0, weights)
        total = snapped.sum()
        if total > 0:
            snapped = snapped / total
            sval = objective(snapped)
            if np.isfinite(sval):
                weights, val = snapped, sval
    return ConjugateReport(L0 + val, ProbabilityMeasure(weights), iterations, reason)


__all__ = [
    "ConjugateReport",
    "MeasureFunctional",
    "conjugate_J",
    "kl_divergence",
    "exponential_tilt",
    "kl_functional",
    "dirac_functional",
    "recover_L_from_J",
]
