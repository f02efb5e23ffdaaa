"""Measure-level conjugates: J from L and L back from J.

conjugate_J computes J(mu) = L(0) + sup_F (mu(F) - L(F)) by ascent over
function vectors with the translation gauge pinned.  Handles with an exact
Hessian (the log-integral family) get damped Newton steps on the pinned
subspace; the rest get Armijo gradient steps.  For the log-integral family
the conjugate is relative entropy, and kl_divergence / exponential_tilt
provide the closed forms the ascent is tested against.

recover_L_from_J goes the other way, L(F) = L0 + sup_mu (mu(F) - J(mu)),
by entropic mirror ascent on the probability simplex: multiplicative
weights keep iterates strictly interior, and a final snap pushes
sub-1e-7 mass back to the boundary.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleJ, SpaceMismatch, ValidationError
from .space import BoundedFunction, ProbabilityMeasure, _lse

EPS_INTERIOR = 1e-9
BOUNDARY_SNAP = 1e-7
_ARMIJO_C1 = 1e-4
_STEP_CEIL = 2.0**50
_STEP_FLOOR = 1e-20
_NEWTON_C1 = 0.25
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
    taken.  converged means the (projected) gradient's largest component
    fell to grad_tolerance or below at the returned point.  Every other
    stop reports converged = False rather than raising: running out of
    iterations, exhausting the line search, a step that does not strictly
    raise the value while the gradient is still above tolerance (the
    objective is flat to float precision there), or hitting the value cap.
    """

    value: float
    maximizer: object
    iterations: int
    converged: bool


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


def _pin(values: np.ndarray, mode: str) -> np.ndarray:
    if mode == "mean":
        return values - values.mean()
    if mode == "first":
        return values - values[0]
    raise ValidationError(f"unknown gauge pin {mode!r}")


def _fd_gradient_L(L, values: np.ndarray, h: float, space) -> np.ndarray:
    g = np.empty(len(values))
    for i in range(len(values)):
        up = values.copy()
        up[i] += h
        dn = values.copy()
        dn[i] -= h
        g[i] = (L.evaluate(space.function(up)) - L.evaluate(space.function(dn))) / (2 * h)
    return g


def _gradient_step(objective, values, val, g, step_init, pin):
    """Armijo backtracking along g, expanding while the value strictly climbs.

    Returns the accepted (values, value), or None once the step falls
    below the floor.
    """
    gg = float(g @ g)
    step = step_init
    trial_vals = _pin(values + step * g, pin)
    trial = objective(trial_vals)
    if trial >= val + _ARMIJO_C1 * step * gg:
        while step < _STEP_CEIL:
            wider = step * 2
            cand_vals = _pin(values + wider * g, pin)
            cand = objective(cand_vals)
            if cand >= val + _ARMIJO_C1 * wider * gg and cand > trial:
                step, trial_vals, trial = wider, cand_vals, cand
            else:
                break
        return trial_vals, trial
    while True:
        step /= 2
        if step < _STEP_FLOOR:
            return None
        trial_vals = _pin(values + step * g, pin)
        trial = objective(trial_vals)
        if trial >= val + _ARMIJO_C1 * step * gg:
            return trial_vals, trial


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Solve (H + 11^T/m) d = g, the Newton system on the mean-zero subspace.

    H is singular along the constants, which the rank-one term fixes.
    Returns None when a diagonal entry of H vanishes to float precision
    (a tilted-measure entry of zero): the system is singular there too.
    """
    diag = np.diag(H)
    if diag.min() <= np.finfo(float).eps * diag.max():
        return None
    return np.linalg.solve(H + 1.0 / len(g), g)


def _newton_step(objective, values, val, g, d, L0, pin):
    """Damped Newton: backtrack from the full step on the decrement g.d.

    A trial is accepted when it gains a fixed share of the decrement,
    less the objective's rounding error, so a step whose gain is below
    float resolution is still taken and the gradient decides.  Returns
    None once the step falls below the floor.
    """
    decrement = float(g @ d)
    # mu(F) and L(F) - L(0) are each at most max|F| in size for a
    # probability mu and a translation-equivariant, monotone L
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * (
        1.0 + abs(L0) + float(np.max(np.abs(values)))
    )
    step = 1.0
    while step >= _STEP_FLOOR:
        trial_vals = _pin(values + step * d, pin)
        trial = objective(trial_vals)
        if trial >= val + _NEWTON_C1 * step * decrement - rounding:
            return trial_vals, trial
        step /= 2
    return None


def conjugate_J(
    L,
    mu: ProbabilityMeasure,
    opts: AscentOptions | None = None,
    *,
    exact_gradient: bool = True,
    pin: str = "mean",
) -> ConjugateReport:
    """J(mu) = L(0) + sup_F (mu(F) - L(F)) by pinned ascent.

    The objective is translation-invariant, so each iterate is re-pinned
    (mean zero by default, first coordinate zero as the alternative gauge).
    The gradient is mu minus dL/dF; log-integral style handles expose that
    derivative exactly as the tilted measure, otherwise central finite
    differences step in with opts.finite_difference_h.

    With an exact gradient and a handle Hessian, each iteration takes a
    damped Newton step on the pinned subspace, backtracking on the Newton
    decrement.  Without them (exact_gradient=False, or a handle with no
    hessian), and wherever the Hessian is singular because the tilted
    measure has a zero entry, it takes an Armijo gradient step that
    expands while the value strictly climbs.

    The ascent stops with converged = True once max|g| <= grad_tolerance.
    It stops with converged = False when max_iters runs out, when the line
    search exhausts its step floor, when a step fails to raise the value
    strictly and the point reached is still not stationary, or when the
    value exceeds value_cap, which declares J(mu) = inf.
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
    hessian = L.hessian if use_exact else None
    w = mu.weights
    L0 = L.base_value

    def objective(values: np.ndarray) -> float:
        return float(w @ values) - L.evaluate(space.function(values)) + L0

    values = _pin(np.zeros(len(space)), pin)
    val = objective(values)
    converged = False
    stalled = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        if use_exact:
            gradL = L.gradient(values)
        else:
            gradL = _fd_gradient_L(L, values, opts.finite_difference_h, space)
        g = w - gradL
        converged = float(np.max(np.abs(g))) <= opts.grad_tolerance
        if converged or stalled:
            iterations -= 1  # this pass only measured the gradient
            break
        d = None if hessian is None else _newton_direction(hessian(values), g)
        if d is None:
            accepted = _gradient_step(objective, values, val, g, opts.step_init, pin)
        else:
            accepted = _newton_step(objective, values, val, g, d, L0, pin)
        if accepted is None:
            break  # line search exhausted; not converged
        stalled = not accepted[1] > val
        values, val = accepted
        if val > opts.value_cap:
            return ConjugateReport(
                value=float("inf"),
                maximizer=space.function(values),
                iterations=iterations,
                converged=False,
            )
    return ConjugateReport(
        value=float(val),
        maximizer=space.function(values),
        iterations=iterations,
        converged=converged,
    )


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

    Entropic mirror ascent: mu <- normalize(mu * exp(step * g)).  The
    convergence test is the KKT condition for the simplex: centered
    gradient components vanish on the support and are nonpositive off it.
    A step that does not strictly raise the value ends the ascent unless
    the point it reaches passes that test.  Raises InfeasibleJ when no
    probed start has finite J, and SpaceMismatch when J's feasible start
    and F differ in length.
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

    def full_value(w: np.ndarray) -> float:
        j = _eval_J(J, w)
        if not np.isfinite(j):
            return -float("inf")
        return float(L0) + float(w @ F_vals) - j

    val = full_value(weights)
    converged = False
    stalled = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        if grad_hook is not None:
            g = F_vals - grad_hook(weights)
        else:
            g = _tangent_objective_grad(
                J, F_vals, weights, _eval_J(J, weights), opts.finite_difference_h
            )
        centered = g - float(weights @ g)
        support = weights > BOUNDARY_SNAP
        viol = np.where(support, np.abs(centered), np.maximum(centered, 0.0))
        converged = float(viol.max()) <= opts.grad_tolerance
        if converged or stalled:
            iterations -= 1
            break
        step = opts.step_init
        accepted = False
        while step >= _STEP_FLOOR:
            z = np.log(weights) + step * g
            z -= z.max()
            trial = np.exp(z)
            trial = np.maximum(trial / trial.sum(), 1e-300)
            trial /= trial.sum()
            tval = full_value(trial)
            if np.isfinite(tval) and tval >= val - 1e-15:
                stalled = not tval > val
                weights, val = trial, tval
                accepted = True
                break
            step /= 2
        if not accepted:
            break
        if val - float(L0) > opts.value_cap:
            return ConjugateReport(
                value=float("inf"),
                maximizer=ProbabilityMeasure(weights),
                iterations=iterations,
                converged=False,
            )

    # snap dust back onto the boundary when J still accepts the result
    snapped = np.where(weights < BOUNDARY_SNAP, 0.0, weights)
    total = snapped.sum()
    if total > 0:
        snapped = snapped / total
        sval = full_value(snapped)
        if np.isfinite(sval):
            weights, val = snapped, sval
    return ConjugateReport(
        value=float(val),
        maximizer=ProbabilityMeasure(weights),
        iterations=iterations,
        converged=converged,
    )


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
