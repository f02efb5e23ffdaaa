"""Randomized, seeded certification of the defining properties.

Each check samples inputs from per-trial derived generators (seed + trial
index), so reports are bit-identical for a given seed and trials may in
principle run in any order.  Violations are data, not errors: a check
returns a CheckReport whose witness, re-evaluated standalone, reproduces
the worst violation.

Conventions shared by all checks: function entries are drawn i.i.d.
uniform [-5, 5], monotone perturbations uniform [0, 5], translation
constants uniform [-10, 10].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionFailed, SequenceNotVanishing, ValidationError
from .space import DecreasingSequence, validate_decreasing

DEFAULT_TOL = 1e-9
_RESIDUAL_GATE = 1e-6
# Varadhan functionals are 1-Lipschitz in sup norm; the sigma check uses
# that constant to discount the residual of a not-quite-zero last term
_LIPSCHITZ_CONSTANT = 1.0

FUNCTION_LOW, FUNCTION_HIGH = -5.0, 5.0
PERTURB_LOW, PERTURB_HIGH = 0.0, 5.0
CONST_LOW, CONST_HIGH = -10.0, 10.0
_INTERPOLATION_THETAS = (0.5, 0.25, 0.125)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property check.

    violations counts trials whose raw violation exceeded the tolerance;
    worst_violation is the largest raw value seen (it may be negative for
    a comfortable pass).  witness holds the inputs of the worst trial and
    is present exactly when violations > 0.  trajectory is only filled by
    the sigma check.
    """

    property_name: str
    trials: int
    violations: int
    worst_violation: float
    witness: dict | None
    seed: int
    tolerance: float = DEFAULT_TOL
    trajectory: tuple[float, ...] | None = None


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(seed + trial)


def _encode_function(fn) -> dict:
    payload = {"values": [float(v) for v in fn.values]}
    tail = getattr(fn, "tail_value", None)
    if tail is not None:
        payload["tail_value"] = float(tail)
    return payload


def _decode_function(domain, payload: dict):
    if "tail_value" in payload:
        return domain.function(payload["values"], payload["tail_value"])
    return domain.function(payload["values"])


def _sample_dominated(domain, rng) -> dict:
    F = domain.sample_function(rng, FUNCTION_LOW, FUNCTION_HIGH)
    G = F.plus(domain.sample_function(rng, PERTURB_LOW, PERTURB_HIGH))
    return {"F": F, "G": G}


def _sample_shift(domain, rng) -> dict:
    F = domain.sample_function(rng, FUNCTION_LOW, FUNCTION_HIGH)
    return {"F": F, "c": float(rng.uniform(CONST_LOW, CONST_HIGH))}


def _sample_pair(domain, rng) -> dict:
    F = domain.sample_function(rng, FUNCTION_LOW, FUNCTION_HIGH)
    G = domain.sample_function(rng, FUNCTION_LOW, FUNCTION_HIGH)
    return {"F": F, "G": G}


def _raw_lipschitz(L, d) -> float:
    lf, lg = L.evaluate(d["F"]), L.evaluate(d["G"])
    gap_bound = d["F"].inf_minus(d["G"]) - (lf - lg)
    norm_bound = abs(lf - lg) - d["F"].sup_distance(d["G"])
    return max(gap_bound, norm_bound)


def _raw_interpolation(phi, d) -> float:
    F, c = d["F"], d["c"]
    phi_F = phi.evaluate(F)
    phi_Fc = phi.evaluate(F.shifted(c))
    phi_2F = phi.evaluate(F.scaled(2.0))
    worst = abs(phi_Fc - phi_F - c)
    for theta in _INTERPOLATION_THETAS:
        worst = max(worst, phi_Fc - (phi_F + c + theta * (phi_2F / 2 - phi_F)))
    return worst


# Each paired property once, keyed by its report name: sampler(domain, rng)
# draws one trial's inputs and raw(L, inputs) is its violation.  The checks
# and reevaluate_witness both read this table.
_PROPERTIES: dict[str, tuple[Callable, Callable]] = {
    "monotone": (
        _sample_dominated,
        lambda L, d: L.evaluate(d["F"]) - L.evaluate(d["G"]),
    ),
    "translation": (
        _sample_shift,
        lambda L, d: abs(L.evaluate(d["F"].shifted(d["c"])) - L.evaluate(d["F"]) - d["c"]),
    ),
    "maximal": (
        _sample_pair,
        lambda L, d: abs(
            L.evaluate(d["F"].pointwise_max(d["G"]))
            - max(L.evaluate(d["F"]), L.evaluate(d["G"]))
        ),
    ),
    "max_dominates": (
        _sample_pair,
        lambda L, d: max(L.evaluate(d["F"]), L.evaluate(d["G"]))
        - L.evaluate(d["F"].pointwise_max(d["G"])),
    ),
    "lipschitz": (_sample_pair, _raw_lipschitz),
    "const_preserving_implies_translation": (_sample_shift, _raw_interpolation),
}


def _run_paired_check(name: str, L, trials: int, seed: int, tol: float) -> CheckReport:
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    sampler, raw_of = _PROPERTIES[name]
    worst = -np.inf
    worst_inputs = None
    violations = 0
    for t in range(trials):
        inputs = sampler(L.space, _trial_rng(seed, t))
        raw = raw_of(L, inputs)
        if raw > tol:
            violations += 1
        if raw > worst:
            worst = raw
            worst_inputs = dict(inputs, trial=t)
    witness = None
    if violations > 0:
        witness = {
            k: (_encode_function(v) if hasattr(v, "values") else v)
            for k, v in worst_inputs.items()
        }
    return CheckReport(
        property_name=name,
        trials=trials,
        violations=violations,
        worst_violation=float(worst),
        witness=witness,
        seed=seed,
        tolerance=tol,
    )


def check_monotone(L, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL) -> CheckReport:
    """F <= G must give L(F) <= L(G); raw violation is L(F) - L(G)."""
    return _run_paired_check("monotone", L, trials, seed, tol)


def check_translation(L, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL) -> CheckReport:
    """L(F + c) must equal L(F) + c; raw violation is the absolute defect."""
    return _run_paired_check("translation", L, trials, seed, tol)


def check_maximal(L, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL) -> CheckReport:
    """Lattice homomorphism: |L(F v G) - max(L(F), L(G))| must vanish."""
    return _run_paired_check("maximal", L, trials, seed, tol)


def check_max_dominates(L, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL) -> CheckReport:
    """One-sided form: L(F v G) >= max(L(F), L(G)).

    Monotonicity is equivalent to this inequality, so its report must
    agree with check_monotone on pass/fail for any handle; the test suite
    asserts that consistency.
    """
    return _run_paired_check("max_dominates", L, trials, seed, tol)


def check_lipschitz(L, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL) -> CheckReport:
    """Both contraction bounds at once.

    The positivity bound inf(F - G) <= L(F) - L(G) and the sup-norm bound
    |L(F) - L(G)| <= ||F - G||; the raw violation is the worse defect.
    """
    return _run_paired_check("lipschitz", L, trials, seed, tol)


def check_sigma_continuity(L, seq, tol: float = DEFAULT_TOL) -> CheckReport:
    """Along one vanishing sequence: L(last term) must come back to L(0).

    The sequence must actually vanish (residual <= 1e-6 on the grid),
    otherwise SequenceNotVanishing; the assertion discounts the residual
    through the Lipschitz constant.  A pass is evidence along this
    sequence only; a failure is a proof, and the trajectory shows it.
    """
    if not isinstance(seq, DecreasingSequence):
        seq = validate_decreasing(seq)
    if seq.residual > _RESIDUAL_GATE:
        raise SequenceNotVanishing(
            f"residual {seq.residual} exceeds {_RESIDUAL_GATE}; cannot conclude"
        )
    trajectory = tuple(L.evaluate(term) for term in seq.terms)
    deviation = abs(trajectory[-1] - L.base_value)
    raw = deviation - _LIPSCHITZ_CONSTANT * seq.residual
    violations = 1 if raw > tol else 0
    witness = None
    if violations:
        witness = {
            "last_term": _encode_function(seq.terms[-1]),
            "residual": seq.residual,
            "trajectory": [float(v) for v in trajectory],
            "base_value": float(L.base_value),
        }
    return CheckReport(
        property_name="sigma_continuity",
        trials=len(seq.terms),
        violations=violations,
        worst_violation=float(raw),
        witness=witness,
        seed=0,
        tolerance=tol,
        trajectory=trajectory,
    )


def vanishing_sequence(domain, scales: int = 25) -> DecreasingSequence:
    """A default F_k decreasing to zero on the given domain.

    Finite spaces halve a positive profile; the half-line domain uses the
    escaping ramps min(1, x/2^k), whose grid residual vanishes while the
    declared tails stay at 1.  Both end below the 1e-6 residual gate.
    """
    if hasattr(domain, "ramp"):
        terms = [domain.ramp(2.0**k) for k in range(scales)]
    else:
        base = domain.constant_function(1.0)
        terms = [base.scaled(0.5**k) for k in range(scales)]
    return validate_decreasing(terms)


def check_const_preserving_implies_translation(
    phi, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL
) -> CheckReport:
    """For convex constant-preserving functionals, translation follows.

    Spot-verifies the precondition Phi(const) = const first, then per
    trial checks the interpolation bound
        Phi(F + c) <= Phi(F) + c + theta * (Phi(2F)/2 - Phi(F))
    at theta in {1/2, 1/4, 1/8} together with the translation identity
    itself; the raw violation is the worst of the four defects.
    """
    if not phi.claims_convex:
        raise PreconditionFailed("handle does not claim convexity")
    domain = phi.space
    probe_rng = np.random.default_rng(seed)
    for c in [0.0, 1.0, -1.0, *probe_rng.uniform(CONST_LOW, CONST_HIGH, 5)]:
        defect = abs(phi.evaluate(domain.constant_function(c)) - c)
        if defect > tol:
            raise PreconditionFailed(
                f"handle does not preserve constants: Phi({c}) is off by {defect}"
            )
    return _run_paired_check("const_preserving_implies_translation", phi, trials, seed, tol)


def reevaluate_witness(L, report: CheckReport) -> float:
    """Recompute the raw violation from a report's witness.

    The result must match worst_violation within 1e-12; tests rely on
    this to certify that witnesses are self-contained.
    """
    if report.witness is None:
        raise ValidationError("report has no witness")
    w = report.witness
    domain = L.space
    name = report.property_name
    if name == "sigma_continuity":
        last = _decode_function(domain, w["last_term"])
        return abs(L.evaluate(last) - L.base_value) - _LIPSCHITZ_CONSTANT * w["residual"]
    if name not in _PROPERTIES:
        raise ValidationError(f"unknown property {name!r}")
    inputs = {k: (_decode_function(domain, v) if isinstance(v, dict) else v) for k, v in w.items()}
    return _PROPERTIES[name][1](L, inputs)


CHECKS = {
    "monotone": check_monotone,
    "translation": check_translation,
    "maximal": check_maximal,
    "max_dominates": check_max_dominates,
    "lipschitz": check_lipschitz,
    "const_preserving": check_const_preserving_implies_translation,
}


__all__ = [
    "CheckReport",
    "CHECKS",
    "check_monotone",
    "check_translation",
    "check_maximal",
    "check_max_dominates",
    "check_lipschitz",
    "check_sigma_continuity",
    "check_const_preserving_implies_translation",
    "vanishing_sequence",
    "reevaluate_witness",
]
