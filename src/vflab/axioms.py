"""Randomized, seeded certification of the defining properties.

A check with seed s reads one stream, numpy.random.default_rng(s): trial
t's inputs are row t of random((trials, draws_per_trial)), split field
by field (F, then G or c; a function takes its row width, a constant
one draw), each field scaled as Generator.uniform would scale it.  So
reports are bit-identical for a given seed, a k-trial check sees the
first k trials of any longer one, blocks of trials can be drawn in any
order (PCG64 advances to a block's first row), and a witness's inputs
can be regenerated with numpy alone from the report's seed and the
witness's trial.  The const-preservation probe reads the child stream
default_rng(SeedSequence(s, spawn_key=(0,))) instead, which shares no
draw with any seed's trial stream.  Violations are data, not errors: a
check returns a CheckReport whose witness, re-evaluated standalone,
reproduces the worst violation.

Conventions shared by all checks: function entries are drawn i.i.d.
uniform [-5, 5], monotone perturbations uniform [0, 5], translation
constants uniform [-10, 10].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionFailed, SequenceNotVanishing, ValidationError
from .serialize import decode_function, encode_function
from .space import _finite, _row_blocks, validate_decreasing

DEFAULT_TOL = 1e-9
_RESIDUAL_GATE = 1e-6
# Varadhan functionals are 1-Lipschitz in sup norm; the sigma check uses
# that constant to discount the residual of a not-quite-zero last term
_LIPSCHITZ_CONSTANT = 1.0

FUNCTION_LOW, FUNCTION_HIGH = -5.0, 5.0
PERTURB_LOW, PERTURB_HIGH = 0.0, 5.0
CONST_LOW, CONST_HIGH = -10.0, 10.0
_INTERPOLATION_THETAS = (0.5, 0.25, 0.125)
VANISHING_SCALES = 25


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


def _validate_run(trials: int, seed: int, tol: float) -> None:
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    _finite(tol, "tolerance")
    if tol < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol!r}")


def _trial_uniforms(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """Rows start..stop-1 of np.random.default_rng(seed).random((N, count)), bit for bit."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(start * count)
    return np.random.Generator(bit_generator).random((stop - start, count))


def _draw(seed: int, start: int, stop: int, *fields) -> dict:
    """Trials start..stop-1: fields are (key, low, high, size) uniform draws.

    Row i of every array is trial start + i, row start + i of the seed's
    one stream, split field by field in the order given, each field as
    Generator.uniform(low, high, size) would draw it; size None draws one
    scalar per trial.  A function is one draw over its whole row (grid,
    then tail), so a trial's inputs do not depend on the block it falls
    in.  The arrays are views of one buffer of draws, scaled in place.
    """
    sizes = [size or 1 for _, _, _, size in fields]
    draws = _trial_uniforms(seed, start, stop, sum(sizes))
    out, col = {}, 0
    for (key, low, high, size), n in zip(fields, sizes):
        field = draws[:, col : col + n]
        field *= high - low
        field += low
        out[key] = field if size else field[:, 0]
        col += n
    return out


def _sample_dominated(seed: int, start: int, stop: int, width: int) -> dict:
    d = _draw(
        seed, start, stop, ("F", FUNCTION_LOW, FUNCTION_HIGH, width), ("G", PERTURB_LOW, PERTURB_HIGH, width)
    )
    d["G"] += d["F"]
    return d


def _sample_shift(seed: int, start: int, stop: int, width: int) -> dict:
    return _draw(
        seed, start, stop, ("F", FUNCTION_LOW, FUNCTION_HIGH, width), ("c", CONST_LOW, CONST_HIGH, None)
    )


def _sample_pair(seed: int, start: int, stop: int, width: int) -> dict:
    return _draw(
        seed, start, stop, ("F", FUNCTION_LOW, FUNCTION_HIGH, width), ("G", FUNCTION_LOW, FUNCTION_HIGH, width)
    )


# The raw violations below work on rows (see BoundedFunction.row), one
# trial per row.  _max is Python's max(a, b) elementwise, so NaN and
# signed zeros come out as a per-trial loop of max() would give them.


def _max(a, b):
    return np.where(b > a, b, a)


def _raw_lipschitz(L, d):
    D = d["F"] - d["G"]
    lf, lg = L.evaluate_many(d["F"]), L.evaluate_many(d["G"])
    gap_bound = D.min(-1) - (lf - lg)
    norm_bound = np.abs(lf - lg) - np.abs(D).max(-1)
    return _max(gap_bound, norm_bound)


def _raw_interpolation(phi, d):
    F, c = d["F"], d["c"]
    phi_F = phi.evaluate_many(F)
    phi_Fc = phi.evaluate_many(F + c[:, None])
    phi_2F = phi.evaluate_many(F * 2.0)
    worst = np.abs(phi_Fc - phi_F - c)
    for theta in _INTERPOLATION_THETAS:
        worst = _max(worst, phi_Fc - (phi_F + c + theta * (phi_2F / 2 - phi_F)))
    return worst


def _raw_maximal(L, d):
    F, G = d["F"], d["G"]
    return np.abs(L.evaluate_many(np.maximum(F, G)) - _max(L.evaluate_many(F), L.evaluate_many(G)))


def _raw_max_dominates(L, d):
    F, G = d["F"], d["G"]
    return _max(L.evaluate_many(F), L.evaluate_many(G)) - L.evaluate_many(np.maximum(F, G))


# Each paired property once, keyed by its report name:
# sampler(seed, start, stop, width) draws trials start..stop-1 and
# raw(L, inputs) is their violations.  The checks and reevaluate_witness
# (on a one-row block) both read this table.
_PROPERTIES: dict[str, tuple[Callable, Callable]] = {
    "monotone": (
        _sample_dominated,
        lambda L, d: L.evaluate_many(d["F"]) - L.evaluate_many(d["G"]),
    ),
    "translation": (
        _sample_shift,
        lambda L, d: np.abs(
            L.evaluate_many(d["F"] + d["c"][:, None]) - L.evaluate_many(d["F"]) - d["c"]
        ),
    ),
    "maximal": (_sample_pair, _raw_maximal),
    "max_dominates": (_sample_pair, _raw_max_dominates),
    "lipschitz": (_sample_pair, _raw_lipschitz),
    "const_preserving_implies_translation": (_sample_shift, _raw_interpolation),
}


def _run_paired_check(name: str, L, trials: int, seed: int, tol: float) -> CheckReport:
    _validate_run(trials, seed, tol)
    sampler, raw_of = _PROPERTIES[name]
    domain = L.space
    width = domain.row_width
    worst = -np.inf
    worst_rows = worst_trial = None
    violations = 0
    # a trial's draws are two fields of about width floats each, in one row
    for start, stop in _row_blocks(trials, 2 * width):
        inputs = sampler(seed, start, stop, width)
        raw = raw_of(L, inputs)
        violations += int(np.count_nonzero(raw > tol))
        # the first strictly greatest raw value; NaN never counts
        i = int(np.argmax(np.where(np.isnan(raw), -np.inf, raw)))
        if raw[i] > worst:
            worst = float(raw[i])
            worst_rows = {k: v[i].copy() for k, v in inputs.items()}
            worst_trial = start + i
    witness = None
    if violations > 0:
        witness = {
            k: (encode_function(domain.from_row(v)) if np.ndim(v) else float(v))
            for k, v in worst_rows.items()
        }
        witness["trial"] = worst_trial
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

    seq is any iterable of terms, validated as decreasing; its residual, the
    largest |value| of the last term over the points, must be <= 1e-6,
    otherwise SequenceNotVanishing.  The assertion discounts the residual
    through the Lipschitz constant.  A pass is evidence along this
    sequence only; a failure is a proof, and the trajectory shows it.
    """
    _validate_run(trials=1, seed=0, tol=tol)
    terms = validate_decreasing(seq)
    # over the points only: a tail value is read through L itself
    residual = float(np.max(np.abs(terms[-1].values)))
    if residual > _RESIDUAL_GATE:
        raise SequenceNotVanishing(
            f"residual {residual} exceeds {_RESIDUAL_GATE}; cannot conclude"
        )
    trajectory = tuple(L.evaluate(term) for term in terms)
    deviation = abs(trajectory[-1] - L.base_value)
    raw = deviation - _LIPSCHITZ_CONSTANT * residual
    violations = 1 if raw > tol else 0
    witness = None
    if violations:
        witness = {
            "last_term": encode_function(terms[-1]),
            "residual": residual,
            "trajectory": [float(v) for v in trajectory],
            "base_value": float(L.base_value),
        }
    return CheckReport(
        property_name="sigma_continuity",
        trials=len(terms),
        violations=violations,
        worst_violation=float(raw),
        witness=witness,
        seed=0,
        tolerance=tol,
        trajectory=trajectory,
    )


def vanishing_sequence(domain) -> tuple:
    """VANISHING_SCALES functions F_k decreasing to zero, as a tuple of terms.

    Finite spaces halve a positive profile; the half-line domain uses the
    escaping ramps min(1, x/2^k), whose grid values vanish while the
    declared tails stay at 1.  Both end below the 1e-6 residual gate,
    which is taken over the points of the last term.
    """
    if hasattr(domain, "ramp"):
        terms = [domain.ramp(2.0**k) for k in range(VANISHING_SCALES)]
    else:
        base = domain.constant_function(1.0)
        terms = [base.scaled(0.5**k) for k in range(VANISHING_SCALES)]
    return tuple(terms)


def check_const_preserving_implies_translation(
    phi, trials: int = 1000, seed: int = 42, tol: float = DEFAULT_TOL
) -> CheckReport:
    """For convex constant-preserving functionals, translation follows.

    Spot-verifies the precondition Phi(const) = const first, at 0, 1, -1
    and five constants from the seed's child stream (module docstring),
    then per trial checks the interpolation bound
        Phi(F + c) <= Phi(F) + c + theta * (Phi(2F)/2 - Phi(F))
    at theta in {1/2, 1/4, 1/8} together with the translation identity
    itself; the raw violation is the worst of the four defects.
    """
    _validate_run(trials, seed, tol)
    if not phi.claims_convex:
        raise PreconditionFailed("handle does not claim convexity")
    domain = phi.space
    probe_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
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
        last = decode_function(w["last_term"], domain)
        return abs(L.evaluate(last) - L.base_value) - _LIPSCHITZ_CONSTANT * w["residual"]
    if name not in _PROPERTIES:
        raise ValidationError(f"unknown property {name!r}")
    rows = {
        k: (decode_function(v, domain).row if isinstance(v, dict) else np.float64(v))[None]
        for k, v in w.items()
        if k != "trial"
    }
    return float(_PROPERTIES[name][1](L, rows)[0])


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
