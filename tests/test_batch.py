"""The batched paths against per-function reference loops, bit for bit.

The references below are the one-function-at-a-time forms the batched
code replaced: each check draws every trial's functions with
sample_function from one generator, trial after trial, and evaluates
them one by one, and the pit dual walks one point through its depths.
Reports must match them field for field.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import (
    broken_implication_handle,
    broken_lipschitz_handle,
    broken_monotone_handle,
    broken_translation_handle,
    canonical_suite,
    dual_rate_at,
    inf_minus,
    pit_function,
    pit_values,
    plus,
    pointwise_max,
    sample_function,
    shifted,
    sup_distance,
)

from vflab import (
    CheckReport,
    FiniteSpace,
    FunctionalHandle,
    PitSchedule,
    ProbabilityMeasure,
    RateFunction,
    TailDomain,
    check_lipschitz,
    dual_rate,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from vflab import duality
from vflab.axioms import (
    CHECKS,
    CONST_HIGH,
    CONST_LOW,
    FUNCTION_HIGH,
    FUNCTION_LOW,
    PERTURB_HIGH,
    PERTURB_LOW,
    _INTERPOLATION_THETAS,
    _trial_uniforms,
)
from vflab.errors import PreconditionFailed, ValidationError
from vflab.serialize import encode_function as _encode_function
from vflab.space import _BLOCK_FLOATS, _lse, _row_blocks

# past two blocks of tail trials (63 trials of 2 x 514 draws), so block joins are covered
TRIALS = 150
SEEDS = (0, 42, 12345)
# a seed just under 2**64 and one past 2**128: PCG64 is seeded from all
# of their words, and the report must carry them back unchanged
HUGE_SEEDS = (2**64 - 50, 10**40)


# -- _lse over the last axis --


def test_lse_rows_match_one_dimensional_calls():
    rng = np.random.default_rng(3)
    Z = rng.normal(0.0, 30.0, (40, 9))
    Z[1] = 2.0  # all tied
    Z[2, :3] = Z[2].max() + 1.0  # tied maxima
    Z[3, ::2] = -np.inf  # zero weights
    Z[4] = -np.inf
    Z[5, 0] = np.inf
    Z[6, 4] = np.nan
    with np.errstate(all="raise"):
        rows = _lse(Z)
        one = [_lse(z) for z in Z]
    assert rows.shape == (40,)
    assert all(isinstance(v, float) for v in one)
    assert rows[4] == -np.inf and rows[5] == np.inf and math.isnan(rows[6])
    assert np.array_equal(rows, np.array(one), equal_nan=True)


# -- evaluate_many against evaluate --


def _builtins(m: int):
    rng = np.random.default_rng(m)
    w = rng.dirichlet(np.ones(m))
    if m > 2:
        w[[0, m // 2]] = 0.0  # zero weights: -inf log weights
        w /= w.sum()
    space = FiniteSpace.default(m)
    rate = rng.uniform(0.0, 3.0, m)
    rate[0] = 0.0
    if m > 1:
        rate[-1] = np.inf
    return [
        log_integral(ProbabilityMeasure(w), space),
        ldp_term(ProbabilityMeasure(w), 8, space),
        sup_form(RateFunction(rate, space), 0.25),
        tail_limsup(TailDomain(np.linspace(0.0, 10.0, m + 1)[:m] if m > 1 else [0.0])),
    ]


@pytest.mark.parametrize("m", [1, 2, 16, 513])
def test_evaluate_many_matches_evaluate_bit_for_bit(m):
    for L in _builtins(m):
        width = L.space.row_width
        rng = np.random.default_rng(7)
        V = rng.uniform(-5.0, 5.0, (12, width))
        V[1] = 1.5  # constant row: every entry ties
        V[2, : max(1, width // 2)] = V[2].max()  # tied maxima
        V[3] = 0.0
        got = L.evaluate_many(V)
        want = [L.evaluate(L.space.from_row(v)) for v in V]
        assert got.shape == (12,) and got.dtype == float
        assert got.tobytes() == np.array(want).tobytes(), L.name


def test_evaluate_many_matches_evaluate_on_user_row_handles():
    L = broken_translation_handle()
    V = np.random.default_rng(1).uniform(-5.0, 5.0, (7, 3))
    assert L.evaluate_many(V).tolist() == [L.evaluate(L.space.function(v)) for v in V]


def test_evaluate_many_refuses_bad_rows():
    L = tail_limsup()
    with pytest.raises(ValidationError):
        L.evaluate_many(np.zeros((2, len(L.space))))  # the tail column is missing
    with pytest.raises(ValidationError):
        L.evaluate_many(np.zeros(L.space.row_width))
    bad = np.zeros((2, L.space.row_width))
    bad[1, 3] = np.nan
    with pytest.raises(ValidationError):
        L.evaluate_many(bad)


def test_handle_needs_rows():
    space = FiniteSpace.default(2)
    with pytest.raises(TypeError):
        FunctionalHandle("none", space, claims_convex=True)
    with pytest.raises(TypeError):  # the row function is keyword-only
        FunctionalHandle("positional", space, lambda V: V[..., 0], claims_convex=True)


def test_evaluate_many_refuses_rows_that_are_not_one_value_per_row():
    # V.max() reduces a whole stack to one scalar, which matches no row
    L = FunctionalHandle("whole_max", FiniteSpace.default(3), rows=lambda V: V.max(), claims_convex=True)
    assert L.evaluate(L.space.function([1.0, 2.0, 0.5])) == 2.0
    with pytest.raises(ValidationError, match=r"one value per row, shape \(4,\); got shape \(\)"):
        L.evaluate_many(np.zeros((4, 3)))
    with pytest.raises(ValidationError, match="one value per row"):
        CHECKS["monotone"](L, trials=10)
    with pytest.raises(ValidationError, match="one value per row"):
        dual_rate(L)
    wrong_axis = FunctionalHandle("wrong_axis", L.space, rows=lambda V: V.max(0), claims_convex=True)
    with pytest.raises(ValidationError, match=r"got shape \(3,\)"):
        wrong_axis.evaluate_many(np.zeros((4, 3)))


def test_construction_refuses_rows_that_keep_the_reduced_axis():
    # the zero row is one row, so its value must be a scalar
    space = FiniteSpace.default(3)
    with pytest.raises(ValidationError, match=r"one value per row, shape \(\); got shape \(1,\)"):
        FunctionalHandle("keepdims", space, rows=lambda V: V.max(-1, keepdims=True), claims_convex=True)


# -- the trial streams against per-trial generators --


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 3, 2**64 - 3, 2**128 - 3, 2**160 - 3, 10**40])
@pytest.mark.parametrize("count", [1, 17, 1028])
def test_trial_uniforms_match_default_rng(seed, count):
    # rows of one stream: from the start, from trial 1, and across the
    # first block boundary of the checks' blocking
    step = _row_blocks(_BLOCK_FLOATS + 1, count)[1][0]
    want = np.random.default_rng(seed).random((step + 3, count))
    for start, stop in ((0, 6), (1, 7), (step - 2, step + 3)):
        got = _trial_uniforms(seed, start, stop, count)
        assert got.shape == (stop - start, count)
        assert np.array_equal(got.view(np.uint64), want[start:stop].view(np.uint64))


# -- the checks against a per-trial reference loop --


def _ref_dominated(domain, rng):
    F = sample_function(domain, rng, FUNCTION_LOW, FUNCTION_HIGH)
    return {"F": F, "G": plus(F, sample_function(domain, rng, PERTURB_LOW, PERTURB_HIGH))}


def _ref_shift(domain, rng):
    F = sample_function(domain, rng, FUNCTION_LOW, FUNCTION_HIGH)
    return {"F": F, "c": float(rng.uniform(CONST_LOW, CONST_HIGH))}


def _ref_pair(domain, rng):
    F = sample_function(domain, rng, FUNCTION_LOW, FUNCTION_HIGH)
    return {"F": F, "G": sample_function(domain, rng, FUNCTION_LOW, FUNCTION_HIGH)}


def _ref_lipschitz(L, d):
    lf, lg = L.evaluate(d["F"]), L.evaluate(d["G"])
    return max(inf_minus(d["F"], d["G"]) - (lf - lg), abs(lf - lg) - sup_distance(d["F"], d["G"]))


def _ref_interpolation(phi, d):
    F, c = d["F"], d["c"]
    phi_F, phi_Fc, phi_2F = phi.evaluate(F), phi.evaluate(shifted(F, c)), phi.evaluate(F.scaled(2.0))
    worst = abs(phi_Fc - phi_F - c)
    for theta in _INTERPOLATION_THETAS:
        worst = max(worst, phi_Fc - (phi_F + c + theta * (phi_2F / 2 - phi_F)))
    return worst


_REFERENCE = {
    "monotone": ("monotone", _ref_dominated, lambda L, d: L(d["F"]) - L(d["G"])),
    "translation": ("translation", _ref_shift, lambda L, d: abs(L(shifted(d["F"], d["c"])) - L(d["F"]) - d["c"])),
    "maximal": ("maximal", _ref_pair, lambda L, d: abs(L(pointwise_max(d["F"], d["G"])) - max(L(d["F"]), L(d["G"])))),
    "max_dominates": (
        "max_dominates",
        _ref_pair,
        lambda L, d: max(L(d["F"]), L(d["G"])) - L(pointwise_max(d["F"], d["G"])),
    ),
    "lipschitz": ("lipschitz", _ref_pair, _ref_lipschitz),
    "const_preserving": ("const_preserving_implies_translation", _ref_shift, _ref_interpolation),
}


def _reference_report(check: str, L, trials: int, seed: int) -> CheckReport:
    name, sampler, raw_of = _REFERENCE[check]
    if check == "const_preserving":
        CHECKS[check](L, trials=1, seed=seed)  # the same precondition probe
    worst, worst_inputs, violations = -np.inf, None, 0
    rng = np.random.default_rng(seed)  # one stream, every trial drawn in order
    for t in range(trials):
        inputs = sampler(L.space, rng)
        raw = raw_of(L, inputs)
        violations += raw > 1e-9
        if raw > worst:
            worst, worst_inputs = raw, dict(inputs, trial=t)
    witness = None
    if violations:
        witness = {k: (_encode_function(v) if hasattr(v, "values") else v) for k, v in worst_inputs.items()}
    return CheckReport(name, trials, int(violations), float(worst), witness, seed, 1e-9)


def _step_handle():
    """-1{F(x0) > 0} on a 600-point line: raw values tie exactly across blocks."""
    space = FiniteSpace.from_line(np.arange(600.0))
    return FunctionalHandle("step", space, rows=lambda V: -(V[..., 0] > 0.0).astype(float), claims_convex=True)


def _nan_handle():
    """The level-skewed mean, but nan where F(x0) > 3: nan raw values never count."""
    skewed = broken_implication_handle()

    def rows(V):
        return np.where(V[..., 0] > 3.0, math.nan, skewed._rows(V))

    return FunctionalHandle("sometimes_nan", skewed.space, rows=rows, claims_convex=True)


_HANDLES = {
    L.name: L
    for L in canonical_suite()
    + [
        broken_monotone_handle(),
        broken_translation_handle(),
        broken_lipschitz_handle(),
        broken_implication_handle(),
        _step_handle(),
        _nan_handle(),
    ]
}


@pytest.mark.parametrize("handle", sorted(_HANDLES))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_reports_match_per_trial_loop(handle, check):
    L = _HANDLES[handle]
    for seed in SEEDS + (HUGE_SEEDS if check in ("lipschitz", "maximal") else ()):
        try:
            want = _reference_report(check, L, TRIALS, seed)
        except PreconditionFailed as exc:
            with pytest.raises(PreconditionFailed, match=re.escape(str(exc))):
                CHECKS[check](L, trials=TRIALS, seed=seed)
            continue
        got = CHECKS[check](L, trials=TRIALS, seed=seed)
        assert got == want, (handle, check, seed)
        assert math.copysign(1.0, got.worst_violation) == math.copysign(1.0, want.worst_violation)


# -- the pit dual against a per-point reference --


def _reference_point(L, index, sched):
    domain = L.space
    depths = sched.depths
    prev = -L.evaluate(pit_function(domain, index, depths[0]))
    depth, increment, stalled = depths[0], 0.0, len(depths) == 1
    for d in depths[1:]:
        cur = -L.evaluate(pit_function(domain, index, d))
        increment, depth, prev = cur - prev, d, cur
        if increment <= duality.STALL_TOLERANCE:
            stalled = True
            break
    divergent = not stalled and increment >= duality.DIVERGENCE_SLOPE * (depths[-1] - depths[-2])
    value = math.inf if divergent else L.base_value + prev
    if -1e-12 < value < 0.0:
        value = 0.0
    return value, (domain.point_ids[index], float(depth), float(increment), divergent)


@pytest.mark.parametrize(
    "make",
    [
        lambda: log_integral(ProbabilityMeasure(np.random.default_rng(5).dirichlet(np.ones(512)))),
        lambda: ldp_term(ProbabilityMeasure(np.random.default_rng(6).dirichlet(np.ones(200))), 8),
        lambda: tail_limsup(TailDomain()),
        broken_implication_handle,
    ],
    ids=["log_integral_512", "ldp_term_200", "tail_limsup", "per_function_handle"],
)
@pytest.mark.parametrize("sched", [PitSchedule(), PitSchedule(tuple(2.0**k for k in range(6))), PitSchedule((3.0,))], ids=["default", "capped", "one_depth"])
def test_dual_rate_matches_per_point_loop(make, sched):
    L = make()
    report = dual_rate(L, sched)
    ref = [_reference_point(L, i, sched) for i in range(len(report.rate))]
    assert report.rate.values.tobytes() == np.array([v for v, _ in ref]).tobytes()
    got = [(c.point, c.depth, c.increment, c.divergent) for c in report.per_point_convergence]
    assert got == [c for _, c in ref]
    assert all(type(c.divergent) is bool for c in report.per_point_convergence)
    for i in (0, len(ref) - 1):
        assert dual_rate_at(L, i, sched) == ref[i][0]
        assert pit_values(L, i, sched) == [-L.evaluate(pit_function(L.space, i, d)) for d in sched.depths]


# -- memory: stacked arrays stay in bounded blocks --


@pytest.mark.parametrize(
    "make, run",
    [
        (tail_limsup, lambda L: check_lipschitz(L, trials=1000)),
        (lambda: log_integral(ProbabilityMeasure(np.full(512, 1 / 512))), dual_rate),
    ],
    ids=["check_lipschitz_tail_limsup", "dual_rate_512"],
)
def test_batched_peak_memory_is_bounded(make, run):
    L = make()  # the 512-point discrete space alone holds a 2 MB metric matrix
    run(L)
    tracemalloc.start()
    try:
        run(L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
