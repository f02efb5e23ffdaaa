"""The in-process workloads: inputs from the seed, operations, and checks.

An operation is one user-level vflab call that starts from raw arrays,
so building the space, the measure and the handle is part of it.  Each
workload function returns the fixed list of operations of one round;
the worker runs that list again and again.  Every check compares against
oracles.py or against a property the method must have.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import oracles
from rounds import Op
from vflab import (
    FiniteSpace,
    GridFunction,
    ProbabilityMeasure,
    RateFunction,
    TailDomain,
    check_const_preserving_implies_translation,
    check_lipschitz,
    check_max_dominates,
    check_maximal,
    check_monotone,
    check_sigma_continuity,
    check_translation,
    conjugate_J,
    cramer_sequence,
    dual_rate,
    empirical_rate,
    estimate_limit,
    kl_functional,
    ldp_term,
    log_integral,
    recover_L_from_J,
    reevaluate_witness,
    representation_gap,
    sup_form,
    tail_limsup,
    tightness_scan,
    vanishing_sequence,
)
from vflab.ldp_lab import REFERENCE_GRID

WEIGHT_FLOOR = 1e-4
CHECK_TRIALS = 1000
# inputs of the finite-difference cases do not depend on --seed: their
# failures are a known fault, and their count must repeat in every run
FIXED_SEED = 9009
EXACT_TOL = 1e-9
DUALITY_TOL = 1e-6
TV_TOL = 1e-5
LIMIT_TOL = 0.01
IDENTITY_TOL = 1e-10
MASS_TOL = 1e-12
RATE_TOL = 1e-9


def _weights(rng, m: int) -> np.ndarray:
    w = np.maximum(rng.dirichlet(np.ones(m)), WEIGHT_FLOOR)
    return w / w.sum()


def _errors(*pairs) -> list[str]:
    return [msg for bad, msg in pairs if bad]


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol


# -- handles from raw arrays --


def _log_handle(tr, weights, n=None):
    with tr.span("space.build"):
        space = FiniteSpace.default(len(weights))
        nu = ProbabilityMeasure(weights)
    with tr.span("functionals.construct"):
        L = log_integral(nu, space) if n is None else ldp_term(nu, n, space)
    return tr.instrument(L)


def _sup_handle(tr, rate, L0):
    with tr.span("space.build"):
        I = RateFunction(rate, FiniteSpace.default(len(rate)))
    with tr.span("functionals.construct"):
        return sup_form(I, L0)


def _tail_handle(tr):
    with tr.span("space.build"):
        domain = TailDomain()
    with tr.span("functionals.construct"):
        return tail_limsup(domain)


def _seeded_rate(rng, m: int) -> np.ndarray:
    """Rates in [0, 3] with about a fifth infinite; at least one 0 and one inf."""
    rate = rng.uniform(0.0, 3.0, m)
    zero, inf = rng.choice(m, 2, replace=False)
    rate[rng.uniform(size=m) < 0.2] = math.inf
    rate[inf] = math.inf
    rate[zero] = 0.0
    return rate


# -- dual_axioms --


def _dual_op(tr, label, make, want_rate, want_base):
    def run():
        L = make()
        with tr.span("duality.dual_rate", points=len(want_rate)):
            return dual_rate(L)

    def check(rep):
        got = rep.rate.values
        finite = np.isfinite(want_rate)
        divergent = np.array([c.divergent for c in rep.per_point_convergence])
        return False, _errors(
            (not np.array_equal(np.isfinite(got), finite), f"{label}: infinite entries at the wrong points"),
            (bool(np.any(np.abs(got[finite] - want_rate[finite]) > EXACT_TOL)), f"{label}: rate off the closed form"),
            (not np.array_equal(divergent, ~finite), f"{label}: divergence flags do not match the infinite entries"),
            (not _close(rep.base_value, want_base, EXACT_TOL), f"{label}: L(0) = {rep.base_value!r}, want {want_base!r}"),
        )

    return Op(label, run, check)


def _gap_op(tr, label, weights, n):
    F = np.array([-math.log(w) / n for w in weights])
    want = math.log(len(weights)) / n

    def run():
        L = _log_handle(tr, weights, None if n == 1 else n)
        with tr.span("space.build"):
            f = L.space.function(F)
        with tr.span("duality.representation_gap", points=len(weights)):
            return representation_gap(L, f)

    def check(gap):
        return False, _errors((not _close(gap, want, EXACT_TOL), f"{label}: gap {gap!r}, want log(m)/n = {want!r}"))

    return Op(label, run, check)


def _check_op(tr, label, make, check_fn, trials, seed, expect_pass, witness_oracle=None):
    def run():
        L = make()
        with tr.span("axioms.check") as span:
            if check_fn is check_sigma_continuity:
                report = check_fn(L, vanishing_sequence(L.space))
            else:
                report = check_fn(L, trials=trials, seed=seed)
            span.set(trials=report.trials)
        return L, report

    def check(result):
        L, report = result
        if expect_pass:
            return False, _errors((report.violations != 0, f"{label}: {report.violations} violations, want 0"))
        errors = _errors((report.violations == 0, f"{label}: passed, want a violation"))
        if report.violations and witness_oracle is not None:
            again = reevaluate_witness(L, report)
            own = witness_oracle(report.witness)
            errors += _errors(
                (abs(again - report.worst_violation) > 1e-12, f"{label}: reevaluate_witness gives {again!r}"),
                (abs(own - report.worst_violation) > EXACT_TOL, f"{label}: own log-sum-exp gives {own!r}"),
            )
        return False, errors

    return Op(label, run, check)


def _maximal_witness_oracle(weights):
    def raw(witness):
        F, G = witness["F"]["values"], witness["G"]["values"]
        lf, lg = oracles.log_integral(weights, F), oracles.log_integral(weights, G)
        return abs(oracles.log_integral(weights, [max(a, b) for a, b in zip(F, G)]) - max(lf, lg))

    return raw


def dual_axioms(seed: int, tr, warm: bool = False) -> list[Op]:
    """Pit duals, representation gaps and every axiom check on all four built-ins."""
    rng = np.random.default_rng([seed, 1])
    trials_seed = seed * 100
    ops = []
    log_ms, ldp_mn, sup_ms = ((8,), ((8, 4),), (8,)) if warm else ((8, 64, 512), ((16, 4), (256, 8)), (8, 64))
    for m in log_ms:
        w = _weights(rng, m)
        ops.append(_dual_op(tr, f"dual log_integral m={m}", lambda w=w: _log_handle(tr, w), -np.log(w), 0.0))
    for m, n in ldp_mn:
        w = _weights(rng, m)
        ops.append(_dual_op(tr, f"dual ldp_term m={m} n={n}", lambda w=w, n=n: _log_handle(tr, w, n), -np.log(w) / n, 0.0))
    for m in sup_ms:
        rate, L0 = _seeded_rate(rng, m), float(rng.uniform(-1, 1))
        ops.append(_dual_op(tr, f"dual sup_form m={m}", lambda r=rate, c=L0: _sup_handle(tr, r, c), rate, L0))
    if not warm:
        n_tail = len(TailDomain().grid)
        ops.append(_dual_op(tr, "dual tail_limsup", lambda: _tail_handle(tr), np.full(n_tail, math.inf), 0.0))
        ops.append(_gap_op(tr, "gap log_integral m=64", _weights(rng, 64), 1))
        ops.append(_gap_op(tr, "gap ldp_term m=16 n=4", _weights(rng, 16), 4))

    w_log, w_ldp = _weights(rng, 16), _weights(rng, 24)
    rate, L0 = _seeded_rate(rng, 32), float(rng.uniform(-1, 1))
    handles = {
        "log_integral m=16": lambda: _log_handle(tr, w_log),
        "ldp_term m=24 n=8": lambda: _log_handle(tr, w_ldp, 8),
        "sup_form m=32": lambda: _sup_handle(tr, rate, L0),
        "tail_limsup": lambda: _tail_handle(tr),
    }
    plan = [(h, fn, True) for h in handles for fn in (check_monotone, check_translation, check_lipschitz)]
    plan += [
        ("log_integral m=16", check_maximal, False),
        ("sup_form m=32", check_maximal, True),
        ("ldp_term m=24 n=8", check_max_dominates, True),
        ("log_integral m=16", check_const_preserving_implies_translation, True),
        ("log_integral m=16", check_sigma_continuity, True),
        ("tail_limsup", check_sigma_continuity, False),
    ]
    if warm:
        # the warm-up runs each handle and both check paths once, on few trials
        plan = [(h, fn, ok) for h, fn, ok in plan if fn in (check_monotone, check_sigma_continuity)]
    trials = 10 if warm else CHECK_TRIALS
    oracle = _maximal_witness_oracle(w_log)
    for k, (h, fn, ok) in enumerate(plan):
        label = f"{fn.__name__} {h}"
        witness = oracle if fn is check_maximal else None
        ops.append(_check_op(tr, label, handles[h], fn, trials, trials_seed + k, ok, witness))
    return ops


# -- entropy_duality --


def _conjugate_op(tr, label, nu, mu, n, exact=True):
    want = oracles.kl(mu, nu) / (n or 1)

    def run():
        L = _log_handle(tr, nu, n)
        with tr.span("space.build"):
            m = ProbabilityMeasure(mu)
        with tr.span("convex_duality.conjugate") as span:
            rep = conjugate_J(L, m, exact_gradient=exact)
            span.set(iterations=rep.iterations, unconverged=int(not rep.converged))
        return rep

    def check(rep):
        if not rep.converged:
            # exact_gradient=False cannot reach grad_tolerance through
            # finite-difference noise; counted as failed, never as wrong
            return (not exact), _errors((exact, f"{label}: converged=False"))
        return False, _errors(
            (not _close(rep.value, want, DUALITY_TOL), f"{label}: J = {rep.value!r}, want KL/n = {want!r}"),
        )

    return Op(label, run, check)


def _recover_op(tr, label, nu, F, exact=True):
    want = oracles.log_integral(nu, F)
    tilt = oracles.tilt(nu, F)

    def run():
        with tr.span("space.build"):
            f = FiniteSpace.default(len(F)).function(F)
            ref = ProbabilityMeasure(nu)
        J = tr.measure_functional(kl_functional(ref))
        with tr.span("convex_duality.recover") as span:
            rep = recover_L_from_J(J, 0.0, f, exact_gradient=exact)
            span.set(iterations=rep.iterations, unconverged=int(not rep.converged))
        return rep

    def check(rep):
        if not rep.converged:
            # the finite-difference KKT test cannot pass at the optimum
            # once a weight is small (see CHANGES.md); counted as failed
            return (not exact), _errors((exact, f"{label}: converged=False"))
        tv = oracles.total_variation(rep.maximizer.weights, tilt)
        return False, _errors(
            (not _close(rep.value, want, DUALITY_TOL), f"{label}: L(F) = {rep.value!r}, want {want!r}"),
            (tv > TV_TOL, f"{label}: maximizer {tv!r} from the tilt in total variation"),
        )

    return Op(label, run, check)


SMALL_MS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32)
# small triples per m: both directions on the first SMALL_PAIRS, conjugate_J
# alone on the rest.  A small conjugate_J costs 2.5-9 ms depending on its
# Newton steps, so many draws keep the median operation from following the seed.
SMALL_PAIRS = 2
SMALL_TRIPLES = 6
LDP_PAIRS = ((4, 2), (8, 8), (16, 2), (32, 8))
LARGE_PAIRS = ((64, None), (128, 4), (256, None), (512, None))
FD_CONJUGATE_MS = (2, 3, 4)
FD_RECOVER_MS = (4, 8, 16, 32)


def entropy_duality(seed: int, tr, warm: bool = False) -> list[Op]:
    """conjugate_J and recover_L_from_J on seeded (nu, mu, F) triples."""
    rng = np.random.default_rng([seed, 2])

    def triple(r, m):
        return _weights(r, m), _weights(r, m), r.uniform(-3.0, 3.0, m)

    ops = []
    small = SMALL_MS[:2] if warm else SMALL_MS * SMALL_TRIPLES
    for j, m in enumerate(small):
        nu, mu, F = triple(rng, m)
        ops.append(_conjugate_op(tr, f"conjugate log_integral m={m}", nu, mu, None))
        if j < len(SMALL_MS) * SMALL_PAIRS:
            ops.append(_recover_op(tr, f"recover m={m}", nu, F))
    for m, n in LDP_PAIRS[:1] if warm else LDP_PAIRS:
        nu, mu, _ = triple(rng, m)
        ops.append(_conjugate_op(tr, f"conjugate ldp_term m={m} n={n}", nu, mu, n))
    if warm:
        return ops
    for m, n in LARGE_PAIRS:
        nu, mu, F = triple(rng, m)
        ops.append(_conjugate_op(tr, f"conjugate m={m} n={n or 1}", nu, mu, n))
        ops.append(_recover_op(tr, f"recover m={m}", nu, F))
    fixed = np.random.default_rng(FIXED_SEED)
    for m in FD_CONJUGATE_MS:
        nu, mu, _ = triple(fixed, m)
        ops.append(_conjugate_op(tr, f"conjugate fd m={m}", nu, mu, None, exact=False))
    for m in FD_RECOVER_MS:
        nu, _, F = triple(fixed, m)
        ops.append(_recover_op(tr, f"recover fd m={m}", nu, F, exact=False))
    return ops


# -- cramer_ldp --

CRAMER_PS = (0.5, 0.3)
CRAMER_SCHEDULE = (16, 64, 256, 1024, 4096, 16384, 65536)
LIMIT_FUNCTIONS = 5
TIGHTNESS_LEVELS = 2
EMPIRICAL_NS = (4096, 65536)


@functools.lru_cache(maxsize=None)
def _binomial_rates(n: int, p: float) -> np.ndarray:
    """lgamma rates -(1/n) log P(S_n = k) for every atom."""
    return np.array([oracles.binomial_rate(n, k, p) for k in range(n + 1)])


def cramer_ldp(seed: int, tr, warm: bool = False) -> list[Op]:
    """Binomial sequences to n = 65536, limits, tightness scans and empirical rates."""
    rng = np.random.default_rng([seed, 3])
    schedule = (256, 1024, 4096) if warm else CRAMER_SCHEDULE
    nfun, nlev = (1, 1) if warm else (LIMIT_FUNCTIONS, TIGHTNESS_LEVELS)
    built = {}
    ops = []
    for p in CRAMER_PS:
        ops.append(_sequence_op(tr, p, schedule, built))
        identity = REFERENCE_GRID.copy()
        ops.append(_limit_op(tr, p, "x", identity, built, lambda x: x, identity=True))
        for j in range(nfun):
            a, b, k, phi = rng.uniform(-2, 2), rng.uniform(0, 1), int(rng.integers(1, 4)), rng.uniform(0, 2 * math.pi)
            fn = (lambda x, a=a, b=b, k=k, phi=phi: a * x + b * np.sin(2 * np.pi * k * x + phi))
            ops.append(_limit_op(tr, p, f"F{j}", fn(REFERENCE_GRID), built, fn))
        for j in range(nlev):
            ops.append(_tightness_op(tr, p, float(rng.uniform(0.01, 0.3)), schedule, built))
        for n in (schedule[-1],) if warm else EMPIRICAL_NS:
            ops.append(_empirical_op(tr, p, schedule.index(n), n, built))
    return ops


def _sequence_op(tr, p, schedule, built):
    label = f"cramer_sequence p={p}"

    def run():
        with tr.span("ldp_lab.sequence", atoms=sum(n + 1 for n in schedule)):
            built[p] = cramer_sequence(p, schedule)
        return built[p]

    def check(seq):
        ns = tuple(e.n for e in seq.entries)
        mass = [abs(math.fsum(e.measure.weights) - 1.0) for e in seq.entries]
        sizes = [len(e.measure) == e.n + 1 for e in seq.entries]
        return False, _errors(
            (ns != tuple(schedule), f"{label}: entries at n={ns}"),
            (not all(sizes), f"{label}: an entry does not have n + 1 atoms"),
            (max(mass) > MASS_TOL, f"{label}: weights sum off 1 by {max(mass)!r}"),
        )

    return Op(label, run, check)


def _limit_op(tr, p, name, ys, built, fn, identity=False):
    label = f"estimate_limit p={p} F={name}"
    want = {}

    def run():
        F = GridFunction(ys)
        with tr.span("ldp_lab.limit"):
            return estimate_limit(built[p], F)

    def check(rep):
        if "sup" not in want:
            want["sup"] = math.log1p(p * math.expm1(1.0)) if identity else oracles.cramer_sup(p, lambda x: float(fn(x)))
        errors = _errors(
            (not rep.converged, f"{label}: extrapolation did not converge"),
            (not _close(rep.extrapolated, want["sup"], LIMIT_TOL), f"{label}: limit {rep.extrapolated!r}, want sup(F - I) = {want['sup']!r}"),
        )
        if identity:
            # (1/n) log E e^{S_n} = log(1 - p + p e) at every n
            off = max(abs(v - want["sup"]) for _, v in rep.terms)
            errors += _errors((off > IDENTITY_TOL, f"{label}: a per-n value is {off!r} off log(1 - p + p e)"))
        return False, errors

    return Op(label, run, check)


def _tightness_op(tr, p, level, schedule, built):
    label = f"tightness_scan p={p} a={level:.4f}"
    bounds = []

    def run():
        with tr.span("ldp_lab.tightness"):
            return tightness_scan(built[p], level)

    def check(pairs):
        if not bounds:
            for n in schedule:
                atoms = [k / n for k in range(n + 1)]
                bounds.append(oracles.sublevel_diameter_bounds(_binomial_rates(n, p), atoms, level))
        errors = _errors((tuple(n for n, _ in pairs) != tuple(schedule), f"{label}: scanned n={[n for n, _ in pairs]}"))
        for (n, d), (lo, hi) in zip(pairs, bounds):
            errors += _errors((not lo - 1e-12 <= d <= hi + 1e-12, f"{label}: diameter {d!r} at n={n} outside [{lo!r}, {hi!r}]"))
        return False, errors

    return Op(label, run, check)


def _empirical_op(tr, p, i, n, built):
    label = f"empirical_rate p={p} n={n}"

    def run():
        with tr.span("ldp_lab.empirical_rate"):
            return empirical_rate(built[p].entries[i])

    def check(rate):
        off = float(np.max(np.abs(rate.values - np.maximum(_binomial_rates(n, p), 0.0))))
        return False, _errors((off > RATE_TOL, f"{label}: {off!r} off the lgamma log-pmf"))

    return Op(label, run, check)


WORKLOADS = {
    "dual_axioms": dual_axioms,
    "entropy_duality": entropy_duality,
    "cramer_ldp": cramer_ldp,
}
