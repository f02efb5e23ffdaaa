"""End-to-end acceptance runs, one test per shipped guarantee.

Each test prints one ACCEPTANCE line (PASS or FAIL) on the real stdout so
the summary survives pytest's capture, then asserts. Criteria collect all
problems before failing so a single run shows everything that broke.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from conftest import (
    broken_lipschitz_handle,
    broken_monotone_handle,
    broken_translation_handle,
    canonical_suite,
    empirical_rate_at,
    exponential_tilt,
    frozen_test_functions,
    pointwise_max,
    sample_function,
)

from vflab import (
    FiniteSpace,
    ProbabilityMeasure,
    RateFunction,
    check_const_preserving_implies_translation,
    check_lipschitz,
    check_maximal,
    check_monotone,
    check_sigma_continuity,
    check_translation,
    conjugate_J,
    cramer_sequence,
    dual_rate,
    estimate_limit,
    kl_divergence,
    kl_functional,
    ldp_value,
    log_integral,
    recover_L_from_J,
    representation_gap,
    sup_form,
    tail_limsup,
    vanishing_sequence,
)
from vflab.serialize import dumps, encode_check_report, encode_dual_report

MAX_GAP_WITNESS = 0.3798854930417225  # 1 - log((1 + e)/2)
LOG_HALF_1PE = 0.6201145069582775


def _finish(name: str, problems: list, capfd) -> None:
    status = "PASS" if not problems else "FAIL"
    with capfd.disabled():  # punch through pytest's fd capture
        print(f"ACCEPTANCE {name}: {status}", flush=True)
    assert not problems, f"{name}: " + "; ".join(str(p) for p in problems[:10])


def _random_sup_form(rng):
    m = int(rng.integers(2, 51))
    rates = rng.uniform(0.0, 10.0, m)
    inf_mask = rng.random(m) < 0.25
    if inf_mask.all():
        inf_mask[0] = False
    finite = ~inf_mask
    rates[finite] -= rates[finite].min()  # pin the minimum at exactly 0
    rates[inf_mask] = np.inf
    L0 = float(rng.uniform(-5.0, 5.0))
    space = FiniteSpace.default(m)
    return sup_form(RateFunction(rates, space), L0=L0), rates, L0


def test_criterion_1_sup_form_round_trip(capfd):
    problems = []
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for case in range(50):
        L, rates, L0 = _random_sup_form(rng)
        report = dual_rate(L)
        if abs(report.base_value - L0) > 1e-9:
            problems.append(f"case {case}: L0 off by {abs(report.base_value - L0)}")
        for i, (got, want, conv) in enumerate(
            zip(report.rate.values, rates, report.per_point_convergence)
        ):
            if math.isinf(want):
                if not (math.isinf(got) and conv.divergent):
                    problems.append(f"case {case} point {i}: inf entry not flagged divergent")
            elif abs(got - want) > 1e-9:
                problems.append(f"case {case} point {i}: rate off by {abs(got - want)}")
        for _ in range(200):
            F = sample_function(L.space, rng, -5.0, 5.0)
            gap = representation_gap(L, F, dual=report)
            if not -1e-9 <= gap <= 1e-9:
                problems.append(f"case {case}: gap {gap} outside [-1e-9, 1e-9]")
                break
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish("sup_form_round_trip", problems, capfd)


def test_criterion_2_log_integral_dual_and_strict_gap(capfd):
    problems = []
    rng = np.random.default_rng(7151)
    for case in range(20):
        m = int(rng.integers(2, 21))
        weights = 0.01 + rng.dirichlet(np.ones(m)) * (1.0 - 0.01 * m)
        weights = weights / weights.sum()
        nu = ProbabilityMeasure(weights)
        L = log_integral(nu)
        report = dual_rate(L)
        want = -np.log(weights)
        if np.max(np.abs(report.rate.values - want)) > 1e-9:
            problems.append(
                f"case {case}: dual differs from -log nu by "
                f"{np.max(np.abs(report.rate.values - want))}"
            )
        if abs(report.base_value) > 1e-12:
            problems.append(f"case {case}: L(0) = {report.base_value} should be 0")
        # the gap is widest at F = -log(nu), where reconstruction stays at 0
        # while the functional reports log(m)
        smart = L.space.function(want)
        gap = representation_gap(L, smart, dual=report)
        if not gap > 0.01:
            problems.append(f"case {case}: strict gap {gap} not above 0.01")
    _finish("log_integral_dual_strict_gap", problems, capfd)


def test_criterion_3_tail_limsup_counterexample(capfd):
    problems = []
    L = tail_limsup()
    for check in (check_monotone, check_translation, check_maximal):
        report = check(L, trials=1000, seed=42)
        if report.violations != 0:
            problems.append(f"{report.property_name}: {report.violations} violations")
    sigma = check_sigma_continuity(L, vanishing_sequence(L.space))
    if sigma.violations == 0:
        problems.append("sigma check unexpectedly passed")
    if any(v != 1.0 for v in sigma.trajectory):
        problems.append(f"trajectory not constant 1: {sigma.trajectory[:4]}...")
    if L.base_value != 0.0:
        problems.append(f"L(0) = {L.base_value} should be 0")
    report = dual_rate(L)
    if not all(c.divergent for c in report.per_point_convergence):
        problems.append("some grid point failed to diverge")
    if not np.all(np.isinf(report.rate.values)):
        problems.append("rate not identically infinite")
    _finish("tail_limsup_counterexample", problems, capfd)


def test_criterion_4_entropy_duality_both_directions(capfd):
    problems = []
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    for case in range(100):
        m = int(rng.integers(2, 11))
        nu = ProbabilityMeasure(0.01 + rng.dirichlet(np.ones(m)) * (1.0 - 0.01 * m))
        mu = ProbabilityMeasure(0.01 + rng.dirichlet(np.ones(m)) * (1.0 - 0.01 * m))
        L = log_integral(nu)
        F = L.space.function(rng.uniform(-5.0, 5.0, m))

        conj = conjugate_J(L, mu)
        want_kl = kl_divergence(mu, nu)
        if abs(conj.value - want_kl) > 1e-6:
            problems.append(f"case {case}: |conjugate - KL| = {abs(conj.value - want_kl)}")

        rec = recover_L_from_J(kl_functional(nu), 0.0, F)
        want_L = L(F)
        if abs(rec.value - want_L) > 1e-6:
            problems.append(f"case {case}: |recover - L(F)| = {abs(rec.value - want_L)}")
        tilt = exponential_tilt(nu, F)
        tv = 0.5 * float(np.abs(rec.maximizer.weights - tilt.weights).sum())
        if tv > 1e-5:
            problems.append(f"case {case}: maximizer TV distance {tv}")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish("entropy_duality", problems, capfd)


def test_criterion_5_bernoulli_varadhan_limit(capfd):
    problems = []
    start = time.perf_counter()
    seq = cramer_sequence(0.5, [16, 64, 256, 1024, 4096])

    # analytic rate on a dense grid, written out independently of cramer_rate
    xs = np.linspace(0.0, 1.0, 10001)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(xs > 0, xs * np.log(2.0 * xs), 0.0)
        right = np.where(xs < 1, (1.0 - xs) * np.log(2.0 * (1.0 - xs)), 0.0)
    dense_rate = left + right

    for name, F in frozen_test_functions().items():
        target = float(np.max(F(xs) - dense_rate))
        report = estimate_limit(seq, F)
        if abs(report.extrapolated - target) > 0.01:
            problems.append(
                f"{name}: extrapolated {report.extrapolated:.6f} vs dense {target:.6f}"
            )

    for entry in seq.entries:
        v = ldp_value(entry, lambda x: x)
        if abs(v - LOG_HALF_1PE) > 1e-10:
            problems.append(f"linear not exact at n={entry.n}: off by {abs(v - LOG_HALF_1PE)}")

    quarter = empirical_rate_at(seq.entries[-1], 0.25)
    if abs(quarter - 0.130812) > 0.005:
        problems.append(f"I_4096(0.25) = {quarter} not within 0.005 of 0.130812")

    elapsed = time.perf_counter() - start
    if elapsed > 20.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 20s")
    _finish("bernoulli_varadhan_limit", problems, capfd)


def test_criterion_6_axiom_suite(capfd):
    problems = []
    checks = (
        check_monotone,
        check_translation,
        check_lipschitz,
        check_const_preserving_implies_translation,
    )
    for L in canonical_suite():
        for check in checks:
            report = check(L, trials=1000, seed=42)
            if report.violations != 0:
                problems.append(
                    f"{L.name}/{report.property_name}: {report.violations} violations"
                )

    uniform2 = log_integral(ProbabilityMeasure([0.5, 0.5]))
    maximal = check_maximal(uniform2, trials=1000, seed=42)
    if maximal.violations == 0:
        problems.append("log_integral unexpectedly passed maximality")
    F = uniform2.space.function([1.0, 0.0])
    G = uniform2.space.function([0.0, 1.0])
    witness_gap = uniform2(pointwise_max(F, G)) - max(uniform2(F), uniform2(G))
    if abs(witness_gap - MAX_GAP_WITNESS) > 1e-9:
        problems.append(f"witness gap {witness_gap!r} != {MAX_GAP_WITNESS!r}")

    broken = (
        (broken_monotone_handle(), check_monotone),
        (broken_translation_handle(), check_translation),
        (broken_lipschitz_handle(), check_lipschitz),
    )
    for handle, check in broken:
        report = check(handle, trials=1000, seed=42)
        if report.violations == 0 or report.witness is None:
            problems.append(f"{handle.name} produced no witness")
    _finish("axiom_suite", problems, capfd)


def test_criterion_7_byte_identical_reports(tmp_path, capfd):
    problems = []

    # library level: same seed, same encoded bytes
    L = log_integral(ProbabilityMeasure([0.25, 0.75]))
    a = dumps(encode_check_report(check_maximal(L, trials=100, seed=9)))
    b = dumps(encode_check_report(check_maximal(L, trials=100, seed=9)))
    if a != b:
        problems.append("check report bytes differ between repeats")
    da = dumps(encode_dual_report(dual_rate(L)))
    db = dumps(encode_dual_report(dual_rate(L)))
    if da != db:
        problems.append("dual report bytes differ between repeats")

    # CLI level: whole runs are byte-identical
    f_li = tmp_path / "li.json"
    f_li.write_text(dumps({"kind": "log_integral", "measure": [0.25, 0.75]}))
    f_sup = tmp_path / "sup.json"
    f_sup.write_text(dumps({"kind": "sup_form", "rate": [0.0, 2.0, "inf"]}))
    grid = tmp_path / "lin.json"
    grid.write_text(dumps({"values": [0.0, 1.0], "xs": [0.0, 1.0]}))
    commands = [
        ["dual", "--functional", str(f_sup)],
        ["check", "--functional", str(f_li), "--property", "maximal", "--trials", "80"],
        ["cramer", "--p", "0.5", "--schedule", "16,64,256", "--f", str(grid)],
    ]
    for argv in commands:
        full = [sys.executable, "-m", "vflab", *argv]
        first = subprocess.run(full, capture_output=True)
        second = subprocess.run(full, capture_output=True)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            problems.append(f"{argv[0]}: repeated runs differ")
        if argv[0] == "dual" and first.returncode != 0:
            problems.append(f"dual exited {first.returncode}")
        if argv[0] == "check" and first.returncode != 1:
            problems.append(f"check expected exit 1, got {first.returncode}")
    json.loads(first.stdout)  # last report is well-formed JSON
    _finish("byte_identical_reports", problems, capfd)
