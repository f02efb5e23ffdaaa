import math
import time
import tracemalloc

import numpy as np
import pytest
from conftest import dirac_functional, exponential_tilt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vflab import (
    ProbabilityMeasure,
    RateFunction,
    TailDomain,
    conjugate_J,
    kl_divergence,
    kl_functional,
    ldp_term,
    log_integral,
    make_measure,
    recover_L_from_J,
    sup_form,
    tail_limsup,
)
from vflab import convex_duality
from vflab.convex_duality import MeasureFunctional
from vflab.errors import InfeasibleJ, SpaceMismatch, ValidationError
from vflab.functionals import FunctionalHandle
from vflab.space import BoundedFunction, FiniteSpace

KL_3Q_HALF = 0.13081203594113697  # KL((0.75,0.25) || (0.5,0.5))


def tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def closed_form_case(seed: int):
    """(reference weights, F) for the recover sweep: m in 2..39, half the draws with zero weights."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    w = rng.dirichlet(np.full(m, 0.5))
    if rng.integers(2):
        w[rng.choice(m, int(rng.integers(1, m)), replace=False)] = 0.0
    return w, rng.uniform(-3.0, 3.0, m)


def criterion_4_pair(case: int):
    """The (nu, mu) pair of one case, drawn as acceptance criterion 4 draws it."""
    rng = np.random.default_rng(424242)
    for _ in range(case + 1):
        m = int(rng.integers(2, 11))
        nu = ProbabilityMeasure(0.01 + rng.dirichlet(np.ones(m)) * (1.0 - 0.01 * m))
        mu = ProbabilityMeasure(0.01 + rng.dirichlet(np.ones(m)) * (1.0 - 0.01 * m))
        rng.uniform(-5.0, 5.0, m)  # the test function F, unused here
    return nu, mu


class TestKlDivergence:
    def test_oracle(self):
        mu = ProbabilityMeasure([0.75, 0.25])
        nu = ProbabilityMeasure([0.5, 0.5])
        assert kl_divergence(mu, nu) == pytest.approx(KL_3Q_HALF, abs=1e-15)

    def test_zero_on_diagonal(self):
        nu = ProbabilityMeasure([0.2, 0.3, 0.5])
        assert kl_divergence(nu, nu) == 0.0

    def test_support_violation_is_infinite(self):
        mu = ProbabilityMeasure([0.5, 0.5])
        nu = ProbabilityMeasure([1.0, 0.0])
        assert kl_divergence(mu, nu) == math.inf

    def test_zero_mu_weight_drops_out(self):
        mu = ProbabilityMeasure([1.0, 0.0])
        nu = ProbabilityMeasure([0.5, 0.5])
        assert kl_divergence(mu, nu) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(SpaceMismatch):
            kl_divergence(ProbabilityMeasure([1.0]), ProbabilityMeasure([0.5, 0.5]))


def masked_kl(mu, nu) -> float:
    """kl_divergence as written before its full-support path: every term masked to mu's support."""
    m, v = mu.weights, nu.weights
    support = m > 0
    if np.any(v[support] == 0.0):
        return float("inf")
    return float((m[support] * (np.log(m[support]) - np.log(v[support]))).sum())


def seeded_measure(rng, m: int, zeros: int) -> ProbabilityMeasure:
    """A Dirichlet draw with the given number of its first weights set to zero."""
    w = rng.dirichlet(np.ones(m))
    w[:zeros] = 0.0
    return make_measure(w)


class TestKlFastPath:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 3), st.integers(0, 3))
    def test_same_bits_as_the_masked_form(self, seed, m, mu_zeros, nu_zeros):
        rng = np.random.default_rng(seed)
        mu = seeded_measure(rng, m, min(mu_zeros, m - 1))
        nu = seeded_measure(rng, m, min(nu_zeros, m - 1))
        for a, b in ((mu, nu), (nu, mu), (mu, mu)):
            assert repr(kl_divergence(a, b)) == repr(masked_kl(a, b))


class TestExponentialTilt:
    def test_zero_function_returns_nu(self):
        nu = ProbabilityMeasure([0.25, 0.75])
        F = FiniteSpace.default(2).function([0.0, 0.0])
        assert np.array_equal(exponential_tilt(nu, F).weights, nu.weights)

    def test_log_three_oracle(self):
        nu = ProbabilityMeasure([0.5, 0.5])
        F = FiniteSpace.default(2).function([math.log(3.0), 0.0])
        assert np.allclose(exponential_tilt(nu, F).weights, [0.75, 0.25], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(SpaceMismatch):
            exponential_tilt(
                ProbabilityMeasure([1.0]), FiniteSpace.default(2).function([0.0, 0.0])
            )


class TestConjugate:
    def test_matches_kl_on_fixed_pair(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        report = conjugate_J(L, ProbabilityMeasure([0.75, 0.25]))
        assert report.converged
        assert report.value == pytest.approx(KL_3Q_HALF, abs=1e-8)
        assert isinstance(report.maximizer, BoundedFunction)

    def test_maximizer_tilts_nu_onto_mu(self):
        nu = ProbabilityMeasure([0.2, 0.3, 0.5])
        mu = ProbabilityMeasure([0.5, 0.2, 0.3])
        report = conjugate_J(log_integral(nu), mu)
        assert report.converged
        assert tv(exponential_tilt(nu, report.maximizer).weights, mu.weights) <= 1e-7

    def test_identical_measures_give_zero(self):
        nu = ProbabilityMeasure([0.4, 0.6])
        report = conjugate_J(log_integral(nu), nu)
        assert report.converged
        assert report.value == pytest.approx(0.0, abs=1e-10)
        assert report.iterations == 0  # first gradient already vanishes

    def test_finite_difference_path_agrees(self):
        nu = ProbabilityMeasure([0.3, 0.7])
        mu = ProbabilityMeasure([0.6, 0.4])
        L = log_integral(nu)
        exact = conjugate_J(L, mu, exact_gradient=True)
        fd = conjugate_J(L, mu, exact_gradient=False)
        assert abs(exact.value - fd.value) <= 1e-5

    def test_boundary_mu_still_converges(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        report = conjugate_J(L, ProbabilityMeasure([1.0, 0.0]))
        assert report.converged
        assert report.value == pytest.approx(math.log(2.0), abs=1e-6)

    def test_support_violation_hits_the_cap(self):
        L = log_integral(ProbabilityMeasure([1.0, 0.0]))
        report = conjugate_J(L, ProbabilityMeasure([0.5, 0.5]))
        assert report.value == math.inf
        assert not report.converged

    def test_nonconvex_claim_warns(self, monkeypatch):
        monkeypatch.setattr(convex_duality, "MAX_ITERS", 5)
        space = FiniteSpace.default(2)
        handle = FunctionalHandle("just_max", space, rows=lambda V: V.max(-1), claims_convex=False)
        with pytest.warns(UserWarning, match="convex"):
            conjugate_J(handle, ProbabilityMeasure([0.5, 0.5]))

    def test_length_mismatch(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        with pytest.raises(SpaceMismatch):
            conjugate_J(L, ProbabilityMeasure([1.0]))

    def test_tail_domain_refused(self):
        # a tail-domain row carries one more column than the domain has points
        L = tail_limsup(TailDomain([0.0, 1.0, 2.0]))
        with pytest.raises(ValidationError, match="rows are its points"):
            conjugate_J(L, ProbabilityMeasure([0.25, 0.25, 0.5]))

    @pytest.mark.parametrize("case", [36, 87])
    def test_newton_converges_on_float_flat_cases(self, case):
        # first-order ascent stalled on these pairs with max|g| ~ 1.1e-8:
        # case 87 spun to max_iters, case 36 hit the line-search floor
        nu, mu = criterion_4_pair(case)
        report = conjugate_J(log_integral(nu), mu)
        assert report.converged
        assert report.iterations <= 20
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-12

    def test_handle_without_hessian_converges(self, monkeypatch):
        monkeypatch.setattr(convex_duality, "MAX_ITERS", 1000)
        # the direction needs the gradient alone, so this handle takes the
        # same path as log_integral itself
        nu, mu = criterion_4_pair(87)
        L = log_integral(nu)
        gradient_only = FunctionalHandle(
            "log_integral_gradient_only", L.space, rows=L._rows, claims_convex=True, gradient=L.gradient
        )
        report = conjugate_J(gradient_only, mu)
        assert report.converged
        assert report.iterations <= 20
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-12

    def test_finite_difference_converges_at_m64(self):
        # first-order steps ran 663 iterations here and stopped unconverged
        rng = np.random.default_rng(1)
        nu = ProbabilityMeasure(rng.dirichlet(np.ones(64)))
        mu = ProbabilityMeasure(rng.dirichlet(np.ones(64)))
        start = time.perf_counter()
        report = conjugate_J(log_integral(nu), mu, exact_gradient=False)
        elapsed = time.perf_counter() - start
        assert report.converged
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-10
        assert elapsed < 1.0

    def test_finite_difference_converges_on_benchmark_inputs(self):
        # the fixed finite-difference conjugates of the benchmark's
        # entropy_duality workload: floored Dirichlet draws from seed 9009
        rng = np.random.default_rng(9009)

        def weights(m):
            w = np.maximum(rng.dirichlet(np.ones(m)), 1e-4)
            return ProbabilityMeasure(w / w.sum())

        for m in (2, 3, 4):
            nu, mu = weights(m), weights(m)
            rng.uniform(-3.0, 3.0, m)  # the test function, unused here
            report = conjugate_J(log_integral(nu), mu, exact_gradient=False)
            assert report.converged, m
            assert abs(report.value - kl_divergence(mu, nu)) <= 1e-12

    def test_large_space_allocates_no_matrix(self):
        # an m x m Hessian solve took 4 s and a 64 MB traced peak at m = 2048
        rng = np.random.default_rng(2048)
        nu = ProbabilityMeasure(rng.dirichlet(np.ones(2048)))
        mu = ProbabilityMeasure(rng.dirichlet(np.ones(2048)))
        L = log_integral(nu)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = conjugate_J(L, mu)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-9
        assert peak < 4 * 2**20
        assert elapsed < 1.0


class TestOneStep:
    # along d = log(mu/p), the log family's tilt is p(F + t d) ~ p (mu/p)^(n t),
    # so the step t = 1/n lands on p = mu: the first trial for n = 1, a halving
    # of it for n = 2, 4, 8
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 512))
    def test_log_family_lands_on_mu(self, seed, m):
        rng = np.random.default_rng(seed)
        nu, mu = (make_measure(np.maximum(rng.dirichlet(np.ones(m)), 1e-4)) for _ in range(2))
        kl = kl_divergence(mu, nu)
        for n in (1, 2, 4, 8):
            report = conjugate_J(log_integral(nu) if n == 1 else ldp_term(nu, n), mu)
            assert report.converged, n
            if n == 1:
                assert report.iterations == 1
            # within the ascent's own rounding allowance on a value of size KL/n
            bound = convex_duality._ROUNDING_ULPS * convex_duality._EPS * (1.0 + kl / n)
            assert abs(report.value - kl / n) <= bound, n

    @pytest.mark.parametrize(
        ("nu", "mu", "n"),
        [
            # the tilt of a mu mass below tol underflowed, and the report
            # said stationary 1.2e-6 below KL/n
            ([7.4e-10, 8.3e-44, 1 - 7.4e-10], [2.6e-14, 1 - 6.1e-9, 6.1e-9], 2),
            # a floored p dominated a step and the next secant trial was too
            # small (KL = 690.8)
            ([1.0, 1e-300], [6.8e-7, 1 - 6.8e-7], 1),
        ],
        ids=["underflowed_tilt", "floored_step"],
    )
    def test_extreme_pairs_end_stationary(self, nu, mu, n):
        nu, mu = make_measure(nu), make_measure(mu)
        report = conjugate_J(ldp_term(nu, n), mu)
        want = kl_divergence(mu, nu) / n
        assert report.stop_reason == "stationary"
        assert abs(report.value - want) <= 64 * convex_duality._EPS * (1.0 + want)


def reference_fd_gradient(L, values):
    """Central differences one coordinate at a time through evaluate: the reference for the blocked probes."""
    g = np.empty(len(values))
    for i in range(len(values)):
        up = values.copy()
        up[i] += convex_duality.FD_STEP
        dn = values.copy()
        dn[i] -= convex_duality.FD_STEP
        g[i] = (L.evaluate(L.space.function(up)) - L.evaluate(L.space.function(dn))) / (2 * convex_duality.FD_STEP)
    return g


def fd_reports_match_reference(monkeypatch, L, mu):
    """The FD conjugate's report, and whether the reference loop gives it bit for bit."""
    got = conjugate_J(L, mu, exact_gradient=False)
    with monkeypatch.context() as patch:
        patch.setattr(convex_duality, "_fd_gradient", reference_fd_gradient)
        want = conjugate_J(L, mu, exact_gradient=False)
    same = (got.value, got.iterations, got.stop_reason) == (want.value, want.iterations, want.stop_reason)
    return got, same and got.maximizer.values.tobytes() == want.maximizer.values.tobytes()


def reference_conjugate(L, mu, tol=convex_duality.ASCENT_TOL):
    """conjugate_J's ascent with its per-trial forms written out as before.

    Each trial value goes through L.evaluate on a checked function, the
    retraction centres by np.mean and the residual is np.max(np.abs(g)).
    Returns (values, value, iterations, stop_reason).
    """
    space, w, L0 = L.space, mu.weights, L.base_value

    def objective(values):
        if not np.isfinite(values).all():
            return math.inf
        return float(w @ values) - L.evaluate(space.function(values)) + L0

    def descent(values):
        p = L.gradient(values) if L.gradient is not None else convex_duality._fd_gradient(L, values)
        g = w - p
        floored = np.maximum(p, convex_duality._EPS)
        d = np.where((p == 0) & (w > 0), g / floored, np.log(np.maximum(w, convex_duality._EPS) / floored))
        return float(np.max(np.abs(g))), g, d

    def retract(values, step, d):
        with np.errstate(over="ignore", invalid="ignore"):
            moved = values + step * d
            return moved - np.mean(moved)

    return convex_duality._ascend(objective, descent, retract, np.zeros(len(space)), tol)


def conjugate_handles(nu, rate):
    """log_integral, ldp_term, sup_form and a rows-only log_integral on nu's space."""
    L = log_integral(nu)
    return [
        L,
        ldp_term(nu, 3),
        sup_form(RateFunction(rate, L.space)),
        FunctionalHandle("log_integral_rows_only", L.space, rows=L._rows, claims_convex=True),
    ]


class TestRowObjective:
    @pytest.mark.parametrize("index", range(4), ids=["log_integral", "ldp_term", "sup_form", "rows_only"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
    def test_report_has_the_bits_of_the_evaluate_objective(self, index, seed, m):
        rng = np.random.default_rng(seed)
        nu, mu = (make_measure(np.maximum(rng.dirichlet(np.ones(m)), 1e-4)) for _ in range(2))
        L = conjugate_handles(nu, rng.uniform(0.0, 3.0, m))[index]
        report = conjugate_J(L, mu)
        values, value, iterations, reason = reference_conjugate(L, mu)
        assert (repr(report.value), report.iterations, report.stop_reason) == (repr(value), iterations, reason)
        assert report.maximizer.values.tobytes() == values.tobytes()


class TestBlockedFiniteDifferences:
    @pytest.mark.parametrize("m", [3, 16, 64])
    def test_reports_match_the_per_coordinate_loop(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        nu = ProbabilityMeasure(rng.dirichlet(np.ones(m)))
        mu = ProbabilityMeasure(rng.dirichlet(np.ones(m)))
        space = FiniteSpace.default(m)
        rate = rng.uniform(0.0, 3.0, m)
        rate[0], rate[-1] = 0.0, math.inf
        w = nu.weights

        def user_rows(V):
            return np.log((np.exp(V) * w).sum(-1))

        handles = [
            log_integral(nu, space),
            ldp_term(nu, 4, space),
            sup_form(RateFunction(rate, space)),
            FunctionalHandle("user_log_integral", space, rows=user_rows, claims_convex=True),
        ]
        for L in handles:
            report, same = fd_reports_match_reference(monkeypatch, L, mu)
            assert same, L.name
            assert report.iterations > 0, L.name

    def test_reports_match_the_per_coordinate_loop_on_benchmark_inputs(self, monkeypatch):
        # the finite-difference conjugates of the benchmark's entropy_duality
        # workload: floored Dirichlet draws from seed 9009
        rng = np.random.default_rng(9009)

        def weights(m):
            w = np.maximum(rng.dirichlet(np.ones(m)), 1e-4)
            return ProbabilityMeasure(w / w.sum())

        for m in (2, 3, 4):
            nu, mu = weights(m), weights(m)
            rng.uniform(-3.0, 3.0, m)  # the test function, unused here
            report, same = fd_reports_match_reference(monkeypatch, log_integral(nu), mu)
            assert same and report.converged, m

    def test_large_space_stacks_probes_in_blocks(self):
        # one (2m, m) stack of every probe would hold 16 MB at m = 1024
        rng = np.random.default_rng(1024)
        nu = ProbabilityMeasure(rng.dirichlet(np.ones(1024)))
        mu = ProbabilityMeasure(rng.dirichlet(np.ones(1024)))
        L = log_integral(nu)
        tracemalloc.start()
        try:
            report = conjugate_J(L, mu, exact_gradient=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-8
        assert peak < 4 * 2**20


class TestStopReason:
    PAIR = (ProbabilityMeasure([0.5, 0.5]), ProbabilityMeasure([0.75, 0.25]))

    def test_stationary(self):
        nu, mu = self.PAIR
        report = conjugate_J(log_integral(nu), mu)
        assert report.stop_reason == "stationary" and report.converged

    def test_value_cap_on_support_violation(self):
        L = log_integral(ProbabilityMeasure([1.0, 0.0]))
        report = conjugate_J(L, ProbabilityMeasure([0.5, 0.5]))
        assert report.stop_reason == "value_cap"
        assert report.value == math.inf and report.iterations == 1

    def test_uncapped_support_violation_still_stops(self, monkeypatch):
        # the value climbs until a step leaves the float range
        monkeypatch.setattr(convex_duality, "VALUE_CAP", math.inf)
        L = log_integral(ProbabilityMeasure([1.0, 0.0]))
        report = conjugate_J(L, ProbabilityMeasure([0.5, 0.5]))
        assert report.stop_reason == "value_cap"
        assert report.iterations <= 20
        assert np.isfinite(report.maximizer.values).all()

    def test_max_iters(self, monkeypatch):
        monkeypatch.setattr(convex_duality, "MAX_ITERS", 1)
        # log_integral lands on mu in one step; at n = 3 no halving of the
        # first trial is the exact step 1/3, so a second step is needed
        nu, mu = self.PAIR
        report = conjugate_J(ldp_term(nu, 3), mu)
        assert report.stop_reason == "max_iters"
        assert report.iterations == 1 and not report.converged

    def test_stalled_below_float_resolution(self):
        nu, mu = self.PAIR
        report = conjugate_J(log_integral(nu), mu, tol=1e-30)
        assert report.stop_reason == "stalled" and not report.converged
        assert report.value == pytest.approx(KL_3Q_HALF, abs=1e-15)

    def test_line_search_exhausted_on_a_downhill_gradient(self):
        nu, mu = self.PAIR
        L = log_integral(nu)
        downhill = FunctionalHandle(
            "log_integral_downhill",
            L.space,
            rows=L._rows,
            claims_convex=True,
            gradient=lambda values: 2.0 * mu.weights - L.gradient(values),
        )
        report = conjugate_J(downhill, mu)
        assert report.stop_reason == "line_search_exhausted"
        assert report.iterations == 0 and report.value == 0.0

    def test_recover_reasons(self):
        nu = ProbabilityMeasure([0.25, 0.35, 0.4])
        F = FiniteSpace.default(3).function([1.0, -0.5, 0.25])
        J = kl_functional(nu)
        assert recover_L_from_J(J, 0.0, F).stop_reason == "stationary"
        assert recover_L_from_J(J, 0.0, F, tol=1e-30).stop_reason == "stalled"


class TestRecover:
    def test_kl_rate_recovers_log_integral(self):
        nu = ProbabilityMeasure([0.25, 0.35, 0.4])
        L = log_integral(nu)
        F = L.space.function([1.0, -0.5, 0.25])
        report = recover_L_from_J(kl_functional(nu), 0.0, F)
        assert report.converged
        assert report.value == pytest.approx(L(F), abs=1e-8)
        assert isinstance(report.maximizer, ProbabilityMeasure)
        assert tv(report.maximizer.weights, exponential_tilt(nu, F).weights) <= 1e-6

    def test_uniform_pair_oracle(self):
        nu = ProbabilityMeasure([0.5, 0.5])
        F = FiniteSpace.default(2).function([1.0, 0.0])
        report = recover_L_from_J(kl_functional(nu), 0.0, F)
        assert report.value == pytest.approx(0.6201145069582775, abs=1e-9)

    def test_l0_shifts_through(self):
        nu = ProbabilityMeasure([0.5, 0.5])
        F = FiniteSpace.default(2).function([0.3, -0.3])
        base = recover_L_from_J(kl_functional(nu), 0.0, F).value
        shifted = recover_L_from_J(kl_functional(nu), 2.5, F).value
        assert shifted == pytest.approx(base + 2.5, abs=1e-10)

    def test_finite_difference_path_agrees(self):
        nu = ProbabilityMeasure([0.4, 0.6])
        F = FiniteSpace.default(2).function([0.8, -0.2])
        exact = recover_L_from_J(kl_functional(nu), 0.0, F)
        fd = recover_L_from_J(kl_functional(nu), 0.0, F, exact_gradient=False)
        assert abs(exact.value - fd.value) <= 1e-5

    def test_dirac_interior_reads_off_the_pairing(self):
        mu0 = ProbabilityMeasure([0.3, 0.7])
        F = FiniteSpace.default(2).function([2.0, -1.0])
        report = recover_L_from_J(dirac_functional(mu0), 0.5, F)
        assert report.converged
        assert report.value == pytest.approx(0.5 + (0.3 * 2.0 + 0.7 * -1.0), abs=1e-7)

    def test_dirac_corner_snaps_exactly(self):
        mu0 = ProbabilityMeasure([1.0, 0.0])
        F = FiniteSpace.default(2).function([1.25, -3.0])
        report = recover_L_from_J(dirac_functional(mu0), 0.0, F)
        assert report.maximizer.weights.tolist() == [1.0, 0.0]
        assert report.value == 1.25

    @pytest.mark.parametrize("face", [0, 1])
    def test_finite_difference_stops_on_a_face_of_j(self, face):
        # J = KL(mu || nu) while mu[face] >= 0.3 and inf past it; F pushes mass
        # off the face, so the sup sits on it, where the probe that would cross
        # it is blocked and the one-sided slope decides
        nu, c = ProbabilityMeasure([0.5, 0.5]), 0.3
        J = MeasureFunctional(
            "kl_face", lambda mu: kl_divergence(mu, nu) if mu.weights[face] >= c else math.inf, feasible_start=nu
        )
        values = np.zeros(2)
        values[face] = -2.0
        mu = np.full(2, 1 - c)
        mu[face] = c
        closed = float(mu @ values - mu @ np.log(mu / nu.weights))
        report = recover_L_from_J(J, 0.0, FiniteSpace.default(2).function(values), exact_gradient=False)
        assert report.converged
        assert abs(report.maximizer.weights[face] - c) <= convex_duality.FD_STEP
        assert closed - 2 * convex_duality.FD_STEP <= report.value <= closed + 1e-12

    @pytest.mark.parametrize("face", [0, 1])
    def test_one_sided_slope_on_a_face(self, face):
        # on the face mu[face] = 0.3 with F pulling mass onto it, only the probe
        # away from the face is feasible: a forward difference for face 0, a
        # backward one for face 1, each unclipped and within O(FD_STEP) of the slope
        nu, c = np.array([0.5, 0.5]), 0.3
        F = np.zeros(2)
        F[face] = 1.0
        w = np.full(2, 1 - c)
        w[face] = c

        def objective(w):
            return float(w @ F - w @ np.log(w / nu)) if w[face] >= c else -math.inf

        slope = F[0] - F[1] - math.log(w[0] / nu[0]) + math.log(w[1] / nu[1])
        g = convex_duality._tangent_objective_grad(objective, w, objective(w))
        assert g[1] == 0.0
        assert g[0] == pytest.approx(slope, abs=1e-5)
        assert abs(slope) > 1.0

    @pytest.mark.parametrize("L0", [np.nan, np.inf])
    def test_non_finite_l0_rejected(self, L0):
        F = FiniteSpace.default(2).function([0.0, 0.0])
        with pytest.raises(ValidationError):
            recover_L_from_J(kl_functional(ProbabilityMeasure([0.5, 0.5])), L0, F)

    def test_start_length_mismatch_raises(self):
        F = FiniteSpace.default(3).function([0.0, 0.0, 0.0])
        with pytest.raises(SpaceMismatch):
            recover_L_from_J(kl_functional(ProbabilityMeasure([0.5, 0.5])), 0.0, F)

    def test_accepted_start_builds_no_corners(self):
        # no m x m array per probed start: one was ~1 GB at m = 512
        m = 512
        nu = ProbabilityMeasure(np.full(m, 1.0 / m))
        F = FiniteSpace.default(m).zero_function()
        tracemalloc.start()
        try:
            report = recover_L_from_J(kl_functional(nu), 0.0, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged and report.iterations == 0
        assert peak < 8 * 2**20

    def test_infeasible_j_raises(self):
        J = MeasureFunctional("wall", lambda mu: math.inf)
        F = FiniteSpace.default(3).function([0.0, 0.0, 0.0])
        with pytest.raises(InfeasibleJ):
            recover_L_from_J(J, 0.0, F)
        # the support of a feasible start is probed too
        J = MeasureFunctional("wall", lambda mu: math.inf, feasible_start=ProbabilityMeasure([0.5, 0.5, 0.0]))
        with pytest.raises(InfeasibleJ):
            recover_L_from_J(J, 0.0, F)

    def test_zero_weight_start_costs_few_j_calls(self):
        # the floored start charges nu's zero, so J is infinite there and the
        # start's support is the one other start tried: a few calls, not one per point
        m = 512
        rng = np.random.default_rng(m)
        w = rng.dirichlet(np.ones(m))
        w[-1] = 0.0
        kl = kl_functional(make_measure(w))
        calls = []
        J = MeasureFunctional(
            "counted", lambda mu: calls.append(1) or kl(mu), gradient=kl.gradient, feasible_start=kl.feasible_start
        )
        report = recover_L_from_J(J, 0.0, FiniteSpace.default(m).function(rng.uniform(-3.0, 3.0, m)))
        assert report.converged
        assert len(calls) <= 8

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1).map(closed_form_case))
    @example((np.array([0.99999995, 5e-08]), np.zeros(2)))  # snapping its 5e-08 of tilt mass costs 5e-08
    def test_kl_value_is_the_closed_form(self, case):
        w, values = case
        nu = make_measure(w)
        F = FiniteSpace.default(len(w)).function(values)
        want = log_integral(nu).evaluate(F)
        got = recover_L_from_J(kl_functional(nu), 0.0, F).value
        # the ascent stops with every centered gradient component within tol,
        # where the value falls short of the sup by KL(mu || tilt) <= tol**2 / 2;
        # the rest is rounding, a few eps per term of the value's m-term sums,
        # each term weighted by the tilt: |F| and |log(tilt / nu)| = |F - want|
        on = nu.weights > 0
        tilt = nu.weights[on] * np.exp(values[on] - want)
        scale = 1.0 + float(tilt @ (np.abs(values[on]) + np.abs(values[on] - want)))
        bound = convex_duality.ASCENT_TOL**2 / 2 + 4 * (len(w) + 2) * np.finfo(float).eps * scale
        assert abs(got - want) <= bound

    @pytest.mark.parametrize("exact", [True, False])
    def test_reference_measure_with_a_zero_weight(self, exact):
        # every interior start puts mass where KL is infinite; the ascent runs on nu's support
        nu = ProbabilityMeasure([0.5, 0.5, 0.0])
        F = FiniteSpace.default(3).function([1.0, 0.0, 2.0])
        report = recover_L_from_J(kl_functional(nu), 0.0, F, exact_gradient=exact)
        assert report.converged
        assert report.value == pytest.approx(math.log(0.5 * math.e + 0.5), abs=1e-12)
        w = report.maximizer.weights
        assert w[2] == 0.0
        assert tv(w[:2], np.array([math.e, 1.0]) / (math.e + 1.0)) <= 1e-9


class TestTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, "a", None, True])
    def test_both_ascents_refuse_a_bad_tol(self, tol):
        nu = ProbabilityMeasure([0.5, 0.5])
        F = FiniteSpace.default(2).function([1.0, 0.0])
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            conjugate_J(log_integral(nu), ProbabilityMeasure([0.75, 0.25]), tol=tol)
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            recover_L_from_J(kl_functional(nu), 0.0, F, tol=tol)
