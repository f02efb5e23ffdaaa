import math
import time
import tracemalloc

import numpy as np
import pytest

from vflab import (
    AscentOptions,
    ProbabilityMeasure,
    conjugate_J,
    dirac_functional,
    exponential_tilt,
    kl_divergence,
    kl_functional,
    log_integral,
    recover_L_from_J,
)
from vflab.errors import InfeasibleJ, SpaceMismatch, ValidationError
from vflab.functionals import FunctionalHandle
from vflab.space import BoundedFunction, FiniteSpace

KL_3Q_HALF = 0.13081203594113697  # KL((0.75,0.25) || (0.5,0.5))


def tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


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

    def test_nonconvex_claim_warns(self):
        space = FiniteSpace.default(2)
        handle = FunctionalHandle(
            "just_max",
            space,
            lambda F: float(np.max(F.values)),
            claims_maximal=True,
            claims_convex=False,
            claims_sigma_continuous=True,
        )
        with pytest.warns(UserWarning, match="convex"):
            conjugate_J(handle, ProbabilityMeasure([0.5, 0.5]), AscentOptions(max_iters=5))

    def test_length_mismatch(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        with pytest.raises(SpaceMismatch):
            conjugate_J(L, ProbabilityMeasure([1.0]))

    @pytest.mark.parametrize("case", [36, 87])
    def test_newton_converges_on_float_flat_cases(self, case):
        # first-order ascent stalled on these pairs with max|g| ~ 1.1e-8:
        # case 87 spun to max_iters, case 36 hit the line-search floor
        nu, mu = criterion_4_pair(case)
        report = conjugate_J(log_integral(nu), mu)
        assert report.converged
        assert report.iterations <= 20
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-12

    def test_handle_without_hessian_converges(self):
        # the direction needs the gradient alone, so this handle takes the
        # same path as log_integral itself
        nu, mu = criterion_4_pair(87)
        L = log_integral(nu)
        gradient_only = FunctionalHandle(
            "log_integral_gradient_only",
            L.space,
            L.evaluate,
            claims_maximal=False,
            claims_convex=True,
            claims_sigma_continuous=True,
            gradient=L.gradient,
        )
        report = conjugate_J(gradient_only, mu, AscentOptions(max_iters=1000))
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

    def test_uncapped_support_violation_still_stops(self):
        # the value climbs until a step leaves the float range
        L = log_integral(ProbabilityMeasure([1.0, 0.0]))
        report = conjugate_J(L, ProbabilityMeasure([0.5, 0.5]), AscentOptions(value_cap=math.inf))
        assert report.stop_reason == "value_cap"
        assert report.iterations <= 20
        assert np.isfinite(report.maximizer.values).all()

    def test_max_iters(self):
        nu, mu = self.PAIR
        report = conjugate_J(log_integral(nu), mu, AscentOptions(max_iters=1))
        assert report.stop_reason == "max_iters"
        assert report.iterations == 1 and not report.converged

    def test_stalled_below_float_resolution(self):
        nu, mu = self.PAIR
        report = conjugate_J(log_integral(nu), mu, AscentOptions(grad_tolerance=1e-30))
        assert report.stop_reason == "stalled" and not report.converged
        assert report.value == pytest.approx(KL_3Q_HALF, abs=1e-15)

    def test_line_search_exhausted_on_a_downhill_gradient(self):
        nu, mu = self.PAIR
        L = log_integral(nu)
        downhill = FunctionalHandle(
            "log_integral_downhill",
            L.space,
            L.evaluate,
            claims_maximal=False,
            claims_convex=True,
            claims_sigma_continuous=True,
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
        tight = AscentOptions(grad_tolerance=1e-30)
        assert recover_L_from_J(J, 0.0, F, tight).stop_reason == "stalled"


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

    def test_start_length_mismatch_raises(self):
        F = FiniteSpace.default(3).function([0.0, 0.0, 0.0])
        with pytest.raises(SpaceMismatch):
            recover_L_from_J(kl_functional(ProbabilityMeasure([0.5, 0.5])), 0.0, F)

    def test_accepted_start_builds_no_corners(self):
        # one m x m identity per corner candidate peaked at ~1 GB for m = 512
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
        from vflab.convex_duality import MeasureFunctional

        J = MeasureFunctional("wall", lambda mu: math.inf)
        F = FiniteSpace.default(3).function([0.0, 0.0, 0.0])
        with pytest.raises(InfeasibleJ):
            recover_L_from_J(J, 0.0, F)


class TestAscentOptions:
    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValidationError):
            AscentOptions(step_init=0.0)
        with pytest.raises(ValidationError):
            AscentOptions(grad_tolerance=-1.0)
        with pytest.raises(ValidationError):
            AscentOptions(max_iters=0)
        for knob in ("step_init", "grad_tolerance", "value_cap", "finite_difference_h"):
            with pytest.raises(ValidationError):
                AscentOptions(**{knob: math.nan})
        for knob in ("step_init", "grad_tolerance", "finite_difference_h"):
            with pytest.raises(ValidationError):
                AscentOptions(**{knob: math.inf})
        assert AscentOptions(value_cap=math.inf).value_cap == math.inf

    def test_defaults(self):
        opts = AscentOptions()
        assert opts.max_iters == 10000
        assert opts.grad_tolerance == 1e-8
