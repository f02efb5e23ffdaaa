import math
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
from vflab.functionals import FunctionalHandle, ldp_term
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


def central_difference_jacobian(fn, values: np.ndarray) -> np.ndarray:
    h = 1e-6
    cols = []
    for i in range(len(values)):
        e = np.zeros(len(values))
        e[i] = h
        cols.append((fn(values + e) - fn(values - e)) / (2 * h))
    return np.column_stack(cols)


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

    def test_first_coordinate_gauge_agrees(self):
        nu = ProbabilityMeasure([0.3, 0.7])
        mu = ProbabilityMeasure([0.6, 0.4])
        L = log_integral(nu)
        a = conjugate_J(L, mu, pin="mean")
        b = conjugate_J(L, mu, pin="first")
        assert abs(a.value - b.value) <= 1e-8
        with pytest.raises(ValidationError):
            conjugate_J(L, mu, pin="nowhere")

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

    def test_first_order_path_stops_without_a_strict_gain(self):
        # a handle with an exact gradient but no Hessian takes gradient steps
        nu, mu = criterion_4_pair(87)
        L = log_integral(nu)
        no_hessian = FunctionalHandle(
            "log_integral_without_hessian",
            L.space,
            L.evaluate,
            claims_maximal=False,
            claims_convex=True,
            claims_sigma_continuous=True,
            gradient=L.gradient,
        )
        report = conjugate_J(no_hessian, mu, AscentOptions(max_iters=1000))
        assert report.iterations < 1000
        assert abs(report.value - kl_divergence(mu, nu)) <= 1e-12


class TestHessian:
    @pytest.mark.parametrize(
        "handle",
        [
            log_integral(ProbabilityMeasure([0.1, 0.2, 0.3, 0.4])),
            ldp_term(ProbabilityMeasure([0.1, 0.2, 0.3, 0.4]), 3),
        ],
        ids=["log_integral", "ldp_term_n3"],
    )
    def test_matches_central_differences_of_gradient(self, handle):
        values = np.array([0.4, -0.7, 0.1, 0.25])
        H = handle.hessian(values)
        assert np.array_equal(H, H.T)
        fd = central_difference_jacobian(handle.gradient, values)
        assert np.max(np.abs(H - fd)) <= 1e-6


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
