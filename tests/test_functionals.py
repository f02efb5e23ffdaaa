import math
import tracemalloc

import numpy as np
import pytest
from conftest import canonical_suite, inf_minus, pit_function, plus, pointwise_max, sample_function, shifted, sup_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from vflab import (
    FiniteSpace,
    FunctionalHandle,
    ProbabilityMeasure,
    RateFunction,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from vflab.errors import AllInfiniteRate, SpaceMismatch, ValidationError
from vflab.functionals import DEFAULT_TAIL_GRID, TailDomain
from vflab.space import _lse


class TestLogIntegral:
    def test_probability_base_value_is_zero(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        assert L.base_value == pytest.approx(0.0, abs=1e-15)

    def test_two_term_oracle(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        F = L.space.function([math.log(3.0), 0.0])
        assert L(F) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_point_mass_reads_off_first_point(self):
        L = log_integral(ProbabilityMeasure([1.0, 0.0]))
        F = L.space.function([3.25, -44.0])
        assert L(F) == pytest.approx(3.25, abs=1e-12)

    def test_raw_weights_accepted_with_mass_logged(self):
        L = log_integral([1.0, 1.0])
        assert L.base_value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_huge_values_do_not_overflow(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        F = L.space.function([800.0, -800.0])
        assert L(F) == pytest.approx(800.0 + math.log(0.5), abs=1e-9)

    def test_gradient_is_the_tilted_measure(self):
        nu = ProbabilityMeasure([0.25, 0.75])
        L = log_integral(nu)
        values = np.array([1.0, -0.5])
        z = np.exp(values) * nu.weights
        assert np.allclose(L.gradient(values), z / z.sum(), atol=1e-14)

    def test_claims(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        assert L.claims_convex

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_convexity(self, a, b, theta):
        space = FiniteSpace.default(4)
        L = log_integral(ProbabilityMeasure([0.1, 0.2, 0.3, 0.4]), space)
        F, G = space.function(a), space.function(b)
        mix = space.function(theta * F.values + (1 - theta) * G.values)
        assert L(mix) <= theta * L(F) + (1 - theta) * L(G) + 1e-9

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_strictly_above_sup_form_on_nonconstant_f(self, a):
        vals = np.array(a)
        if np.ptp(vals) < 1e-6:
            return
        space = FiniteSpace.default(3)
        nu = ProbabilityMeasure(np.full(3, 1 / 3))
        L = log_integral(nu, space)
        lower = float(np.max(vals + np.log(nu.weights)))
        assert L(space.function(vals)) > lower

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            log_integral(ProbabilityMeasure([0.5, 0.5]), FiniteSpace.default(3))

    def test_function_of_another_length_refused(self):
        L = log_integral(ProbabilityMeasure([0.25, 0.75]))
        with pytest.raises(SpaceMismatch):
            L.evaluate(FiniteSpace.default(3).function([0.0, 0.0, 0.0]))

    def test_function_on_an_equal_length_space_refused(self):
        L = log_integral(ProbabilityMeasure([0.25, 0.75]))
        with pytest.raises(SpaceMismatch):
            L.evaluate(FiniteSpace.from_line([5.0, 7.0]).function([0.0, 0.0]))
        # an equal space built apart is the same space
        assert L.evaluate(FiniteSpace.default(2).function([0.0, 0.0])) == L.base_value

    def test_bad_raw_weights(self):
        with pytest.raises(ValidationError):
            log_integral([1.0, -1.0])
        with pytest.raises(ValidationError):
            log_integral([0.0, 0.0])
        with pytest.raises(ValidationError):
            log_integral([np.inf, 1.0])


class TestSupForm:
    def test_infinite_rate_excludes_point(self):
        I = RateFunction([0.0, np.inf], FiniteSpace.default(2))
        L = sup_form(I)
        assert L(L.space.function([0.7, 99.0])) == 0.7

    def test_two_point_example(self):
        I = RateFunction([0.0, 1.0], FiniteSpace.default(2))
        L = sup_form(I)
        assert L(L.space.function([0.2, 1.5])) == 0.5

    def test_constants_shift_by_l0(self):
        I = RateFunction([0.0, 0.3, 2.0], FiniteSpace.default(3))
        L = sup_form(I, L0=1.25)
        for c in (-3.0, 0.0, 7.5):
            assert L(L.space.constant_function(c)) == pytest.approx(1.25 + c, abs=1e-12)

    def test_all_infinite_rejected(self):
        I = RateFunction([np.inf, np.inf], FiniteSpace.default(2))
        with pytest.raises(AllInfiniteRate):
            sup_form(I)

    @pytest.mark.parametrize("L0", [np.nan, np.inf, -np.inf])
    def test_non_finite_l0_rejected(self, L0):
        I = RateFunction([0.0, 1.0], FiniteSpace.default(2))
        with pytest.raises(ValidationError):
            sup_form(I, L0)

    @pytest.mark.parametrize("L0", ["a", None, True])
    def test_non_number_l0_refused(self, L0):
        I = RateFunction([0.0, 1.0], FiniteSpace.default(2))
        with pytest.raises(ValidationError, match=f"^L0 must be a real number, got {L0!r}$"):
            sup_form(I, L0=L0)

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_lattice_homomorphism(self, a, b):
        space = FiniteSpace.default(4)
        L = sup_form(RateFunction([0.0, 0.5, 1.0, np.inf], space), L0=-0.7)
        F, G = space.function(a), space.function(b)
        assert L(pointwise_max(F, G)) == pytest.approx(max(L(F), L(G)), abs=1e-12)


class TestLdpTerm:
    def test_n1_is_log_integral_bit_for_bit(self):
        mu = ProbabilityMeasure([0.3, 0.7])
        L1 = ldp_term(mu, 1)
        L = log_integral(mu)
        rng = np.random.default_rng(0)
        for _ in range(20):
            F = sample_function(L.space, rng, -5, 5)
            G = L1.space.function(F.values)
            assert L1(G) == L(F)

    def test_dominant_term_oracle_n64(self):
        L = ldp_term(ProbabilityMeasure([0.5, 0.5]), 64)
        F = L.space.function([1.0, 0.0])
        assert L(F) == pytest.approx(0.9891695753037508, abs=1e-12)

    def test_constant_normalization(self):
        L = ldp_term(ProbabilityMeasure([0.2, 0.8]), 17)
        assert L(L.space.constant_function(-2.5)) == pytest.approx(-2.5, abs=1e-12)

    def test_invalid_n(self):
        mu = ProbabilityMeasure([0.5, 0.5])
        with pytest.raises(ValidationError):
            ldp_term(mu, 0)
        with pytest.raises(ValidationError):
            ldp_term(mu, 2.5)
        for n in (10**400, 2**1024, math.inf, math.nan):  # past the float range, or no number
            with pytest.raises(ValidationError):
                ldp_term(mu, n)

    def test_n_times_f_past_the_float_range(self):
        # n F overflows: the value is the top supported F less a vanishing
        # correction, the gradient sits on that point, and rows that stay
        # in range keep the plain form's bits
        L = ldp_term(ProbabilityMeasure([0.25, 0.25, 0.5]), 4)
        rows = np.array([[1e308, 0.0, 1.0], [0.0, 0.0, 1.0], [-1e308, -1.7e308, -1e308]])
        assert L.evaluate_many(rows).tolist() == [1e308, _lse(4 * rows[1] + np.log([0.25, 0.25, 0.5])) / 4, -1e308]
        assert L(L.space.function(rows[0])) == 1e308
        assert L.gradient(rows[0]).tolist() == [1.0, 0.0, 0.0]
        # a zero-weight point drops out however large F is there
        Z = ldp_term(ProbabilityMeasure([2 / 3, 0.0, 1 / 3]), 4)
        assert Z(Z.space.function([1.0, 1e308, 2.0])) == pytest.approx(Z(Z.space.function([1.0, 0.0, 2.0])), abs=1e-12)
        assert Z.gradient(np.array([1.0, 1e308, 2.0]))[1] == 0.0

    def test_n_times_f_underflowing_everywhere(self):
        # n F underflows to -inf on every point: value and gradient both take
        # the shifted form
        L = ldp_term(ProbabilityMeasure([0.5, 0.5]), 4)
        values = np.array([-1e308, -1.5e308])
        assert L(L.space.function(values)) == -1e308
        assert L.gradient(values).tolist() == [1.0, 0.0]

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3), st.integers(1, 2000))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_function_range(self, a, n):
        space = FiniteSpace.default(3)
        L = ldp_term(ProbabilityMeasure([0.2, 0.5, 0.3]), n, space)
        F = space.function(a)
        v = L(F)
        assert min(a) - 1e-9 <= v <= max(a) + 1e-9

    def test_name_carries_n(self):
        assert ldp_term(ProbabilityMeasure([1.0]), 12).name == "ldp_term(n=12)"


class TestTailLimsup:
    def test_vanishing_tail(self):
        L = tail_limsup()
        F = L.space.function(np.sin(DEFAULT_TAIL_GRID), 0.0)
        assert L(F) == 0.0

    def test_ramp_family_stays_at_one(self):
        L = tail_limsup()
        for scale in (1.0, 4.0, 1024.0, 2.0**24):
            assert L(L.space.ramp(scale)) == 1.0

    def test_constant(self):
        L = tail_limsup()
        assert L(L.space.constant_function(-1.5)) == -1.5

    def test_claims(self):
        L = tail_limsup()
        assert L.claims_convex

    def test_base_value(self):
        assert tail_limsup().base_value == 0.0


class TestTailDomain:
    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            TailDomain([1.0, 1.0])
        with pytest.raises(ValidationError):
            TailDomain([-1.0, 2.0])
        with pytest.raises(ValidationError):
            TailDomain([])

    def test_tail_value_must_be_finite(self):
        d = TailDomain([0.0, 1.0])
        with pytest.raises(ValidationError):
            d.function([0.0, 0.0], np.inf)
        for bad in (None, "a", False):
            with pytest.raises(ValidationError, match=f"^tail value must be a real number, got {bad!r}$"):
                d.function([0.0, 0.0], bad)

    def test_operations_touch_the_tail(self):
        d = TailDomain([0.0, 1.0])
        F = d.function([1.0, 2.0], 0.5)
        G = d.function([0.5, 0.5], 2.0)
        assert shifted(F, 1.0).tail_value == 1.5
        assert F.scaled(2.0).tail_value == 1.0
        assert plus(F, G).tail_value == 2.5
        assert pointwise_max(F, G).tail_value == 2.0
        assert sup_distance(F, G) == 1.5  # tail gap dominates
        assert inf_minus(F, G) == -1.5

    def test_pit_sinks_the_tail(self):
        d = TailDomain([0.0, 1.0, 2.0])
        pit = pit_function(d, 1, 16.0)
        assert pit.values.tolist() == [-16.0, 0.0, -16.0]
        assert pit.tail_value == -16.0

    def test_mismatched_grid_function_rejected(self):
        d = TailDomain([0.0, 1.0])
        other = FiniteSpace.from_line([0.0, 2.0]).function([1.0, 1.0])
        from vflab.functionals import TailFunction

        with pytest.raises(SpaceMismatch):
            TailFunction(other, 0.0, d)

    def test_functions_differing_only_in_the_tail_are_unequal(self):
        d = TailDomain([0.0, 1.0])
        F, G = d.function([1.0, 2.0], 0.5), d.function([1.0, 2.0], 0.25)
        assert F != G and F.values.tolist() == G.values.tolist()
        assert F == d.function([1.0, 2.0], 0.5)
        assert hash(F) == hash(d.function([1.0, 2.0], 0.5))

    def test_grid_function_refused(self):
        d = TailDomain([0.0, 1.0])
        with pytest.raises(SpaceMismatch):
            tail_limsup(d).evaluate(FiniteSpace.from_line([0.0, 1.0]).function([0.0, 0.0]))

    def test_default_grid_shape(self):
        d = TailDomain()
        assert len(d) == 513
        assert d.coords[0] == 0.0 and d.coords[-1] == 10.0


def test_evaluate_deterministic(builtin_handle):
    rng = np.random.default_rng(123)
    F = sample_function(builtin_handle.space, rng, -5, 5)
    assert builtin_handle(F) == builtin_handle(F)


def test_large_default_space_evaluates_a_separately_built_function():
    w = np.full(5000, 1.0 / 5000)
    L = log_integral(w, FiniteSpace.default(5000))
    assert L.evaluate(FiniteSpace.default(5000).zero_function()) == pytest.approx(0.0, abs=1e-12)


def test_default_space_stores_no_matrix():
    w = np.full(4096, 1.0 / 4096)
    tracemalloc.start()
    try:
        L = log_integral(w, FiniteSpace.default(4096))
        value = L.evaluate(FiniteSpace.default(4096).zero_function())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.0, abs=1e-12)
    assert peak < 4 * 2**20  # one 4096 x 4096 float matrix is 128 MB


def row_handles():
    """The four built-ins and a handle given by log_integral's row function alone."""
    handles = canonical_suite()
    L = handles[0]
    return handles + [FunctionalHandle("log_integral_rows_only", L.space, rows=L._rows, claims_convex=True)]


@pytest.mark.parametrize("index", range(5), ids=["log_integral", "sup_form", "ldp_term", "tail_limsup", "rows_only"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 30.0, 1e3, 1e300]))
def test_row_function_on_a_bare_row_gives_the_bits_of_evaluate(index, seed, scale):
    # conjugate_J runs the row function on its own iterate: the row must come
    # back untouched, and the value must be evaluate's on the checked function
    L = row_handles()[index]
    row = np.random.default_rng(seed).uniform(-scale, scale, L.space.row_width)
    kept = row.copy()
    got = float(L._rows(row))
    assert row.tobytes() == kept.tobytes()
    assert repr(got) == repr(L.evaluate(L.space.from_row(kept)))
