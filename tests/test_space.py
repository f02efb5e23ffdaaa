import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import inf_minus, pit_function, plus, pointwise_max, shifted, sup_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from vflab import (
    BoundedFunction,
    FiniteSpace,
    GridFunction,
    PitSchedule,
    ProbabilityMeasure,
    RateFunction,
    check_sigma_continuity,
    cramer_sequence,
    log_integral,
    make_measure,
    sublevel_set,
    tail_limsup,
    tightness_scan,
    validate_decreasing,
    vanishing_sequence,
)
from vflab.errors import (
    AllZero,
    NegativeTerm,
    NegativeWeight,
    NotMonotone,
    SequenceNotVanishing,
    SpaceMismatch,
    ValidationError,
)
from vflab.functionals import TailDomain
from vflab.space import _lse, _weights


class TestFiniteSpace:
    def test_default_labels_and_discrete_metric(self):
        s = FiniteSpace.default(3)
        assert s.point_ids == ("x1", "x2", "x3")
        assert s.subset_diameter([0, 1]) == 1.0
        assert s.subset_diameter([2, 2]) == 0.0

    def test_from_line(self):
        s = FiniteSpace.from_line([0.0, 0.5, 1.0])
        assert s.point_ids == ("0.0", "0.5", "1.0")
        assert s.subset_diameter([0, 2]) == 1.0
        assert np.allclose([[s.subset_diameter([i, j]) for j in range(3)] for i in range(3)], [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])

    def test_explicit_metric_validation(self):
        with pytest.raises(ValidationError):
            FiniteSpace(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
        with pytest.raises(ValidationError):
            FiniteSpace(["a", "b"], [[0.1, 1], [1, 0]])  # nonzero diagonal
        with pytest.raises(ValidationError):
            FiniteSpace(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle
        with pytest.raises(ValidationError):
            FiniteSpace(["a", "a"])  # duplicate labels
        with pytest.raises(ValidationError):
            FiniteSpace([])

    def test_metric_entries_must_be_finite(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="metric entries must be finite"):
                FiniteSpace(["a", "b"], [[0.0, bad], [bad, 0.0]])

    def test_metric_entries_must_be_nonnegative(self):
        # symmetric with a zero diagonal, so only the sign check can refuse it
        with pytest.raises(ValidationError, match="metric must be nonnegative"):
            FiniteSpace(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]])

    def test_subset_diameter_reads_a_given_matrix(self):
        s = FiniteSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
        assert s.subset_diameter([1, 2]) == 1.5
        assert s.subset_diameter(np.array([2, 0, 1])) == 2.0
        assert s.subset_diameter([1, 1]) == 0.0
        assert s.subset_diameter([2]) == 0.0

    def test_default_skips_the_cubic_triangle_check(self):
        # the triangle loop is O(m^3): about 30 s at m = 2048 on a 2-vCPU Xeon
        t0 = time.perf_counter()
        s = FiniteSpace.default(2048)
        assert time.perf_counter() - t0 < 2.0
        assert s.subset_diameter([0, 2047]) == 1.0 and s.subset_diameter([5, 5]) == 0.0

    def test_subset_diameter(self):
        s = FiniteSpace.from_line([0.0, 0.25, 0.5, 1.0])
        assert s.subset_diameter([1, 3]) == 0.75
        assert s.subset_diameter([2]) == 0.0
        assert s.subset_diameter([]) == 0.0
        d = FiniteSpace.default(4)
        assert d.subset_diameter([0, 2, 3]) == 1.0

    def test_equality(self):
        a = FiniteSpace.from_line([0.0, 1.0])
        b = FiniteSpace.from_line([0.0, 1.0])
        c = FiniteSpace.from_line([0.0, 2.0], ["0.0", "1.0"])
        assert a == b and a != c
        assert FiniteSpace.default(2) != FiniteSpace.default(3)

    def test_large_default_spaces_compare_equal(self):
        # the discrete metric is implied, so == has no matrix to compare
        a, b = FiniteSpace.default(5000), FiniteSpace.default(5000)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.subset_diameter([0, 4999]) == 1.0 and a.subset_diameter([3, 3]) == 0.0
        d = FiniteSpace.default(3)
        assert [[d.subset_diameter([i, j]) for j in range(3)] for i in range(3)] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_signed_zeros_are_distinct_points(self):
        s = FiniteSpace.from_line([0.0, -0.0])
        assert s.point_ids == ("0.0", "-0.0")
        assert FiniteSpace.from_line([0.0, 1.0]) != FiniteSpace.from_line([-0.0, 1.0])

    @pytest.mark.parametrize(
        "coords, detail",
        [
            ([0.5, 0.5], "point labels must be unique"),
            ([1.0, 0.5, 1.0], "point labels must be unique"),
            # non-finite coordinates are refused before their labels are compared
            ([math.nan, math.nan], "coords must be finite and match the label count"),
            ([math.nan, -math.nan], "coords must be finite and match the label count"),
            ([math.inf, math.inf], "coords must be finite and match the label count"),
            ([math.nan, 1.0], "coords must be finite and match the label count"),
            ([-math.inf, 1.0], "coords must be finite and match the label count"),
            ([], "a space needs at least one point"),
        ],
    )
    def test_line_labels_refused_as_repr_would_collide(self, coords, detail):
        with pytest.raises(ValidationError) as err:
            FiniteSpace.from_line(coords)
        assert str(err.value) == detail

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1e-300, math.inf, -math.inf, math.nan]) | st.floats(), max_size=6))
    def test_line_labels_are_the_reprs_of_the_coords(self, coords):
        labels = [repr(float(c)) for c in coords]
        ok = len(set(labels)) == len(labels) and all(math.isfinite(c) for c in coords) and coords
        if not ok:
            with pytest.raises(ValidationError):
                FiniteSpace.from_line(coords)
            return
        s = FiniteSpace.from_line(coords)
        assert s.point_ids == tuple(labels)
        assert s == FiniteSpace.from_line(coords, point_ids=labels)

    def test_derived_and_given_labels_compare_by_their_bytes(self):
        c = [0.0, 0.1, 1 / 3, 2.5, 1e-300]
        derived = FiniteSpace.from_line(c)
        given_ = FiniteSpace.from_line(c, point_ids=[repr(x) for x in c])
        assert derived == given_ and given_ == derived and hash(derived) == hash(given_)
        assert derived.point_ids == given_.point_ids
        assert FiniteSpace.from_line(c, point_ids=["a", "b", "c", "d", "e"]) != FiniteSpace.from_line(c)
        named = FiniteSpace([f"x{i}" for i in range(1, 4)])
        assert named == FiniteSpace.default(3) and hash(named) == hash(FiniteSpace.default(3))

    def test_derived_labels_are_built_on_first_use(self):
        s = FiniteSpace.from_line(np.arange(9) / 8)
        assert s._ids is None and len(s) == 9
        assert hash(s) == hash(FiniteSpace.from_line(np.arange(9) / 8)) and s._ids is None
        assert s.point_ids[3] == repr(3 / 8) and s._ids is not None
        assert FiniteSpace.default(4)._ids is None

    @pytest.mark.parametrize("n", [True, 2.5, "3", None])
    def test_default_refuses_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValidationError, match="a space size must be an integer, got "):
            FiniteSpace.default(n)

    def test_default_keeps_its_size_message_and_takes_numpy_integers(self):
        with pytest.raises(ValidationError, match="a space needs at least one point"):
            FiniteSpace.default(0)
        assert FiniteSpace.default(np.int64(3)).point_ids == ("x1", "x2", "x3")

    def test_tail_domain_labels_are_its_grids(self):
        for d in (TailDomain(), TailDomain([0.0, 0.5, 2.0])):
            assert d._ids is None and d.grid._ids is None
            assert d.point_ids == d.grid.point_ids
        assert d.point_ids == ("0.0", "0.5", "2.0")

    def test_tail_domain_builds_no_labels_in_use(self):
        d = TailDomain()
        L = tail_limsup(d)
        assert L.evaluate(d.ramp(1.0)) == 1.0
        assert check_sigma_continuity(L, vanishing_sequence(d)).violations == 1
        assert d._ids is None and d.grid._ids is None

    def test_tail_domain_never_equals_its_grid(self):
        g = [0.0, 0.5, 2.0]
        assert TailDomain(g) != FiniteSpace.from_line(g)
        assert FiniteSpace.from_line(g) != TailDomain(g)
        assert TailDomain(g) == TailDomain(g)

    def test_pit_function(self):
        s = FiniteSpace.default(3)
        pit = pit_function(s, 1, 8.0)
        assert pit.values.tolist() == [-8.0, 0.0, -8.0]


class TestBoundedFunction:
    def test_validation(self):
        s = FiniteSpace.default(2)
        with pytest.raises(ValidationError):
            BoundedFunction([1.0], s)
        with pytest.raises(ValidationError):
            BoundedFunction([1.0, np.inf], s)
        with pytest.raises(ValidationError):
            BoundedFunction([1.0, np.nan], s)

    def test_equal_functions_and_rates_hash_equal(self):
        derived, given_ = FiniteSpace.from_line([0.0, 1.0]), FiniteSpace.from_line([0.0, 1.0], ["0.0", "1.0"])
        F, G = derived.function([-0.0, 2.0]), given_.function([0.0, 2.0])
        assert F == G and hash(F) == hash(G)
        I, J = RateFunction([-0.0, math.inf], derived), RateFunction([0.0, math.inf], given_)
        assert I == J and hash(I) == hash(J)

    def test_values_frozen(self):
        F = FiniteSpace.default(2).function([1.0, 2.0])
        with pytest.raises(ValueError):
            F.values[0] = 9.0

    def test_arithmetic(self):
        s = FiniteSpace.default(3)
        F = s.function([1.0, -2.0, 0.5])
        G = s.function([0.0, 1.0, 0.5])
        assert shifted(F, 2.0).values.tolist() == [3.0, 0.0, 2.5]
        assert F.scaled(-1.0).values.tolist() == [-1.0, 2.0, -0.5]
        assert plus(F, G).values.tolist() == [1.0, -1.0, 1.0]
        assert pointwise_max(F, G).values.tolist() == [1.0, 1.0, 0.5]
        assert sup_distance(F, G) == 3.0
        assert inf_minus(F, G) == -3.0

    def test_space_mismatch(self):
        F = FiniteSpace.default(2).function([1.0, 2.0])
        G = FiniteSpace.default(3).function([1.0, 2.0, 3.0])
        with pytest.raises(SpaceMismatch):
            validate_decreasing([F, G])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.lists(st.floats(-50, 50), min_size=8, max_size=8),
        st.lists(st.floats(-50, 50), min_size=8, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_sup_distance_triangle(self, a, b, c):
        n = len(a)
        s = FiniteSpace.default(n)
        F, G, H = s.function(a), s.function(b[:n]), s.function(c[:n])
        assert sup_distance(F, H) <= sup_distance(F, G) + sup_distance(G, H) + 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_shift_commutes_with_max(self, a, c):
        s = FiniteSpace.default(len(a))
        F = s.function(a)
        G = s.function(a[::-1])
        left = pointwise_max(shifted(F, c), shifted(G, c)).values
        right = shifted(pointwise_max(F, G), c).values
        assert np.allclose(left, right, atol=1e-12)


class TestProbabilityMeasure:
    def test_validation(self):
        with pytest.raises(NegativeWeight):
            ProbabilityMeasure([-0.1, 1.1])
        with pytest.raises(ValidationError):
            ProbabilityMeasure([0.5, 0.6])

    def test_non_finite_weights_rejected(self):
        # a nan sum passes abs(total - 1) > tol, so finiteness is checked first
        for bad in ([np.nan, 1.0], [0.5, 0.5, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValidationError):
                ProbabilityMeasure(bad)
        with pytest.raises(ValidationError):
            make_measure([np.nan, 0.5])

    def test_log_weights__defaults_to_elementwise_log(self):
        mu = ProbabilityMeasure([0.5, 0.5, 0.0])
        assert np.allclose(mu.log_weights[:2], np.log(0.5))
        assert mu.log_weights[2] == -np.inf

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=40).filter(any))
    def test_lazy_log_weights_are_the_elementwise_log(self, raw):
        mu = make_measure(raw)
        with np.errstate(divide="ignore"):
            want = np.log(mu.weights)
        lw = mu.log_weights
        assert lw.tobytes() == want.tobytes()
        assert mu.log_weights is lw  # computed once, then cached
        assert not lw.flags.writeable
        with pytest.raises(ValueError):
            lw[0] = 0.0

    def test_explicit_log_weights_win_over_the_lazy_log(self):
        lw = np.log([0.25, 0.75]) + 1e-13
        mu = ProbabilityMeasure([0.25, 0.75], log_weights=lw)
        assert mu.log_weights.tobytes() == lw.tobytes()
        assert mu.log_weights.tobytes() != np.log([0.25, 0.75]).tobytes()
        assert not mu.log_weights.flags.writeable

    @pytest.mark.parametrize(
        "raw, error, message",
        [
            ([math.nan], ValidationError, "weights must be finite"),
            ([math.inf, 0.5], ValidationError, "weights must be finite"),
            ([0.5, -math.inf], ValidationError, "weights must be finite"),
            ([math.nan, -1.0], ValidationError, "weights must be finite"),
            ([-1.0, math.nan], ValidationError, "weights must be finite"),
            ([math.nan, math.inf, -1.0], ValidationError, "weights must be finite"),
            ([-1e-300, 1.0], NegativeWeight, "weights must be nonnegative"),
            ([-0.0], AllZero, "weights must carry positive mass"),
            ([-0.0, 0.0], AllZero, "weights must carry positive mass"),
            ([], AllZero, "weights must carry positive mass"),
        ],
    )
    def test_weight_errors_in_their_order(self, raw, error, message):
        # finiteness first, then the sign, then the mass, on every entry path
        for build in (_weights, ProbabilityMeasure, make_measure, log_integral):
            with pytest.raises(ValidationError) as info:
                build(raw)
            assert type(info.value) is error and str(info.value) == message

    def test_custom_log_weights_kept(self):
        lw = np.log([0.25, 0.75]) + 1e-17
        mu = ProbabilityMeasure([0.25, 0.75], log_weights=lw)
        assert mu.log_weights.tolist() == lw.tolist()

    def test_nan_and_inf_log_weights_refused(self):
        # log_integral of such a measure would have a nan or inf base value
        for lw in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValidationError, match="finite or -inf"):
                ProbabilityMeasure([0.5, 0.5], log_weights=lw)
        mu = ProbabilityMeasure([1.0, 0.0], log_weights=[0.0, -np.inf])
        assert mu.log_weights.tolist() == [0.0, -np.inf]

    def test_make_measure_normalizes(self):
        mu = make_measure([2.0, 6.0])
        assert mu.weights.tolist() == [0.25, 0.75]
        # a sum within 1e-12 of 1 keeps its bits
        assert make_measure([0.5, 0.5 + 3e-13]).weights.tolist() == [0.5, 0.5 + 3e-13]
        with pytest.raises(AllZero):
            make_measure([0.0, 0.0])
        with pytest.raises(NegativeWeight):
            make_measure([-1.0, 2.0])

    def test_weight_sums_past_the_float_range(self):
        # a sum that overflows is refused as a measure and normalized over the max by
        # make_measure, without a RuntimeWarning; a finite sum keeps the weights' bits
        with pytest.raises(ValidationError, match="weights must sum to 1 within 1e-12; got inf"):
            ProbabilityMeasure([1e308, 1e308])
        mu = make_measure([1e308, 1e308, 0.0])
        assert mu.weights.tolist() == [0.5, 0.5, 0.0]
        assert make_measure([0.1, 0.2, 0.4]).weights.tolist() == (np.array([0.1, 0.2, 0.4]) / 0.7000000000000001).tolist()
        for bad in ([math.inf, 1.0], [1e308, math.inf]):
            with pytest.raises(ValidationError, match="weights must be finite"):
                make_measure(bad)
        L = log_integral([1e308, 1e308])
        assert L.base_value == pytest.approx(math.log(1e308) + math.log(2.0), abs=1e-12)


class TestRateFunction:
    def test_validation(self):
        s = FiniteSpace.default(2)
        with pytest.raises(ValidationError):
            RateFunction([-0.5, 1.0], s)
        with pytest.raises(ValidationError):
            RateFunction([np.nan, 1.0], s)
        r = RateFunction([0.0, np.inf], s)
        assert r.values.tolist() == [0.0, math.inf]


class TestValidateDecreasing:
    def test_good_sequence(self):
        s = FiniteSpace.default(2)
        terms = [s.constant_function(2.0 ** -k) for k in range(10)]
        seq = validate_decreasing(iter(terms))
        assert seq == tuple(terms)

    def test_not_monotone_reports_first_violation(self):
        s = FiniteSpace.default(2)
        terms = [s.function([1.0, 1.0]), s.function([0.5, 1.5])]
        with pytest.raises(NotMonotone) as exc:
            validate_decreasing(terms)
        assert exc.value.index == 1 and exc.value.point == "x2"

    def test_negative_term(self):
        s = FiniteSpace.default(2)
        with pytest.raises(NegativeTerm):
            validate_decreasing([s.function([1.0, -0.1])])

    def test_tail_violation_labelled_tail(self):
        d = TailDomain([0.0, 1.0])
        terms = [d.function([1.0, 1.0], 0.5), d.function([0.5, 0.5], 0.7)]
        with pytest.raises(NotMonotone) as exc:
            validate_decreasing(terms)
        assert exc.value.point == "tail"

    def test_residual_is_grid_only_for_tail_functions(self):
        # the sigma check gates the last term over the points; the tail is read through L
        d = TailDomain([0.0, 1.0])
        L = tail_limsup(d)
        terms = [d.function([1.0, 1.0], 1.0), d.function([0.25, 0.125], 1.0)]
        with pytest.raises(SequenceNotVanishing, match=r"^residual 0\.25 exceeds"):
            check_sigma_continuity(L, terms)
        terms[-1] = d.function([2.0**-21, 2.0**-22], 1.0)
        assert check_sigma_continuity(L, terms).witness["residual"] == 2.0**-21

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            validate_decreasing([])


class TestLse:
    @staticmethod
    def oracle(z) -> float:
        finite = [float(v) for v in z if v != -math.inf]
        m = max(finite)
        return m + math.log(math.fsum(math.exp(v - m) for v in finite))

    @pytest.mark.parametrize("shift", [0.0, 1e3, -1e3])
    def test_matches_fsum_oracle(self, shift):
        # exp(1e3) overflows and exp(-1e3) underflows without the max shift
        rng = np.random.default_rng(11)
        for size in (1, 2, 8, 300):
            z = rng.uniform(-30.0, 30.0, size) + shift
            if size > 2:
                z[[0, size // 2]] = -np.inf  # zero weights
                z[size - 1] = z.max()  # a tied maximum
            expected = self.oracle(z)
            assert abs(_lse(z) - expected) <= 4 * math.ulp(expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=24),
        st.integers(1, 4),
    )
    def test_overwrite_gives_the_same_bits_into_z(self, entries, k):
        # overwrite lets the shifted exponentials take z's place, and nothing else changes
        for z in (np.array(entries), np.tile(entries, (k, 1)) + np.arange(k)[:, None]):
            want = _lse(z)
            own = z.copy()
            got = _lse(own, overwrite=True)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert type(got) is type(want)

    def test_special_values(self):
        assert _lse(np.array([-np.inf, -np.inf])) == -np.inf
        assert _lse(np.array([-np.inf, 2.5])) == 2.5
        assert _lse(np.array([np.inf, 0.0])) == np.inf
        assert math.isnan(_lse(np.array([np.nan, 0.0])))


def test_import_loads_numpy_only():
    code = "import sys, vflab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _pair_rate():
    return RateFunction([0.0, 1.0], FiniteSpace.default(2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FiniteSpace.default(2).function(["a", 1]), "values must be a 1-d vector of numbers"),
        (lambda: FiniteSpace.default(2).function([[1], 2]), "values must be a 1-d vector of numbers"),
        (lambda: ProbabilityMeasure(["a", 1]), "weights must be a 1-d vector of numbers"),
        (lambda: ProbabilityMeasure([0.5, 0.5], ["a", 1]), "log_weights must be a 1-d vector of numbers"),
        (lambda: ProbabilityMeasure([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]]), "log_weights length mismatch"),
        (lambda: RateFunction(["a", 1], FiniteSpace.default(2)), "rate must be a 1-d vector of numbers"),
        (lambda: log_integral(["a", 1]), "weights must be a 1-d vector of numbers"),
        (lambda: GridFunction(["a", "b"], xs=[0, 1]), "ys must be a 1-d vector of numbers"),
        (lambda: PitSchedule(("a",)), "depths must be positive and finite"),
        (lambda: PitSchedule((1, None)), "depths must be positive and finite"),
        (lambda: sublevel_set(_pair_rate(), "0.5"), "sublevel threshold must be positive"),
        (lambda: tightness_scan(cramer_sequence(0.5, [2]), None), "tightness threshold must be positive"),
        (lambda: PitSchedule([True, 2]), "depths must be positive and finite"),
        (lambda: sublevel_set(_pair_rate(), True), "sublevel threshold must be positive"),
        (lambda: tightness_scan(cramer_sequence(0.5, [2]), True), "tightness threshold must be positive"),
        # raw weights take the measures' check, and its 1-d message
        (lambda: log_integral([[1.0, 1.0]]), "weights must be a 1-d vector"),
        # refused before as well, with these same messages
        (lambda: RateFunction([[0.0, 1.0]], FiniteSpace.default(2)), "rate vector length must match the space"),
        (lambda: FiniteSpace.default(2).function([[1.0, 2.0]]), "values must be a 1-d vector"),
    ],
    ids=[
        "function_str",
        "function_ragged",
        "measure",
        "log_weights",
        "log_weights_2d",
        "rate",
        "log_integral",
        "grid_function",
        "pit_str",
        "pit_none",
        "sublevel_str",
        "tightness_none",
        "pit_bool",
        "sublevel_bool",
        "tightness_bool",
        "log_integral_2d",
        "rate_2d",
        "function_2d",
    ],
)
def test_non_numbers_refused_at_the_boundary(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()
