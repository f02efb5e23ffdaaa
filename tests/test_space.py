import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vflab import (
    BoundedFunction,
    FiniteSpace,
    ProbabilityMeasure,
    RateFunction,
    make_measure,
    pointwise_max,
    sup_distance,
    validate_decreasing,
)
from vflab.errors import (
    AllZero,
    NegativeTerm,
    NegativeWeight,
    NotMonotone,
    PointNotInSpace,
    SpaceMismatch,
    ValidationError,
)
from vflab.functionals import TailDomain
from vflab.space import _lse


class TestFiniteSpace:
    def test_default_labels_and_discrete_metric(self):
        s = FiniteSpace.default(3)
        assert s.point_ids == ("x1", "x2", "x3")
        assert s.distance(0, 1) == 1.0
        assert s.distance(2, 2) == 0.0

    def test_from_line(self):
        s = FiniteSpace.from_line([0.0, 0.5, 1.0])
        assert s.point_ids == ("0.0", "0.5", "1.0")
        assert s.distance(0, 2) == 1.0
        assert np.allclose(s.metric_matrix(), [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])

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

    def test_default_skips_the_cubic_triangle_check(self):
        # the triangle loop is O(m^3): about 30 s at m = 2048 on a 2-vCPU Xeon
        t0 = time.perf_counter()
        s = FiniteSpace.default(2048)
        assert time.perf_counter() - t0 < 2.0
        assert s.distance(0, 2047) == 1.0 and s.distance(5, 5) == 0.0

    def test_index_of(self):
        s = FiniteSpace.default(3)
        assert s.index_of("x2") == 1
        assert s.index_of(2) == 2
        with pytest.raises(PointNotInSpace):
            s.index_of("nope")
        with pytest.raises(PointNotInSpace):
            s.index_of(7)

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
        assert a.distance(0, 4999) == 1.0 and a.subset_diameter([3, 3]) == 0.0
        assert FiniteSpace.default(3).metric_matrix().tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_signed_zeros_are_distinct_points(self):
        s = FiniteSpace.from_line([0.0, -0.0])
        assert s.point_ids == ("0.0", "-0.0")
        assert FiniteSpace.from_line([0.0, 1.0]) != FiniteSpace.from_line([-0.0, 1.0])

    @pytest.mark.parametrize(
        "coords, detail",
        [
            ([0.5, 0.5], "point labels must be unique"),
            ([1.0, 0.5, 1.0], "point labels must be unique"),
            ([math.nan, math.nan], "point labels must be unique"),
            ([math.nan, -math.nan], "point labels must be unique"),
            ([math.inf, math.inf], "point labels must be unique"),
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
        assert s == FiniteSpace.from_line(np.arange(9) / 8) and s._ids is None
        assert s.point_ids[3] == repr(3 / 8) and s._ids is not None
        assert FiniteSpace.default(4)._ids is None

    def test_index_of_on_a_derived_line_space(self):
        s = FiniteSpace.from_line([0.0, 0.5, 1.0])
        assert s._index is None
        assert s.index_of("0.5") == 1
        with pytest.raises(PointNotInSpace):
            s.index_of("0.50")

    def test_tail_domain_never_equals_its_grid(self):
        g = [0.0, 0.5, 2.0]
        assert TailDomain(g) != FiniteSpace.from_line(g)
        assert FiniteSpace.from_line(g) != TailDomain(g)
        assert TailDomain(g) == TailDomain(g)

    def test_pit_function(self):
        s = FiniteSpace.default(3)
        pit = s.pit_function(1, 8.0)
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
        assert F.shifted(2.0).values.tolist() == [3.0, 0.0, 2.5]
        assert F.scaled(-1.0).values.tolist() == [-1.0, 2.0, -0.5]
        assert F.plus(G).values.tolist() == [1.0, -1.0, 1.0]
        assert pointwise_max(F, G).values.tolist() == [1.0, 1.0, 0.5]
        assert sup_distance(F, G) == 3.0
        assert F.inf_minus(G) == -3.0
        assert F.sup_norm() == 2.0

    def test_space_mismatch(self):
        F = FiniteSpace.default(2).function([1.0, 2.0])
        G = FiniteSpace.default(3).function([1.0, 2.0, 3.0])
        with pytest.raises(SpaceMismatch):
            F.plus(G)

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
        left = pointwise_max(F.shifted(c), G.shifted(c)).values
        right = pointwise_max(F, G).shifted(c).values
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

    def test_make_measure_records_normalization(self):
        mu = make_measure([2.0, 6.0])
        assert mu.weights.tolist() == [0.25, 0.75]
        assert mu.normalization == 8.0
        with pytest.raises(AllZero):
            make_measure([0.0, 0.0])
        with pytest.raises(NegativeWeight):
            make_measure([-1.0, 2.0])


class TestRateFunction:
    def test_validation(self):
        s = FiniteSpace.default(2)
        with pytest.raises(ValidationError):
            RateFunction([-0.5, 1.0], s)
        with pytest.raises(ValidationError):
            RateFunction([np.nan, 1.0], s)
        r = RateFunction([0.0, np.inf], s)
        assert r.finite_mask().tolist() == [True, False]
        assert r.min_finite() == 0.0

    def test_min_finite_all_infinite(self):
        r = RateFunction([np.inf, np.inf], FiniteSpace.default(2))
        assert r.min_finite() == np.inf


class TestValidateDecreasing:
    def test_good_sequence(self):
        s = FiniteSpace.default(2)
        seq = validate_decreasing([s.constant_function(2.0 ** -k) for k in range(10)])
        assert len(seq) == 10
        assert seq.residual == 2.0 ** -9

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
        d = TailDomain([0.0, 1.0])
        seq = validate_decreasing([d.function([1.0, 1.0], 1.0), d.function([0.25, 0.125], 1.0)])
        assert seq.residual == 0.25

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

    def test_special_values(self):
        assert _lse(np.array([-np.inf, -np.inf])) == -np.inf
        assert _lse(np.array([-np.inf, 2.5])) == 2.5
        assert _lse(np.array([np.inf, 0.0])) == np.inf
        assert math.isnan(_lse(np.array([np.nan, 0.0])))


def test_import_loads_numpy_only():
    code = "import sys, vflab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
