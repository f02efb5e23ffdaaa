import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vflab import (
    FiniteSpace,
    PitSchedule,
    ProbabilityMeasure,
    RateFunction,
    dual_rate,
    dual_rate_at,
    log_integral,
    pit_values,
    reconstruct,
    representation_gap,
    sublevel_set,
    sup_form,
    tail_limsup,
)
from vflab.errors import AllInfiniteRate, ValidationError

LN4 = 1.3862943611198906
LN_4_3 = 0.2876820724517809


class TestPitSchedule:
    def test_default_is_forty_one_doublings(self):
        s = PitSchedule()
        assert len(s.depths) == 41
        assert s.depths[0] == 1.0 and s.depths[-1] == 2.0**40

    def test_rejects_bad_depths(self):
        with pytest.raises(ValidationError):
            PitSchedule(())
        with pytest.raises(ValidationError):
            PitSchedule((1.0, 1.0))
        with pytest.raises(ValidationError):
            PitSchedule((-1.0, 2.0))
        with pytest.raises(ValidationError):
            PitSchedule((1.0,), stall_tolerance=0.0)
        for bad in ({"depths": (1.0, math.nan, 4.0)}, {"depths": (1.0, math.inf)},
                    {"stall_tolerance": math.nan}, {"divergence_slope": math.nan}):
            with pytest.raises(ValidationError):
                PitSchedule(**bad)

    def test_capped(self):
        s = PitSchedule().capped(5)
        assert s.depths == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        with pytest.raises(ValidationError):
            PitSchedule((64.0, 128.0)).capped(3)
        for cmax in (1023.5, 1024, 1e6, math.inf):  # 2**cmax past the float range
            assert PitSchedule().capped(cmax).depths == PitSchedule().depths
        with pytest.raises(ValidationError):
            PitSchedule().capped(math.nan)


class TestDualRate:
    def test_log_integral_recovers_neg_log_weights(self):
        report = dual_rate(log_integral(ProbabilityMeasure([0.25, 0.75])))
        assert report.base_value == pytest.approx(0.0, abs=1e-15)
        assert report.rate.values[0] == pytest.approx(LN4, abs=1e-9)
        assert report.rate.values[1] == pytest.approx(LN_4_3, abs=1e-9)
        assert not any(c.divergent for c in report.per_point_convergence)

    def test_sup_form_round_trip(self):
        space = FiniteSpace.default(4)
        rate = RateFunction([0.0, 0.5, 2.0, np.inf], space)
        report = dual_rate(sup_form(rate, L0=1.5))
        assert report.base_value == pytest.approx(1.5, abs=1e-12)
        for got, want, conv in zip(
            report.rate.values, rate.values, report.per_point_convergence
        ):
            if math.isinf(want):
                assert math.isinf(got) and conv.divergent
            else:
                assert got == pytest.approx(want, abs=1e-9)
                assert not conv.divergent

    def test_tail_limsup_diverges_everywhere(self):
        report = dual_rate(tail_limsup(), PitSchedule(tuple(2.0**k for k in range(12))))
        assert np.all(np.isinf(report.rate.values))
        assert all(c.divergent for c in report.per_point_convergence)

    def test_convergence_records_point_labels(self):
        space = FiniteSpace(["a", "b"])
        report = dual_rate(sup_form(RateFunction([0.0, 1.0], space)))
        assert [c.point for c in report.per_point_convergence] == ["a", "b"]

    def test_pit_values_nondecreasing(self, builtin_handle):
        sched = PitSchedule(tuple(2.0**k for k in range(10)))
        seq = pit_values(builtin_handle, 0, sched)
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

    def test_dual_rate_at_accepts_label_and_index(self):
        L = log_integral(ProbabilityMeasure([0.25, 0.75]))
        label = L.space.point_ids[1]
        assert dual_rate_at(L, 1) == dual_rate_at(L, label)
        assert dual_rate_at(L, 1) == pytest.approx(LN_4_3, abs=1e-9)

    def test_single_point_space_rate_is_exactly_zero(self):
        L = log_integral(ProbabilityMeasure([1.0]))
        assert dual_rate_at(L, 0) == 0.0


class TestReconstruct:
    def test_matches_sup_form_evaluation(self):
        space = FiniteSpace.default(3)
        rate = RateFunction([0.0, 1.0, np.inf], space)
        L = sup_form(rate, L0=-0.25)
        rng = np.random.default_rng(7)
        for _ in range(25):
            F = space.sample_function(rng, -4, 4)
            assert reconstruct(rate, -0.25, F) == pytest.approx(L(F), abs=1e-12)

    def test_all_infinite_rejected(self):
        rate = RateFunction([np.inf, np.inf], FiniteSpace.default(2))
        F = FiniteSpace.default(2).function([0.0, 0.0])
        with pytest.raises(AllInfiniteRate):
            reconstruct(rate, 0.0, F)

    def test_space_mismatch(self):
        rate = RateFunction([0.0], FiniteSpace.default(1))
        F = FiniteSpace.default(2).function([0.0, 0.0])
        with pytest.raises(ValidationError):
            reconstruct(rate, 0.0, F)

    @pytest.mark.parametrize("L0", [np.nan, np.inf])
    def test_non_finite_l0_rejected(self, L0):
        space = FiniteSpace.default(2)
        rate = RateFunction([0.0, 1.0], space)
        with pytest.raises(ValidationError):
            reconstruct(rate, L0, space.function([0.0, 0.0]))


class TestRepresentationGap:
    def test_sup_form_has_zero_gap(self):
        space = FiniteSpace.default(3)
        L = sup_form(RateFunction([0.0, 0.7, 3.0], space), L0=0.5)
        report = dual_rate(L)
        rng = np.random.default_rng(11)
        for _ in range(30):
            F = space.sample_function(rng, -5, 5)
            assert abs(representation_gap(L, F, dual=report)) <= 1e-9

    def test_uniform_two_point_gap_oracle(self, uniform2):
        F = uniform2.space.function([1.0, 0.0])
        assert representation_gap(uniform2, F) == pytest.approx(
            0.3132616875182228, abs=1e-9
        )

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_never_meaningfully_negative(self, vals):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        F = L.space.function(vals)
        assert representation_gap(L, F) >= -1e-9

    def test_amortized_dual_matches_fresh(self, uniform2):
        F = uniform2.space.function([0.3, -0.2])
        report = dual_rate(uniform2)
        assert representation_gap(uniform2, F, dual=report) == representation_gap(
            uniform2, F
        )


class TestSublevelSet:
    def test_boundary_included(self):
        space = FiniteSpace.from_line([0.0, 1.0, 2.0])
        s = sublevel_set(RateFunction([0.0, 0.5, 2.0], space), 0.5)
        assert s.labels == (space.point_ids[0], space.point_ids[1])
        assert s.indices == (0, 1)
        assert s.diameter == 1.0
        assert s.level == 0.5

    def test_empty_and_singleton_have_zero_diameter(self):
        space = FiniteSpace.from_line([0.0, 1.0])
        rate = RateFunction([1.0, 3.0], space)
        assert sublevel_set(rate, 0.5).diameter == 0.0
        assert sublevel_set(rate, 0.5).labels == ()
        assert sublevel_set(rate, 1.5).diameter == 0.0

    def test_threshold_must_be_positive(self):
        rate = RateFunction([0.0], FiniteSpace.default(1))
        with pytest.raises(ValidationError):
            sublevel_set(rate, 0.0)
        with pytest.raises(ValidationError):
            sublevel_set(rate, -1.0)
        with pytest.raises(ValidationError):
            sublevel_set(rate, math.nan)
