import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import dual_rate_at, pit_values, sample_function

from vflab import (
    FiniteSpace,
    PitSchedule,
    ProbabilityMeasure,
    RateFunction,
    TailDomain,
    dual_rate,
    log_integral,
    reconstruct,
    representation_gap,
    sublevel_set,
    sup_form,
    tail_limsup,
)
from vflab.errors import AllInfiniteRate, ValidationError
from vflab.ldp_lab import MeasureSequence, SequenceEntry, binomial_weights, tightness_scan

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
        for bad in ((1.0, math.nan, 4.0), (1.0, math.inf)):
            with pytest.raises(ValidationError):
                PitSchedule(bad)

    @pytest.mark.parametrize("bad", [5, 2.0, object()])
    def test_non_iterable_depths_refused(self, bad):
        with pytest.raises(ValidationError, match="^depths must be positive and finite$"):
            PitSchedule(bad)

    def test_any_iterable_of_depths(self):
        assert PitSchedule(2.0**k for k in range(3)).depths == (1.0, 2.0, 4.0)


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
        rng = np.random.default_rng(7)
        for space in (FiniteSpace.default(5), TailDomain(np.linspace(0.0, 2.0, 5))):
            rate = RateFunction([0.0, 1.0, np.inf, 0.5, np.inf], space)
            L = sup_form(rate, L0=-0.25)
            finite = np.isfinite(rate.values)
            for _ in range(25):
                values = rng.uniform(-4, 4, len(space))
                F = space.function(values, 3.0) if isinstance(space, TailDomain) else space.function(values)
                value = reconstruct(rate, -0.25, F)
                assert value == L(F)
                # bit for bit L0 + max(F - rate) over the finite entries; a tail value never enters
                assert value == -0.25 + float(np.max(values[finite] - rate.values[finite]))

    def test_all_infinite_rejected(self):
        rate = RateFunction([np.inf, np.inf], FiniteSpace.default(2))
        F = FiniteSpace.default(2).function([0.0, 0.0])
        with pytest.raises(AllInfiniteRate, match="sup_form needs at least one finite rate entry"):
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
            F = sample_function(space, rng, -5, 5)
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

    def test_labels_and_indices_keep_their_types(self):
        space = FiniteSpace.from_line([0.0, -0.0, 0.25, 1.0])
        s = sublevel_set(RateFunction([0.0, 0.5, 2.0, 0.1], space), 0.5)
        assert s.indices == (0, 1, 3) and all(type(i) is int for i in s.indices)
        assert s.labels == ("0.0", "-0.0", "1.0") and all(type(p) is str for p in s.labels)
        named = FiniteSpace(["a", "b", "c"])
        t = sublevel_set(RateFunction([1.0, 0.0, 0.0], named), 0.5)
        assert t.labels == ("b", "c") and t.indices == (1, 2) and t.diameter == 1.0

    def test_a_tightness_scan_builds_no_labels(self):
        space = FiniteSpace.from_line(np.arange(65537) / 65536)
        seq = MeasureSequence("one entry", (SequenceEntry(65536, space, ProbabilityMeasure(binomial_weights(65536, 0.3)[0])),))
        assert tightness_scan(seq, 0.01)[0][1] > 0
        assert space._ids is None

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
