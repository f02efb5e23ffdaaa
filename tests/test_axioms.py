import dataclasses
import math

import numpy as np
import pytest
from conftest import (
    broken_lipschitz_handle,
    broken_monotone_handle,
    broken_implication_handle,
    broken_translation_handle,
    canonical_suite,
)

from vflab import (
    CheckReport,
    check_const_preserving_implies_translation,
    check_lipschitz,
    check_max_dominates,
    check_maximal,
    check_monotone,
    check_sigma_continuity,
    check_translation,
    log_integral,
    reevaluate_witness,
    sup_form,
    tail_limsup,
    vanishing_sequence,
)
from vflab.axioms import CHECKS
from vflab.errors import (
    NotMonotone,
    PreconditionFailed,
    SequenceNotVanishing,
    ValidationError,
)
from vflab.functionals import TailDomain
from vflab.space import FiniteSpace, ProbabilityMeasure, RateFunction

TRIALS = 150


class TestBuiltinsPass:
    @pytest.mark.parametrize(
        "check", [check_monotone, check_translation, check_lipschitz, check_max_dominates]
    )
    def test_shared_properties_hold(self, check):
        for L in canonical_suite():
            report = check(L, trials=TRIALS, seed=42)
            assert report.violations == 0, (L.name, check.__name__)
            assert report.witness is None
            assert report.trials == TRIALS and report.seed == 42

    def test_const_preserving_holds(self):
        for L in canonical_suite():
            report = check_const_preserving_implies_translation(L, trials=TRIALS, seed=42)
            assert report.violations == 0, L.name

    def test_maximal_splits_the_suite(self):
        reports = {L.name: check_maximal(L, trials=TRIALS, seed=42) for L in canonical_suite()}
        assert reports["sup_form"].violations == 0
        assert reports["tail_limsup"].violations == 0
        assert reports["log_integral"].violations > 0
        assert reports["ldp_term(n=8)"].violations > 0
        assert reports["log_integral"].witness is not None

    def test_max_dominates_agrees_with_monotone(self):
        handles = canonical_suite() + [broken_monotone_handle(), broken_translation_handle()]
        for L in handles:
            mono = check_monotone(L, trials=TRIALS, seed=7)
            dom = check_max_dominates(L, trials=TRIALS, seed=7)
            assert (mono.violations > 0) == (dom.violations > 0), L.name


class TestDeterminism:
    def test_same_seed_same_report(self):
        L = broken_monotone_handle()
        assert check_monotone(L, trials=50, seed=3) == check_monotone(L, trials=50, seed=3)

    def test_reports_are_frozen(self):
        report = check_monotone(log_integral(ProbabilityMeasure([0.5, 0.5])), trials=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.violations = 99

    def test_per_trial_seeding(self):
        # trial t of a batch uses generator seed + t, so batch-of-5 worst
        # equals the max over five single-trial runs
        L = broken_translation_handle()
        batch = check_translation(L, trials=5, seed=10)
        singles = [check_translation(L, trials=1, seed=10 + i) for i in range(5)]
        assert batch.worst_violation == max(s.worst_violation for s in singles)


class TestBrokenHandles:
    def test_each_break_is_caught(self):
        cases = [
            (broken_monotone_handle(), check_monotone),
            (broken_translation_handle(), check_translation),
            (broken_lipschitz_handle(), check_lipschitz),
            (broken_implication_handle(), check_const_preserving_implies_translation),
        ]
        for L, check in cases:
            report = check(L, trials=TRIALS, seed=42)
            assert report.violations > 0, L.name
            assert report.witness is not None
            assert report.worst_violation > report.tolerance

    def test_doubled_max_still_lattice(self):
        # scaling the max breaks Lipschitz and translation but not the
        # lattice identity, so "maximal" alone cannot certify a handle
        L = broken_lipschitz_handle()
        assert check_maximal(L, trials=TRIALS, seed=42).violations == 0
        assert check_translation(L, trials=TRIALS, seed=42).violations > 0

    def test_implication_handle_passes_the_precondition(self):
        # it preserves constants, so the check must run and then fail it
        L = broken_implication_handle()
        report = check_const_preserving_implies_translation(L, trials=TRIALS, seed=42)
        assert report.property_name == "const_preserving_implies_translation"
        assert report.violations > 0


class TestWitnesses:
    def test_reevaluation_reproduces_worst(self):
        cases = [
            (broken_monotone_handle(), check_monotone),
            (broken_translation_handle(), check_translation),
            (broken_lipschitz_handle(), check_lipschitz),
            (broken_implication_handle(), check_const_preserving_implies_translation),
            (log_integral(ProbabilityMeasure([0.5, 0.5])), check_maximal),
            (log_integral(ProbabilityMeasure([0.5, 0.5])), check_max_dominates),
        ]
        for L, check in cases:
            report = check(L, trials=60, seed=1)
            if report.witness is None:
                continue
            assert abs(reevaluate_witness(L, report) - report.worst_violation) <= 1e-12

    def test_max_dominates_witness_on_broken_monotone(self):
        L = broken_monotone_handle()
        report = check_max_dominates(L, trials=60, seed=1)
        assert report.violations > 0
        assert abs(reevaluate_witness(L, report) - report.worst_violation) <= 1e-12

    def test_no_witness_raises(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        report = check_monotone(L, trials=10, seed=0)
        assert report.witness is None
        with pytest.raises(ValidationError):
            reevaluate_witness(L, report)

    def test_unknown_property_raises(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        bogus = CheckReport(
            property_name="sorcery",
            trials=1,
            violations=1,
            worst_violation=1.0,
            witness={"F": {"values": [0.0, 0.0]}},
            seed=0,
        )
        with pytest.raises(ValidationError):
            reevaluate_witness(L, bogus)

    def test_tail_witness_round_trips(self):
        # witnesses on the half-line carry the declared tail value too
        L = tail_limsup()
        seq = vanishing_sequence(L.space)
        report = check_sigma_continuity(L, seq)
        assert report.witness is not None
        assert "tail_value" in report.witness["last_term"]
        assert abs(reevaluate_witness(L, report) - report.worst_violation) <= 1e-12


class TestSigmaContinuity:
    def test_log_integral_passes_exactly(self):
        L = log_integral(ProbabilityMeasure([0.25, 0.75]))
        report = check_sigma_continuity(L, vanishing_sequence(L.space))
        assert report.violations == 0
        assert report.worst_violation == 0.0  # Lipschitz discount cancels exactly
        assert report.witness is None
        assert report.trajectory is not None and report.trajectory[0] == 1.0

    def test_tail_limsup_fails_with_flat_trajectory(self):
        L = tail_limsup()
        report = check_sigma_continuity(L, vanishing_sequence(L.space))
        assert report.violations == 1
        assert all(v == 1.0 for v in report.trajectory)
        assert report.worst_violation == pytest.approx(1.0, abs=1e-5)

    def test_sup_form_passes(self):
        space = FiniteSpace.default(3)
        L = sup_form(RateFunction([0.0, 1.0, np.inf], space))
        report = check_sigma_continuity(L, vanishing_sequence(space))
        assert report.violations == 0

    def test_raw_term_list_accepted(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        terms = [L.space.constant_function(1.0).scaled(0.5**k) for k in range(25)]
        assert check_sigma_continuity(L, terms).violations == 0

    def test_non_vanishing_sequence_refused(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        short = [L.space.constant_function(1.0).scaled(0.5**k) for k in range(3)]
        with pytest.raises(SequenceNotVanishing):
            check_sigma_continuity(L, short)

    def test_non_decreasing_sequence_refused(self):
        L = log_integral(ProbabilityMeasure([0.5, 0.5]))
        rising = [L.space.constant_function(c) for c in (1.0, 2.0)]
        with pytest.raises(NotMonotone):
            check_sigma_continuity(L, rising)

    def test_default_sequences_vanish(self):
        fs = vanishing_sequence(FiniteSpace.default(4))
        assert fs.residual == 0.5**24
        td = vanishing_sequence(TailDomain())
        assert td.residual <= 1e-6
        # the declared tails never drop: that is the whole point
        assert all(t.tail_value == 1.0 for t in td.terms)


class TestConstPreservingPrecondition:
    def test_non_convex_claim_refused(self):
        from vflab.functionals import FunctionalHandle

        space = FiniteSpace.default(2)
        L = FunctionalHandle("median_like", space, rows=lambda V: V.min(-1), claims_convex=False)
        with pytest.raises(PreconditionFailed, match="convexity"):
            check_const_preserving_implies_translation(L)

    def test_mass_two_log_integral_refused(self):
        with pytest.raises(PreconditionFailed, match="preserve constants"):
            check_const_preserving_implies_translation(log_integral([1.0, 1.0]))

    def test_shifted_sup_form_refused(self):
        L = sup_form(RateFunction([0.0, 1.0], FiniteSpace.default(2)), L0=2.0)
        with pytest.raises(PreconditionFailed):
            check_const_preserving_implies_translation(L)


def test_trials_must_be_positive():
    L = log_integral(ProbabilityMeasure([0.5, 0.5]))
    with pytest.raises(ValidationError):
        check_monotone(L, trials=0)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("bad", [{"seed": -5}, {"seed": 1.5}, {"tol": math.nan}, {"tol": math.inf}, {"tol": -1.0}])
def test_bad_seed_or_tolerance_refused_before_any_draw(check, bad):
    L = log_integral(ProbabilityMeasure([0.5, 0.5]))
    with pytest.raises(ValidationError):
        CHECKS[check](L, trials=5, **bad)


def test_sigma_refuses_a_nan_tolerance():
    L = log_integral(ProbabilityMeasure([0.5, 0.5]))
    with pytest.raises(ValidationError):
        check_sigma_continuity(L, vanishing_sequence(L.space), tol=math.nan)


def test_negative_tolerance_refused_and_zero_accepted():
    L = sup_form(RateFunction([0.0, 1.0], FiniteSpace.default(2)))
    with pytest.raises(ValidationError, match="tolerance must be nonnegative, got -1.0"):
        check_monotone(L, trials=20, tol=-1.0)
    with pytest.raises(ValidationError):
        check_sigma_continuity(L, vanishing_sequence(L.space), tol=-1e-300)
    report = check_monotone(L, trials=20, tol=0.0)
    assert report.violations == 0 and report.tolerance == 0.0


def test_check_registry_names():
    assert set(CHECKS) == {
        "monotone",
        "translation",
        "maximal",
        "max_dominates",
        "lipschitz",
        "const_preserving",
    }
