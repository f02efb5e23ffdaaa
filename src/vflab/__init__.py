"""Varadhan functionals on finite spaces: duals, conjugates, and checks.

The library turns the defining properties of nonlinear Laplace-type
functionals into executable objects: build a functional, extract its rate
function by the pit method, reconstruct it from the rate, push it through
the measure-level convex conjugate, and certify (or refute) each axiom on
seeded random trials.  A small large-deviations lab grounds everything in
the Bernoulli/Cramer instance where every number has a closed form.
"""

from .axioms import (
    CHECKS,
    CheckReport,
    check_const_preserving_implies_translation,
    check_lipschitz,
    check_max_dominates,
    check_maximal,
    check_monotone,
    check_sigma_continuity,
    check_translation,
    reevaluate_witness,
    vanishing_sequence,
)
from .convex_duality import (
    ConjugateReport,
    MeasureFunctional,
    conjugate_J,
    kl_divergence,
    kl_functional,
    recover_L_from_J,
)
from .duality import (
    DualReport,
    PitSchedule,
    SublevelSet,
    dual_rate,
    reconstruct,
    representation_gap,
    sublevel_set,
)
from .errors import VflabError
from .functionals import (
    FunctionalHandle,
    TailDomain,
    TailFunction,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from .ldp_lab import (
    GridFunction,
    LimitReport,
    MeasureSequence,
    SequenceEntry,
    binomial_weights,
    cramer_grid_space,
    cramer_rate,
    cramer_sequence,
    empirical_rate,
    empirical_rate_at,
    estimate_limit,
    ldp_value,
    tightness_scan,
)
from .serialize import load_measure_sequence as ingest_sequence
from .space import (
    BoundedFunction,
    FiniteSpace,
    ProbabilityMeasure,
    RateFunction,
    make_measure,
    validate_decreasing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces and carriers
    "FiniteSpace",
    "BoundedFunction",
    "ProbabilityMeasure",
    "RateFunction",
    "make_measure",
    "validate_decreasing",
    # functionals
    "FunctionalHandle",
    "TailDomain",
    "TailFunction",
    "log_integral",
    "sup_form",
    "ldp_term",
    "tail_limsup",
    # function-level duality
    "PitSchedule",
    "DualReport",
    "SublevelSet",
    "dual_rate",
    "reconstruct",
    "representation_gap",
    "sublevel_set",
    # measure-level duality
    "ConjugateReport",
    "MeasureFunctional",
    "conjugate_J",
    "recover_L_from_J",
    "kl_divergence",
    "kl_functional",
    # axiom certification
    "CheckReport",
    "CHECKS",
    "check_monotone",
    "check_translation",
    "check_maximal",
    "check_max_dominates",
    "check_lipschitz",
    "check_sigma_continuity",
    "check_const_preserving_implies_translation",
    "vanishing_sequence",
    "reevaluate_witness",
    # LDP lab
    "MeasureSequence",
    "SequenceEntry",
    "LimitReport",
    "GridFunction",
    "binomial_weights",
    "cramer_sequence",
    "cramer_grid_space",
    "cramer_rate",
    "ldp_value",
    "estimate_limit",
    "empirical_rate",
    "empirical_rate_at",
    "tightness_scan",
    "ingest_sequence",
    # errors
    "VflabError",
]
