"""Shared fixtures: canonical functional instances, intentionally broken
handles, the five frozen continuum test functions, and the reference
helpers the tests build closed forms and diagnostics from."""

import numpy as np
import pytest

from vflab import (
    FiniteSpace,
    FunctionalHandle,
    GridFunction,
    MeasureFunctional,
    PitSchedule,
    ProbabilityMeasure,
    RateFunction,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from vflab.duality import _dual_points
from vflab.errors import SpaceMismatch
from vflab.ldp_lab import REFERENCE_GRID
from vflab.space import _lse


# Binomial(n, 1/2)/n on {k/n} at n = 1, 2, 4 as a measure-sequence
# document: cramer_sequence(0.5, [1, 2, 4]), whose weights are all exact
# in binary, so a reader must give them back bit for bit
HALF_MEANS = {
    "description": "bernoulli(p=0.5) empirical means",
    "entries": [
        {"n": 1, "points": [0.0, 1.0], "weights": [0.5, 0.5]},
        {"n": 2, "points": [0.0, 0.5, 1.0], "weights": [0.25, 0.5, 0.25]},
        {"n": 4, "points": [0.0, 0.25, 0.5, 0.75, 1.0], "weights": [0.0625, 0.25, 0.375, 0.25, 0.0625]},
    ],
}

# Cramer schedule entries past numpy's largest float array (2**60 - 1 entries),
# which must be refused before anything is allocated; 10**300 and 2**63 - 1
# are past a C ssize_t as well
HUGE_NS = [10**300, 2**63 - 1, 2**63 - 2, 2**62, 2**61 - 1]
HUGE_IDS = ["10**300", "2**63-1", "2**63-2", "2**62", "2**61-1"]


@pytest.fixture
def pair_space():
    return FiniteSpace.default(2)


@pytest.fixture
def uniform2(pair_space):
    return log_integral(ProbabilityMeasure([0.5, 0.5]), pair_space)


@pytest.fixture
def five_space():
    return FiniteSpace.default(5)


def canonical_suite():
    """Const-preserving instances of the four built-ins, one each."""
    nu = ProbabilityMeasure([0.1, 0.25, 0.3, 0.2, 0.15])
    space = FiniteSpace.default(5)
    I = RateFunction([0.0, 0.5, 1.3, 2.7, np.inf], space)
    mu = ProbabilityMeasure([0.4, 0.3, 0.2, 0.1])
    return [
        log_integral(nu, space),
        sup_form(I),
        ldp_term(mu, 8),
        tail_limsup(),
    ]


@pytest.fixture(params=range(4), ids=["log_integral", "sup_form", "ldp_term", "tail_limsup"])
def builtin_handle(request):
    return canonical_suite()[request.param]


# -- intentionally broken handles; each one violates exactly the property
#    its name states while looking plausible otherwise --


def broken_monotone_handle(space=None) -> FunctionalHandle:
    """L(F) = -F at the first point: raising F there lowers L."""
    space = space or FiniteSpace.default(3)
    return FunctionalHandle("negated_point_mass", space, rows=lambda V: -V[..., 0], claims_convex=True)


def broken_translation_handle(space=None) -> FunctionalHandle:
    """L(F) = sum e^F: shifts multiply instead of adding."""
    space = space or FiniteSpace.default(3)
    return FunctionalHandle("plain_exp_sum", space, rows=lambda V: np.exp(V).sum(-1), claims_convex=True)


def broken_lipschitz_handle(space=None) -> FunctionalHandle:
    """L(F) = 2 max F: twice the allowed modulus."""
    space = space or FiniteSpace.default(3)
    return FunctionalHandle("doubled_max", space, rows=lambda V: 2.0 * V.max(-1), claims_convex=True)


def broken_implication_handle(space=None) -> FunctionalHandle:
    """Preserves constants but drifts under shifts; trips the implication check."""
    space = space or FiniteSpace.default(3)

    def rows(V):
        m = V.mean(-1)
        return m + 0.1 * (V.max(-1) ** 2 - m**2)

    return FunctionalHandle("level_skewed_mean", space, rows=rows, claims_convex=True)


# -- the five frozen continuum test functions for the Cramer experiments --


def frozen_test_functions() -> dict[str, GridFunction]:
    x = REFERENCE_GRID
    return {
        "const": GridFunction(np.full_like(x, 0.3)),
        "linear": GridFunction(x.copy()),
        "parabola": GridFunction(-4.0 * (x - 0.25) ** 2),
        "wide_bump": GridFunction(0.8 * np.exp(-((x - 0.7) ** 2) / (2 * 0.15**2))),
        "narrow_bump": GridFunction(0.5 * np.exp(-((x - 0.4) ** 2) / (2 * 0.05**2))),
    }


@pytest.fixture(scope="session")
def test_functions():
    return frozen_test_functions()


# -- reference helpers: closed forms and diagnostics the tests compare against --


def pit_values(L, index: int, sched: PitSchedule | None = None) -> list[float]:
    """The raw sequence -L(pit_{x,M}) over the whole schedule, no early exit.

    Every depth's pit is one row of a single evaluate_many call.  For a
    Varadhan functional this sequence is nondecreasing.
    """
    depths = np.array((sched or PitSchedule()).depths)
    rows = np.repeat(-depths[:, None], L.space.row_width, axis=1)
    rows[:, index] = 0.0
    return [float(v) for v in -L.evaluate_many(rows)]


def dual_rate_at(L, point, sched: PitSchedule | None = None) -> float:
    """Rate at one point, by the pit pass over that point alone.

    inf when the pit values keep climbing at the divergence slope through
    the final depth.  Single-point spaces give exactly 0.
    """
    values, _ = _dual_points(L, np.array([L.space.index_of(point)]), sched or PitSchedule())
    return float(values[0])


def exponential_tilt(nu: ProbabilityMeasure, F) -> ProbabilityMeasure:
    """The measure proportional to e^F dnu, normalized in the log domain."""
    if len(nu) != len(F.values):
        raise SpaceMismatch("measure and function have different lengths")
    z = nu.log_weights + F.values
    z = z - _lse(z)
    w = np.exp(z)
    return ProbabilityMeasure(w / w.sum(), log_weights=z)


# dirac_functional's tolerance sits between the ascent's interior shift
# (1e-9) and its finite-difference step (1e-6): the ascent's start is
# feasible, every finite-difference probe is blocked
DIRAC_ATOL = 1e-7


def dirac_functional(mu0: ProbabilityMeasure) -> MeasureFunctional:
    """J = 0 at mu0 (within DIRAC_ATOL in sup norm), inf elsewhere.

    The ascent starts at mu0, every probe direction is blocked, and it
    stays put and reports <mu0, F> + L0.
    """
    anchor = mu0.weights

    def fn(mu: ProbabilityMeasure) -> float:
        return 0.0 if float(np.max(np.abs(mu.weights - anchor))) <= DIRAC_ATOL else float("inf")

    return MeasureFunctional("dirac", fn, feasible_start=mu0)
