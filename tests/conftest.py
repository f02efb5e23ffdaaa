"""Shared fixtures: canonical functional instances, intentionally broken
handles, and the five frozen continuum test functions."""

import numpy as np
import pytest

from vflab import (
    FiniteSpace,
    FunctionalHandle,
    GridFunction,
    ProbabilityMeasure,
    RateFunction,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from vflab.ldp_lab import REFERENCE_GRID


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
