"""The public API: each module's __all__ is written once, and vflab republishes them."""

import ast
import importlib
from pathlib import Path

import vflab

PUBLIC_NAMES = {
    "__version__",
    # vflab.space
    "FiniteSpace", "BoundedFunction", "ProbabilityMeasure", "RateFunction", "make_measure",
    "validate_decreasing",
    # vflab.functionals
    "FunctionalHandle", "TailDomain", "TailFunction", "log_integral", "sup_form", "ldp_term",
    "tail_limsup",
    # vflab.duality
    "PitSchedule", "DualReport", "SublevelSet", "dual_rate", "reconstruct", "representation_gap",
    "sublevel_set",
    # vflab.convex_duality
    "ConjugateReport", "MeasureFunctional", "conjugate_J", "recover_L_from_J", "kl_divergence",
    "kl_functional",
    # vflab.axioms
    "CheckReport", "CHECKS", "check_monotone", "check_translation", "check_maximal",
    "check_max_dominates", "check_lipschitz", "check_sigma_continuity",
    "check_const_preserving_implies_translation", "vanishing_sequence", "reevaluate_witness",
    # vflab.ldp_lab
    "MeasureSequence", "SequenceEntry", "LimitReport", "GridFunction", "binomial_weights",
    "cramer_sequence", "cramer_grid_space", "cramer_rate", "ldp_value", "estimate_limit",
    "empirical_rate", "empirical_rate_at", "tightness_scan",
    # renamed and error roots
    "ingest_sequence", "VflabError",
}


def republished_modules() -> list[str]:
    """The modules that vflab/__init__.py imports with a wildcard, in order."""
    tree = ast.parse(Path(vflab.__file__).read_text())
    return [
        f"vflab.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def test_the_public_names_are_the_53_of_the_package():
    assert len(PUBLIC_NAMES) == 53
    assert len(vflab.__all__) == len(set(vflab.__all__))
    assert set(vflab.__all__) == PUBLIC_NAMES


def test_every_republished_module_defines_all():
    modules = republished_modules()
    assert modules
    for name in modules:
        assert isinstance(importlib.import_module(name).__dict__.get("__all__"), list), name


def test_the_package_list_is_the_module_lists():
    lists = [n for name in republished_modules() for n in importlib.import_module(name).__all__]
    assert vflab.__all__ == ["__version__", *lists, "ingest_sequence", "VflabError"]


def test_wildcard_import_binds_exactly_all():
    namespace = {}
    exec("from vflab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(vflab.__all__)
