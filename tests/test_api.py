"""The public API: each module's __all__ is written once, and vflab republishes them.

The public attributes of the core classes are pinned as well, so a method
that no caller reads cannot join them without an edit here."""

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
    "cramer_sequence", "cramer_rate", "ldp_value", "estimate_limit", "empirical_rate",
    "tightness_scan",
    # renamed and error roots
    "ingest_sequence", "VflabError",
}

# the public (non-underscore) attributes of each core class, inherited ones included
SPACE_ATTRIBUTES = {
    "coords", "point_ids", "row_width", "from_line", "default", "subset_diameter", "function",
    "from_row", "zero_function", "constant_function",
}
FUNCTION_ATTRIBUTES = {"values", "space", "row", "scaled"}
CLASS_ATTRIBUTES = {
    "FiniteSpace": SPACE_ATTRIBUTES,
    "TailDomain": SPACE_ATTRIBUTES | {"grid", "ramp"},
    "BoundedFunction": FUNCTION_ATTRIBUTES,
    "TailFunction": FUNCTION_ATTRIBUTES | {"tail_value"},
    "ProbabilityMeasure": {"weights", "log_weights"},
    "RateFunction": {"values", "space"},
    "FunctionalHandle": {
        "name", "space", "claims_convex", "base_value", "gradient", "hessian", "evaluate",
        "evaluate_many",
    },
}


def republished_modules() -> list[str]:
    """The modules that vflab/__init__.py imports with a wildcard, in order."""
    tree = ast.parse(Path(vflab.__file__).read_text())
    return [
        f"vflab.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def test_the_public_names_are_those_of_the_package():
    assert len(PUBLIC_NAMES) == 51
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


def test_core_classes_expose_exactly_their_pinned_attributes():
    for name, want in CLASS_ATTRIBUTES.items():
        got = {a for a in dir(getattr(vflab, name)) if not a.startswith("_")}
        assert got == want, name
