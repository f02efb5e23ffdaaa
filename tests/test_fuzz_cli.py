"""Fuzz the CLI input boundary: one mutation of a valid input file.

Each example takes a valid descriptor, function, measure, rate, sequence
or grid-function file, changes one field (scalar and array swapped, a
string or a bool in place of the value, an integer past the float range,
an extra array level, or the key removed), and runs every command that
reads the file through cli.run in-process.  Whatever the input, the exit
code is 0, 1, 2 or 3, an exit 2 prints exactly one error record on
stderr, and no exception escapes.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from vflab.cli import run

FILES = {
    "log_integral": {
        "kind": "log_integral",
        "measure": {"weights": [0.25, 0.25, 0.5]},
        "space": {"points": ["a", "b", "c"], "coords": [0.0, 1.0, 2.0]},
    },
    "sup_form": {
        "kind": "sup_form",
        "rate": [0.0, 1.0, "inf"],
        "L0": 0.5,
        "points": ["a", "b", "c"],
        "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    },
    "ldp_term": {"kind": "ldp_term", "measure": [0.25, 0.25, 0.5], "n": 4},
    "tail_limsup": {"kind": "tail_limsup", "grid": [0.0, 1.0, 2.0]},
    "function": {"values": [0.0, 0.5, 1.0]},
    "tail_function": {"values": [0.0, 0.5, 1.0], "tail_value": 0.25},
    "measure": {"weights": [0.25, 0.25, 0.5]},
    "rate": {"L0": 0.5, "rate": [0.0, 1.0, "inf"], "coords": [0.0, 0.5, 1.0]},
    "sequence": {
        "description": "binomial",
        "entries": [
            {"n": 1, "points": [0.0, 1.0], "weights": [0.5, 0.5]},
            {"n": 2, "points": [0.0, 0.5, 1.0], "weights": [0.25, 0.5, 0.25]},
        ],
    },
    "grid_function": {"values": [0.0, 1.0, 0.5], "xs": [0.0, 0.5, 1.0]},
}
MUTATIONS = ("swap", "string", "bool", "huge_int", "nested", "missing")


def _commands(kind: str, path: str, base: dict) -> list[list[str]]:
    """Every argv that reads a file of this kind; the other inputs stay valid."""
    if kind in ("log_integral", "sup_form", "ldp_term"):
        return [
            ["eval", "--functional", path, "--f", base["function"]],
            ["dual", "--functional", path, "--schedule", "1,2,4,8"],
            ["conjugate", "--functional", path, "--measure", base["measure"], "--format", "csv"],
            ["check", "--functional", path, "--property", "monotone", "--trials", "8"],
        ]
    if kind == "tail_limsup":
        return [
            ["eval", "--functional", path, "--f", base["tail_function"]],
            ["dual", "--functional", path, "--schedule", "1,2,4,8"],
        ]
    if kind == "function":
        return [
            ["eval", "--functional", base["log_integral"], "--f", path],
            ["recover", "--measure", base["measure"], "--f", path],
            ["reconstruct", "--rate", base["rate"], "--f", path, "--format", "csv"],
        ]
    if kind == "tail_function":
        return [["eval", "--functional", base["tail_limsup"], "--f", path]]
    if kind == "measure":
        return [
            ["conjugate", "--functional", base["log_integral"], "--measure", path],
            ["recover", "--measure", path, "--f", base["function"]],
        ]
    if kind == "rate":
        return [["reconstruct", "--rate", path, "--f", base["function"]]]
    if kind == "sequence":
        return [["tightness", "--measure", path, "--level", "0.2", "--format", "csv"]]
    return [["cramer", "--p", "0.3", "--schedule", "16,32,64", "--f", path]]


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_files(draw):
    kind = draw(st.sampled_from(sorted(FILES)))
    doc = copy.deepcopy(FILES[kind])
    path = draw(st.sampled_from(list(_paths(doc))))
    mutation = draw(st.sampled_from(MUTATIONS))
    parent = None
    value = doc
    for key in path:
        parent, value = value, value[key]
    if mutation == "missing":
        if parent is None:
            return kind, {}
        del parent[path[-1]]
        return kind, doc
    if mutation == "swap":
        new = (value[0] if value else 0.5) if isinstance(value, list) else [value]
    elif mutation == "string":
        new = draw(st.sampled_from(["123", "abc", "", "inf"]))
    elif mutation == "bool":
        new = draw(st.booleans())
    elif mutation == "huge_int":
        new = draw(st.sampled_from([10**400, -(10**400)]))
    else:
        new = [[value]]
    if parent is None:
        return kind, new
    parent[path[-1]] = new
    return kind, doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@given(mutated_files())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_mutation_gives_an_exit_code_or_one_error_line(tmp_path_factory, case):
    kind, doc = case
    directory = tmp_path_factory.getbasetemp() / "fuzz_cli"
    directory.mkdir(exist_ok=True)
    base = {name: _write(directory / f"{name}.json", valid) for name, valid in FILES.items()}
    path = _write(directory / "mutated.json", doc)
    for argv in _commands(kind, path, base):
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3), (argv, doc)
        if code == 2:
            assert out == "" and err.count("\n") == 1, (argv, doc, err)
            assert err.startswith("vflab: error kind="), (argv, doc, err)
        else:
            assert out and err == "", (argv, doc, err)
