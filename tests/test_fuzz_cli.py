"""Fuzz the CLI boundary: one mutation of a valid input file, or odd argv.

The file fuzz takes a valid descriptor, function, measure, rate, sequence
or grid-function file, changes one field (scalar and array swapped, a
string or a bool in place of the value, an integer past the float range,
an extra array level, or the key removed), and runs every command that
reads the file through cli.run in-process.  The argv fuzz draws a
subcommand and each of its flags from small value sets: nan, inf,
negatives, 0, bad tokens, unknown choices, check seeds past 2**32, 2**64
and 2**128, and a valid, missing or directory path for every input and
for --output.  Whatever the input,
the exit code is 0, 1, 2 or 3, an exit 2 prints exactly one error record
on stderr, and no exception escapes.
"""

import contextlib
import copy
import io
import json
import re

import pytest
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


NUMBERS = ("nan", "inf", "-inf", "-1", "0", "1e-3", "0.5", "2", "abc", "")
# seeds just under 2**32 and 2**64 and one past 2**128: PCG64 is seeded
# from all of their words, and the report carries each back unchanged
HUGE_SEEDS = ("4294967295", "18446744073709551000", "1234567890123456789012345678901234567890")
SCHEDULES = ("default", "1,2,4", "16,64,256", "4096", "4,2,1", "0,1,2", "1,nan", "x", "")


def _file(flag, kind):
    """A flag given a valid file of this kind; drawn, it is left out or names a missing path or a directory."""
    return (flag, f"{{{kind}}}"), [(), (flag, "{missing}"), (flag, "{dir}")]


def _values(flag, valid, drawn):
    """A flag given valid (left out when None); drawn, it is left out or takes one of drawn."""
    return (() if valid is None else (flag, valid)), [(), *((flag, v) for v in drawn)]


DEPTHS = _values("--schedule", None, ("default", "1,2,4,8", "nan", "-1,2", "2,1", "x", ""))
COMMANDS = {
    "eval": [_file("--functional", "log_integral"), _file("--f", "function")],
    "dual": [_file("--functional", "log_integral"), DEPTHS],
    "reconstruct": [_file("--rate", "rate"), _file("--f", "function")],
    "gap": [_file("--functional", "sup_form"), _file("--f", "function"), DEPTHS],
    "conjugate": [
        _file("--functional", "log_integral"),
        _file("--measure", "measure"),
        _values("--tol", None, NUMBERS),
    ],
    "recover": [_file("--measure", "measure"), _file("--f", "function"), _values("--tol", None, NUMBERS)],
    "check": [
        _file("--functional", "log_integral"),
        _values("--property", "monotone", ("translation", "lipschitz", "sigma", "bogus", "")),
        _values("--trials", "8", ("-1", "0", "1", "20", "abc", "nan")),
        _values("--seed", None, ("-1", "0", "abc", *HUGE_SEEDS)),
        _values("--tol", None, NUMBERS),
    ],
    "cramer": [_values("--p", "0.3", NUMBERS), _values("--schedule", None, SCHEDULES), _file("--f", "grid_function")],
    "tightness": [
        _values("--p", "0.3", NUMBERS),
        _values("--measure", None, ("{sequence}", "{missing}", "{dir}")),
        _values("--schedule", None, SCHEDULES),
        _values("--level", "0.2", NUMBERS),
    ],
}
FORMAT = _values("--format", None, ("json", "csv", "xml"))
OUTPUT = _values("--output", None, ("{out}", "{missing}", "{dir}"))
RECORD = re.compile(r'vflab: error kind=\w+ detail="((?:[^"\\]|\\.)*)"$')


@st.composite
def argvs(draw):
    """A subcommand with valid flags, up to three of which are drawn instead."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = [*COMMANDS[command], FORMAT, OUTPUT]
    drawn = draw(st.sets(st.integers(0, len(options) - 1), max_size=3))
    argv = [command]
    for i, (valid, alternatives) in enumerate(options):
        argv.extend(draw(st.sampled_from(alternatives)) if i in drawn else valid)
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_odd_argv_gives_an_exit_code_or_one_error_line(tmp_path_factory, argv):
    directory = tmp_path_factory.getbasetemp() / "fuzz_argv"
    directory.mkdir(exist_ok=True)
    paths = {name: _write(directory / f"{name}.json", valid) for name, valid in FILES.items()}
    paths.update(missing=str(directory / "no" / "such.json"), dir=str(directory), out=str(directory / "out.txt"))
    argv = [token.format(**paths) for token in argv]
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert RECORD.match(err.rstrip("\n")), (argv, err)
    if code == 0:
        report = out if "--output" not in argv else (directory / "out.txt").read_text()
        assert "nan" not in report, (argv, report)


@pytest.mark.parametrize("seed", HUGE_SEEDS)
@pytest.mark.parametrize("prop", ["monotone", "maximal"])
def test_huge_seed_gives_a_report(tmp_path, seed, prop):
    path = _write(tmp_path / "L.json", FILES["log_integral"])
    code, out, err = _run(["check", "--functional", path, "--property", prop, "--trials", "20", "--seed", seed])
    assert code in (0, 1) and err == "", (code, err)
    assert json.loads(out)["seed"] == int(seed)
