"""The package's one file-format module: every JSON and CSV read and write.

JSON is the canonical interchange; CSV is a lossy plot-oriented
projection.  Infinite values render as the literal string "inf" in both
directions (json.dumps would otherwise emit the invalid token Infinity).
Every list field of an input must be a JSON array of numbers (point
labels excepted), read by one list reader.  Emitters are deterministic:
fixed key order, repr-based float text, trailing newline; a flat
report's CSV is the scalar fields of its JSON document.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, ParseError
from .functionals import (
    FunctionalHandle,
    TailDomain,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from .ldp_lab import GridFunction, MeasureSequence, SequenceEntry
from .space import (
    BoundedFunction,
    FiniteSpace,
    ProbabilityMeasure,
    RateFunction,
    _mass,
    make_measure,
)


def _real(x):
    """One JSON-safe number: finite floats stay floats, inf becomes a string."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _reals(xs):
    return [_real(x) for x in xs]


def _num(x, where: str) -> float:
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a number", field=where)
    if isinstance(x, (int, float)):
        try:
            return float(x)
        except OverflowError:  # an integer past the float range
            raise ParseError(f"{where}: number too large for a float", field=where) from None
    if isinstance(x, str):
        try:  # float reads "inf", " +Infinity " and "-infinity" as well
            return float(x)
        except ValueError:
            pass
    raise ParseError(f"{where}: expected a number, got {x!r}", field=where)


def _label(x, where: str) -> str:
    return str(x)


def _list(doc, key: str, owner: str, item=_num, nonempty: bool = False) -> list:
    """doc[key] as a list, each entry read by item(entry, key) (numbers by default).

    A doc that is not an object, a missing key, and a value that is not a
    JSON array (a string included) are each a ParseError naming the field.
    """
    raw = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(raw, list) or (nonempty and not raw):
        raise ParseError(f"{owner} needs a {'nonempty ' if nonempty else ''}{key!r} list", field=key)
    return [item(x, key) for x in raw]


def _metric_row(row, key: str) -> list:
    return _list({key: row}, key, "space")


def _csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _csv_text(rows) -> str:
    return "".join(",".join(_csv_cell(c) for c in row) + "\n" for row in rows)


def flat_csv(doc: dict) -> str:
    """A flat report's CSV: its scalar fields in key order, as a header and one row.

    Lists, objects and None stay in the JSON alone.
    """
    keys = [k for k, v in doc.items() if v is not None and not isinstance(v, (list, dict))]
    return _csv_text([keys, [doc[k] for k in keys]])


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _read_text(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc.reason}") from None


def read_json(path) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    # bad syntax, an integer literal past Python's digit limit, or arrays nested too deep
    except (ValueError, RecursionError) as exc:
        msg, line = getattr(exc, "msg", exc), getattr(exc, "lineno", None)
        raise ParseError(f"{path}: invalid JSON: {msg}", line=line) from None


# -- spaces, functions, measures --


def decode_space(doc, default_size: int | None = None) -> FiniteSpace:
    """Space from optional "points" with "coords" or a "metric", never both.

    Points left out take the default labels, as many as "coords" or as
    default_size, the size of the space's owner (a rate or a measure);
    with none of the three keys the space is FiniteSpace.default(default_size).
    """
    if not isinstance(doc, dict):
        raise ParseError("a space must be a JSON object", field="space")
    metric = _list(doc, "metric", "space", _metric_row) if doc.get("metric") is not None else None
    labels = None
    if "points" in doc or default_size is None and "coords" not in doc:
        labels = _list(doc, "points", "space", _label)
    if "coords" in doc:
        if metric is not None:
            raise ParseError("a space takes 'coords' or 'metric', not both", field="metric")
        return FiniteSpace.from_line(_list(doc, "coords", "space"), labels)
    if labels is None and metric is None:
        return FiniteSpace.default(default_size)
    if labels is None:  # a metric is checked against the owner's size
        labels = FiniteSpace.default(default_size).point_ids
    return FiniteSpace(labels, metric=metric)


def encode_function(F) -> dict:
    doc = {"values": _reals(F.values)}
    tail = getattr(F, "tail_value", None)
    if tail is not None:
        doc["tail_value"] = _real(tail)
    return doc


def decode_function(doc, space):
    """Function vector onto a given space; tail_value needs a half-line domain."""
    values = _list(doc, "values", "function")
    if "tail_value" in doc:
        if not isinstance(space, TailDomain):
            raise ParseError("tail_value given but the space has no tail", field="tail_value")
        return space.function(values, _num(doc["tail_value"], "tail_value"))
    if isinstance(space, TailDomain):
        raise ParseError("half-line functions need a tail_value", field="tail_value")
    return BoundedFunction(values, space)


def decode_measure(doc) -> ProbabilityMeasure:
    """Weights from {"weights": [...]} or a bare list, through make_measure:
    sums within 1e-12 of 1 keep their bits, others are normalized."""
    if isinstance(doc, list):
        doc = {"weights": doc}
    return make_measure(_list(doc, "weights", "measure", nonempty=True))


# -- rates --


def decode_rate(doc) -> tuple[float, RateFunction]:
    """(L0, rate) from {"L0", "rate"} plus a space object (decode_space) sized by the rate.

    A DualReport JSON is accepted directly; its convergence block is
    ignored and the space falls back to default labels.
    """
    values = _list(doc, "rate", "rate file")
    space = decode_space(doc, default_size=len(values))
    return _num(doc.get("L0", 0.0), "L0"), RateFunction(values, space)


# -- reports --


def encode_dual_report(report) -> dict:
    return {
        "L0": _real(report.base_value),
        "rate": _reals(report.rate.values),
        "convergence": [
            {
                "depth": _real(c.depth),
                "increment": _real(c.increment),
                "divergent": bool(c.divergent),
            }
            for c in report.per_point_convergence
        ],
    }


def dual_report_csv(report) -> str:
    rows = [("point", "rate", "depth", "increment", "divergent")]
    for i, c in enumerate(report.per_point_convergence):
        rows.append((c.point, report.rate.values[i], c.depth, c.increment, bool(c.divergent)))
    return _csv_text(rows)


def encode_conjugate_report(report) -> dict:
    maximizer = getattr(report.maximizer, "weights", None)
    if maximizer is None:
        maximizer = report.maximizer.values
    return {
        "value": _real(report.value),
        "maximizer": _reals(maximizer),
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "stop_reason": report.stop_reason,
    }


def encode_check_report(report) -> dict:
    doc = {
        "property": report.property_name,
        "trials": int(report.trials),
        "violations": int(report.violations),
        "worst_violation": _real(report.worst_violation),
        "tolerance": _real(report.tolerance),
        "seed": int(report.seed),
        "witness": _jsonify(report.witness),
    }
    if report.trajectory is not None:
        doc["trajectory"] = _reals(report.trajectory)
    return doc


def _jsonify(obj):
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return _real(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    return repr(obj)


INGEST_RENORM_TOL = 1e-6


def _sequence_entry(n, points: list, weights: list, where: str) -> SequenceEntry:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"{where}: n must be a positive integer", field="n")
    if n > sys.float_info.max:
        raise ParseError(f"{where}: n is too large for a float", field="n")
    w = np.array(weights, dtype=float)
    if len(w) == 0 or len(points) != len(w):
        raise ParseError(f"{where}: points and weights must be nonempty and equal length", field="weights")
    measure = make_measure(w)  # the weights' own check comes before the file's sum rule
    total = _mass(w)
    if abs(total - 1.0) > INGEST_RENORM_TOL:
        raise InvariantViolation(
            f"{where}: weights sum to {total!r}, outside the {INGEST_RENORM_TOL} ingest tolerance"
        )
    return SequenceEntry(n=n, space=FiniteSpace.from_line(points), measure=measure)


def _csv_sequence(text: str, description: str) -> MeasureSequence:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if not rows:
        raise ParseError("empty CSV", line=1)
    if [c.strip().lower() for c in rows[0]] != ["n", "point", "weight"]:
        raise ParseError("expected header n,point,weight", line=1)
    groups: dict[int, tuple[list, list]] = {}  # n -> (points, weights), in file order
    last = None
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError("expected three columns", line=lineno)
        try:
            n, pt, wt = int(row[0]), float(row[1]), float(row[2])
        except ValueError:
            raise ParseError("malformed row", line=lineno) from None
        if n in groups and n != last:
            raise InvariantViolation(f"line {lineno}: rows of n={n} resume after rows of another n")
        last = n
        points, weights = groups.setdefault(n, ([], []))
        points.append(pt)
        weights.append(wt)
    entries = [_sequence_entry(n, pts, wts, f"n={n}") for n, (pts, wts) in groups.items()]
    return MeasureSequence(description=description, entries=tuple(entries))


def load_measure_sequence(path) -> MeasureSequence:
    """Read a measure sequence from a JSON or CSV file.

    JSON: {"description": s, "entries": [{"n", "points", "weights"}]}.
    CSV: header n,point,weight with the rows of each n contiguous (the
    description falls back to the file stem).  Weights go through
    make_measure, so sums within 1e-12 of 1 keep their bits; sums within
    1e-6 are renormalized, anything worse is an InvariantViolation, as are
    out-of-order n and rows of one n split by another.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _csv_sequence(_read_text(path), path.stem)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("description", "entries"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}", field=key)
    if not isinstance(doc["entries"], list):
        raise ParseError("entries must be a list", field="entries")
    entries = []
    for i, item in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        if not isinstance(item, dict):
            raise ParseError(f"{where}: entry must be an object", field="entries")
        for key in ("n", "points", "weights"):
            if key not in item:
                raise ParseError(f"{where}: missing key {key!r}", field=key)
        points, weights = _list(item, "points", where), _list(item, "weights", where)
        entries.append(_sequence_entry(item["n"], points, weights, where))
    return MeasureSequence(description=str(doc["description"]), entries=tuple(entries))


def encode_limit_report(report) -> dict:
    return {
        "terms": [{"n": int(n), "value": _real(v)} for n, v in report.terms],
        "extrapolated": _real(report.extrapolated),
        "converged": bool(report.converged),
        "fit_slope": _real(report.fit_slope),
    }


def limit_report_csv(report) -> str:
    rows = [("n", "value")]
    rows += [(int(n), v) for n, v in report.terms]
    rows.append(("extrapolated", report.extrapolated))
    return _csv_text(rows)


def encode_tightness(level: float, pairs) -> dict:
    return {
        "level": _real(level),
        "diameters": [{"n": int(n), "diameter": _real(d)} for n, d in pairs],
    }


def tightness_csv(pairs) -> str:
    rows = [("n", "diameter")]
    rows += [(int(n), d) for n, d in pairs]
    return _csv_text(rows)


def encode_value(value: float) -> dict:
    return {"value": _real(value)}


def encode_gap(functional_value: float, reconstruction: float, gap: float) -> dict:
    return {
        "functional_value": _real(functional_value),
        "reconstruction": _real(reconstruction),
        "gap": _real(gap),
    }


# -- functional descriptors --


def decode_grid_function(doc) -> GridFunction:
    """{"values": [...]} on the 1025-point reference grid, or explicit "xs"."""
    ys = _list(doc, "values", "grid function")
    xs = _list(doc, "xs", "grid function") if "xs" in doc else None
    return GridFunction(ys, xs)


def decode_functional(doc) -> FunctionalHandle:
    """Resolve {"kind": ..., parameters...} to a functional handle.

    Kinds and their parameters:
      log_integral: measure {"weights": [...]}, optional space
      sup_form:     rate [r|"inf"], optional L0, optional space
      ldp_term:     measure, n, optional space
      tail_limsup:  optional grid (half-line coordinates)
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("functional descriptor needs a 'kind'", field="kind")
    kind = doc["kind"]
    if kind in ("log_integral", "ldp_term"):
        keys = ("measure", "n") if kind == "ldp_term" else ("measure",)
        for key in keys:
            if key not in doc:
                raise ParseError(f"{kind} needs {key!r}", field=key)
        n = doc["n"] if kind == "ldp_term" else 1
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParseError("n must be an integer", field="n")
        nu = decode_measure(doc["measure"])
        space = decode_space(doc["space"], len(nu)) if "space" in doc else None  # sized by the measure
        return ldp_term(nu, n, space=space) if kind == "ldp_term" else log_integral(nu, space=space)
    if kind == "sup_form":
        if "rate" not in doc:
            raise ParseError("sup_form needs a 'rate' list", field="rate")
        L0, rate = decode_rate(doc)
        return sup_form(rate, L0)
    if kind == "tail_limsup":
        grid = _list(doc, "grid", "tail_limsup") if "grid" in doc else None
        return tail_limsup(TailDomain(grid))
    raise ParseError(f"unknown functional kind {kind!r}", field="kind")


def load_functional(path) -> FunctionalHandle:
    return decode_functional(read_json(path))


__all__ = [
    "dumps",
    "flat_csv",
    "read_json",
    "decode_space",
    "encode_function",
    "decode_function",
    "decode_measure",
    "decode_rate",
    "encode_dual_report",
    "dual_report_csv",
    "encode_conjugate_report",
    "encode_check_report",
    "load_measure_sequence",
    "encode_limit_report",
    "limit_report_csv",
    "encode_tightness",
    "tightness_csv",
    "encode_value",
    "encode_gap",
    "decode_grid_function",
    "decode_functional",
    "load_functional",
]
