"""JSON and CSV emission plus descriptor loading for the CLI.

JSON is the canonical interchange; CSV is a lossy plot-oriented
projection.  Infinite values render as the literal string "inf" in both
directions (json.dumps would otherwise emit the invalid token Infinity).
Emitters are deterministic: fixed key order, repr-based float text,
trailing newline.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .functionals import (
    FunctionalHandle,
    TailDomain,
    ldp_term,
    log_integral,
    sup_form,
    tail_limsup,
)
from .ldp_lab import GridFunction, MeasureSequence
from .space import (
    STRUCTURAL_TOL,
    BoundedFunction,
    FiniteSpace,
    ProbabilityMeasure,
    RateFunction,
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
        return float(x)
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(x)
        except ValueError:
            pass
    raise ParseError(f"{where}: expected a number, got {x!r}", field=where)


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


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno) from None


# -- spaces, functions, measures --


def encode_space(space: FiniteSpace) -> dict:
    doc = {"points": list(space.point_ids)}
    if space.coords is not None:
        doc["coords"] = _reals(space.coords)
    else:
        doc["metric"] = [[float(v) for v in row] for row in space.metric_matrix()]
    return doc


def decode_space(doc) -> FiniteSpace:
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError("space needs a 'points' list", field="points")
    points = [str(p) for p in doc["points"]]
    if "coords" in doc:
        coords = [_num(c, "coords") for c in doc["coords"]]
        return FiniteSpace.from_line(coords, points)
    return FiniteSpace(points, metric=doc.get("metric"))


def encode_function(F) -> dict:
    doc = {"values": _reals(F.values)}
    tail = getattr(F, "tail_value", None)
    if tail is not None:
        doc["tail_value"] = _real(tail)
    return doc


def decode_function(doc, space):
    """Function vector onto a given space; tail_value needs a half-line domain."""
    if not isinstance(doc, dict) or "values" not in doc:
        raise ParseError("function needs a 'values' list", field="values")
    values = [_num(v, "values") for v in doc["values"]]
    if "tail_value" in doc:
        if not isinstance(space, TailDomain):
            raise ParseError("tail_value given but the space has no tail", field="tail_value")
        return space.function(values, _num(doc["tail_value"], "tail_value"))
    if isinstance(space, TailDomain):
        raise ParseError("half-line functions need a tail_value", field="tail_value")
    return BoundedFunction(values, space)


def encode_measure(mu: ProbabilityMeasure) -> dict:
    return {"weights": _reals(mu.weights)}


def decode_measure(doc) -> ProbabilityMeasure:
    """Weights from {"weights": [...]} or a bare list; off-by-more-than-1e-12
    sums are normalized with the divisor recorded on the result."""
    raw = doc.get("weights") if isinstance(doc, dict) else doc
    if not isinstance(raw, list) or not raw:
        raise ParseError("measure needs a nonempty 'weights' list", field="weights")
    w = np.array([_num(x, "weights") for x in raw])
    if abs(float(w.sum()) - 1.0) <= STRUCTURAL_TOL:
        return ProbabilityMeasure(w)
    return make_measure(w)


# -- rates --


def encode_rate(rate: RateFunction, L0: float = 0.0) -> dict:
    return {"L0": _real(L0), "rate": _reals(rate.values)}


def decode_rate(doc) -> tuple[float, RateFunction]:
    """(L0, rate) from {"L0", "rate", optional "points"/"coords"}.

    A DualReport JSON is accepted directly; its convergence block is
    ignored and the space falls back to default labels.
    """
    if not isinstance(doc, dict) or "rate" not in doc:
        raise ParseError("rate file needs a 'rate' list", field="rate")
    values = [_num(v, "rate") for v in doc["rate"]]
    if "coords" in doc:
        coords = [_num(c, "coords") for c in doc["coords"]]
        labels = [str(p) for p in doc["points"]] if "points" in doc else None
        space = FiniteSpace.from_line(coords, labels)
    elif "points" in doc:
        space = FiniteSpace([str(p) for p in doc["points"]], metric=doc.get("metric"))
    else:
        space = FiniteSpace.default(len(values))
    L0 = _num(doc.get("L0", 0.0), "L0")
    return L0, RateFunction(values, space)


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


def conjugate_report_csv(report) -> str:
    rows = [("value", "iterations", "converged", "stop_reason"),
            (report.value, int(report.iterations), bool(report.converged), report.stop_reason)]
    return _csv_text(rows)


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


def check_report_csv(report) -> str:
    rows = [
        ("property", "trials", "violations", "worst_violation", "tolerance", "seed"),
        (
            report.property_name,
            int(report.trials),
            int(report.violations),
            report.worst_violation,
            report.tolerance,
            int(report.seed),
        ),
    ]
    return _csv_text(rows)


def encode_measure_sequence(seq: MeasureSequence) -> dict:
    entries = []
    for e in seq.entries:
        coords = e.space.coords
        points = _reals(coords) if coords is not None else list(e.space.point_ids)
        entries.append({"n": int(e.n), "points": points, "weights": _reals(e.measure.weights)})
    return {"description": seq.description, "entries": entries}


def measure_sequence_csv(seq: MeasureSequence) -> str:
    rows = [("n", "point", "weight")]
    for e in seq.entries:
        coords = e.space.coords
        points = coords if coords is not None else e.space.point_ids
        rows += [(int(e.n), points[i], e.measure.weights[i]) for i in range(len(e.measure))]
    return _csv_text(rows)


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


def value_csv(value: float) -> str:
    return _csv_text([("value",), (value,)])


def encode_gap(functional_value: float, reconstruction: float, gap: float) -> dict:
    return {
        "functional_value": _real(functional_value),
        "reconstruction": _real(reconstruction),
        "gap": _real(gap),
    }


def gap_csv(functional_value: float, reconstruction: float, gap: float) -> str:
    return _csv_text([
        ("functional_value", "reconstruction", "gap"),
        (functional_value, reconstruction, gap),
    ])


# -- functional descriptors --


def decode_grid_function(doc) -> GridFunction:
    """{"values": [...]} on the 1025-point reference grid, or explicit "xs"."""
    if not isinstance(doc, dict) or "values" not in doc:
        raise ParseError("grid function needs a 'values' list", field="values")
    ys = [_num(v, "values") for v in doc["values"]]
    xs = [_num(v, "xs") for v in doc["xs"]] if "xs" in doc else None
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
    if kind == "log_integral":
        if "measure" not in doc:
            raise ParseError("log_integral needs a 'measure'", field="measure")
        space = decode_space(doc["space"]) if "space" in doc else None
        return log_integral(decode_measure(doc["measure"]), space=space)
    if kind == "sup_form":
        if "rate" not in doc:
            raise ParseError("sup_form needs a 'rate' list", field="rate")
        L0, rate = decode_rate(doc)
        return sup_form(rate, L0)
    if kind == "ldp_term":
        for key in ("measure", "n"):
            if key not in doc:
                raise ParseError(f"ldp_term needs {key!r}", field=key)
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParseError("n must be an integer", field="n")
        space = decode_space(doc["space"]) if "space" in doc else None
        return ldp_term(decode_measure(doc["measure"]), n, space=space)
    if kind == "tail_limsup":
        grid = None
        if "grid" in doc:
            grid = [_num(v, "grid") for v in doc["grid"]]
        return tail_limsup(TailDomain(grid))
    raise ParseError(f"unknown functional kind {kind!r}", field="kind")


def load_functional(path) -> FunctionalHandle:
    return decode_functional(read_json(path))


__all__ = [
    "dumps",
    "read_json",
    "encode_space",
    "decode_space",
    "encode_function",
    "decode_function",
    "encode_measure",
    "decode_measure",
    "encode_rate",
    "decode_rate",
    "encode_dual_report",
    "dual_report_csv",
    "encode_conjugate_report",
    "conjugate_report_csv",
    "encode_check_report",
    "check_report_csv",
    "encode_measure_sequence",
    "measure_sequence_csv",
    "encode_limit_report",
    "limit_report_csv",
    "encode_tightness",
    "tightness_csv",
    "encode_value",
    "value_csv",
    "encode_gap",
    "gap_csv",
    "decode_grid_function",
    "decode_functional",
    "load_functional",
]
