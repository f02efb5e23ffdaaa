"""The cli_cold workload: every vflab subcommand as its own process.

Inputs are small JSON files written from the seed; each operation is one
`python -m vflab ...` call.  Outputs are checked against closed forms from
oracles.py.  This module needs only the standard library, so the process
that spawns the calls never imports vflab, numpy or scipy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import oracles
from rounds import Op

M = 6
CRAMER_P = 0.5
CRAMER_SCHEDULE = (64, 256, 1024, 4096, 16384)
TIGHTNESS_P = 0.3
TIGHTNESS_SCHEDULE = (16, 64, 256, 1024, 4096)  # the CLI's default
SEQUENCE_NS = (4, 8, 16)
UNREACHABLE_TOL = "1e-30"
VALUE_TOL = 1e-9
LIMIT_TOL = 0.01
TV_TOL = 1e-5


def _weights(rng: random.Random, m: int) -> list[float]:
    raw = [rng.random() + 0.05 for _ in range(m)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def write_inputs(directory, seed: int) -> dict:
    """Write the input files for one seed and return the generated values."""
    d = Path(directory)
    rng = random.Random(seed)
    nu, mu = _weights(rng, M), _weights(rng, M)
    F = [rng.uniform(-2.0, 2.0) for _ in range(M)]
    rate = [rng.uniform(0.0, 3.0) for _ in range(M)]
    zero, inf = rng.sample(range(M), 2)
    rate[zero] = 0.0
    rate[inf] = math.inf
    L0 = rng.uniform(-1.0, 1.0)
    a, b, k, phi = rng.uniform(-2, 2), rng.uniform(0, 1), rng.choice((1, 2, 3)), rng.uniform(0, 2 * math.pi)
    xs = [i / 1024 for i in range(1025)]
    grid = [a * x + b * math.sin(2 * math.pi * k * x + phi) for x in xs]
    p_seq = rng.uniform(0.2, 0.8)
    entries = []
    for n in SEQUENCE_NS:
        w = [math.comb(n, j) * p_seq**j * (1 - p_seq) ** (n - j) for j in range(n + 1)]
        entries.append({"n": n, "points": [j / n for j in range(n + 1)], "weights": w})
    rate_doc = ["inf" if math.isinf(r) else r for r in rate]
    files = {
        "L": _write(d / "L.json", {"kind": "log_integral", "measure": {"weights": nu}}),
        "S": _write(d / "S.json", {"kind": "sup_form", "rate": rate_doc, "L0": L0}),
        "bad": _write(d / "bad.json", {"kind": "no_such_functional"}),
        "nu": _write(d / "nu.json", {"weights": nu}),
        "mu": _write(d / "mu.json", {"weights": mu}),
        "F": _write(d / "F.json", {"values": F}),
        "rate": _write(d / "rate.json", {"L0": L0, "rate": rate_doc}),
        "grid": _write(d / "grid.json", {"values": grid}),
        "seq": _write(d / "seq.json", {"description": "binomial", "entries": entries}),
    }
    return {
        "files": files, "nu": nu, "mu": mu, "F": F, "rate": rate, "L0": L0,
        "grid": grid, "xs": xs, "entries": entries,
        "tight_level": rng.uniform(0.02, 0.2), "seq_level": rng.uniform(0.05, 0.4),
    }


def cases(inputs: dict) -> list[tuple[str, list[str], int]]:
    """(label, argv after `vflab`, expected exit code), in the order they run."""
    f = inputs["files"]
    sched = ",".join(str(n) for n in CRAMER_SCHEDULE)
    base = [
        ("eval", ["eval", "--functional", f["L"], "--f", f["F"]], 0),
        ("dual", ["dual", "--functional", f["L"]], 0),
        ("reconstruct", ["reconstruct", "--rate", f["rate"], "--f", f["F"]], 0),
        ("gap", ["gap", "--functional", f["L"], "--f", f["F"]], 0),
        ("conjugate", ["conjugate", "--functional", f["L"], "--measure", f["mu"]], 0),
        ("recover", ["recover", "--measure", f["nu"], "--f", f["F"]], 0),
        ("cramer", ["cramer", "--p", str(CRAMER_P), "--schedule", sched, "--f", f["grid"]], 0),
    ]
    out = []
    for label, argv, code in base:
        out.append((label + ".json", argv, code))
        out.append((label + ".csv", argv + ["--format", "csv"], code))
    level, seq_level = repr(inputs["tight_level"]), repr(inputs["seq_level"])
    out += [
        ("check_maximal.json", ["check", "--functional", f["L"], "--property", "maximal"], 1),
        ("check_monotone.csv", ["check", "--functional", f["S"], "--property", "monotone", "--format", "csv"], 0),
        ("tightness_p.json", ["tightness", "--p", str(TIGHTNESS_P), "--level", level], 0),
        ("tightness_measure.csv", ["tightness", "--measure", f["seq"], "--level", seq_level, "--format", "csv"], 0),
        ("conjugate_unreachable.json", ["conjugate", "--functional", f["L"], "--measure", f["mu"], "--tol", UNREACHABLE_TOL], 3),
        ("bad_descriptor.json", ["eval", "--functional", f["bad"], "--f", f["F"]], 2),
    ]
    return out


def operations(inputs: dict, call) -> list[Op]:
    """One operation per case; call(argv) returns (exit code, stdout, stderr).

    Each output is checked against closed forms and against the stdout of
    the first call with the same argv.
    """
    first_out: dict[str, str] = {}
    ops = []
    for label, argv, expected in cases(inputs):

        def verify(result, label=label, expected=expected):
            code, out, err = result
            errors = check(label, inputs, code, expected, out, err)
            if first_out.setdefault(label, out) != out:
                errors.append(f"{label}: stdout differs from the first call with the same argv")
            return False, errors

        ops.append(Op(label, lambda argv=argv: call(argv), verify))
    return ops


# -- checks --


def _num(x) -> float:
    return float(x)  # float() reads "inf" as well


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _close(name: str, got: float, want: float, tol: float, errors: list) -> None:
    if not (abs(got - want) <= tol or (math.isinf(want) and got == want)):
        errors.append(f"{name}: got {got!r}, want {want!r} within {tol}")


def _log_values(inputs):
    nu, F = inputs["nu"], inputs["F"]
    return [math.log(w) + x for w, x in zip(nu, F)]


def _tightness_bounds(n: int, p: float, level: float):
    rates = [oracles.binomial_rate(n, k, p) for k in range(n + 1)]
    return oracles.sublevel_diameter_bounds(rates, [k / n for k in range(n + 1)], level)


def _sequence_bounds(entry: dict, level: float):
    rates = [-math.log(w) / entry["n"] if w > 0 else math.inf for w in entry["weights"]]
    return oracles.sublevel_diameter_bounds(rates, entry["points"], level)


def _expected(inputs: dict, key: str):
    """Slow oracle values, computed on first use and kept for later rounds."""
    cache = inputs.setdefault("expected", {})
    if key not in cache:
        if key == "cramer_sup":
            fn = oracles.piecewise_linear(inputs["xs"], inputs["grid"])
            cache[key] = oracles.cramer_sup(CRAMER_P, fn)
        else:
            level = inputs["tight_level"]
            cache[key] = [_tightness_bounds(n, TIGHTNESS_P, level) for n in TIGHTNESS_SCHEDULE]
    return cache[key]


def _check_diameters(label, pairs, bounds, errors):
    if len(pairs) != len(bounds):
        errors.append(f"{label}: {len(pairs)} diameters, want {len(bounds)}")
        return
    for (n, d), (lo, hi) in zip(pairs, bounds):
        if not lo - 1e-12 <= d <= hi + 1e-12:
            errors.append(f"{label}: diameter {d!r} at n={n} outside [{lo!r}, {hi!r}]")


def check(label: str, inputs: dict, code: int, expected: int, out: str, err: str) -> list[str]:
    """Errors in one call's result against closed forms; empty when correct."""
    errors: list[str] = []
    if code != expected:
        return [f"{label}: exit {code}, want {expected}; stderr {err.strip()!r}"]
    kind, fmt = label.rsplit(".", 1)
    if kind == "bad_descriptor":
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("vflab: error kind="):
            errors.append(f"{label}: want one error line on stderr, got {err!r} / stdout {out!r}")
        return errors
    if err:
        errors.append(f"{label}: unexpected stderr {err!r}")
    doc = json.loads(out) if fmt == "json" else _csv_rows(out)
    nu, mu, F = inputs["nu"], inputs["mu"], inputs["F"]
    lse_value = oracles.lse(_log_values(inputs))
    if kind == "eval":
        got = doc["value"] if fmt == "json" else doc[1][0]
        _close(label, _num(got), lse_value, VALUE_TOL, errors)
    elif kind == "dual":
        rates = doc["rate"] if fmt == "json" else [row[1] for row in doc[1:]]
        if len(rates) != M:
            errors.append(f"{label}: {len(rates)} rate entries, want {M}")
        for i, r in enumerate(rates):
            _close(f"{label} rate[{i}]", _num(r), -math.log(nu[i]), VALUE_TOL, errors)
    elif kind == "reconstruct":
        want = inputs["L0"] + max(x - r for x, r in zip(F, inputs["rate"]) if math.isfinite(r))
        got = doc["value"] if fmt == "json" else doc[1][0]
        _close(label, _num(got), want, VALUE_TOL, errors)
    elif kind == "gap":
        # the dual of log_integral(nu) is -log nu with L(0) = 0
        recon = max(_log_values(inputs))
        got = [doc[k] for k in ("functional_value", "reconstruction", "gap")] if fmt == "json" else doc[1]
        for name, g, w in zip(("value", "reconstruction", "gap"), got, (lse_value, recon, lse_value - recon)):
            _close(f"{label} {name}", _num(g), w, VALUE_TOL, errors)
    elif kind in ("conjugate", "conjugate_unreachable"):
        value, converged = (doc["value"], doc["converged"]) if fmt == "json" else (doc[1][0], doc[1][2] == "true")
        _close(label, _num(value), oracles.kl(mu, nu), VALUE_TOL, errors)
        if converged != (kind == "conjugate"):
            errors.append(f"{label}: converged={converged}")
    elif kind == "recover":
        value = doc["value"] if fmt == "json" else doc[1][0]
        _close(label, _num(value), lse_value, VALUE_TOL, errors)
        if fmt == "json":
            tv = oracles.total_variation(doc["maximizer"], oracles.tilt(nu, F))
            if tv > TV_TOL:
                errors.append(f"{label}: maximizer is {tv!r} from the tilt in total variation")
    elif kind == "cramer":
        ext = doc["extrapolated"] if fmt == "json" else doc[-1][1]
        _close(label, _num(ext), _expected(inputs, "cramer_sup"), LIMIT_TOL, errors)
        ns = [t["n"] for t in doc["terms"]] if fmt == "json" else [int(r[0]) for r in doc[1:-1]]
        if tuple(ns) != CRAMER_SCHEDULE:
            errors.append(f"{label}: terms at n={ns}")
    elif kind == "check_maximal":
        if doc["violations"] < 1 or doc["witness"] is None:
            errors.append(f"{label}: log_integral passed the maximal check")
        else:
            Fw, Gw = doc["witness"]["F"]["values"], doc["witness"]["G"]["values"]
            lf, lg = (oracles.log_integral(nu, v) for v in (Fw, Gw))
            lfg = oracles.log_integral(nu, [max(x, y) for x, y in zip(Fw, Gw)])
            _close(f"{label} witness", abs(lfg - max(lf, lg)), _num(doc["worst_violation"]), VALUE_TOL, errors)
    elif kind == "check_monotone":
        if int(doc[1][2]) != 0:
            errors.append(f"{label}: {doc[1][2]} violations on sup_form")
    elif kind == "tightness_p":
        pairs = [(d["n"], d["diameter"]) for d in doc["diameters"]]
        bounds = _expected(inputs, "tightness_p")
        _check_diameters(label, pairs, bounds, errors)
    elif kind == "tightness_measure":
        pairs = [(int(r[0]), _num(r[1])) for r in doc[1:]]
        bounds = [_sequence_bounds(e, inputs["seq_level"]) for e in inputs["entries"]]
        _check_diameters(label, pairs, bounds, errors)
    else:
        errors.append(f"{label}: no check defined")
    return errors
