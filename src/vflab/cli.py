"""Command-line surface: evaluate functionals, run duals, certify axioms,
and emit plot-ready tables.

Exit codes: 0 success, 1 check violations, 2 usage or input errors,
3 non-convergence.  Identical argv, input files and seed produce
byte-identical output.  Set VF_LOG=debug|info for diagnostic traces on
standard error; reports themselves go to stdout or --output.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import serialize
from .axioms import DEFAULT_TOL, CHECKS, check_sigma_continuity, vanishing_sequence
from .convex_duality import ASCENT_TOL, conjugate_J, kl_functional, recover_L_from_J
from .duality import PitSchedule, dual_rate, reconstruct
from .errors import VflabError
from .ldp_lab import cramer_sequence, estimate_limit, tightness_scan
from .space import FiniteSpace

log = logging.getLogger("vflab")

CRAMER_DEFAULT_SCHEDULE = (16, 64, 256, 1024, 4096)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints two lines and exits on its own; route through the
    # one-line machine-parsable error record instead
    def error(self, message):
        raise _UsageError(message)


def _setup_logging() -> None:
    wanted = os.environ.get("VF_LOG", "").strip().lower()
    if wanted not in ("debug", "info") or log.handlers:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("vflab %(levelname)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.DEBUG if wanted == "debug" else logging.INFO)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _emit(args, doc: dict, table=None) -> None:
    """Write the report in the format asked for, rendering only that one.

    JSON is doc; CSV is table() for reports with a row table of their
    own, else doc's scalar fields as one row.
    """
    if args.format == "csv":
        text = table() if table is not None else serialize.flat_csv(doc)
    else:
        text = serialize.dumps(doc)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _parse_schedule(text: str | None, default, parse, expected: str):
    """--schedule as a tuple of parse(token); absent or 'default' gives default."""
    if text in (None, "default"):
        return default
    try:
        return tuple(parse(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"bad --schedule {text!r}: expected 'default' or comma-separated {expected}") from None


def _load_function_on(path, space):
    return serialize.decode_function(serialize.read_json(path), space)


# -- command handlers --


def _cmd_eval(args) -> int:
    L = serialize.load_functional(args.functional)
    F = _load_function_on(args.f, L.space)
    value = L.evaluate(F)
    log.info("eval %s -> %r", L.name, value)
    _emit(args, serialize.encode_value(value))
    return 0


def _cmd_dual(args) -> int:
    L = serialize.load_functional(args.functional)
    sched = PitSchedule(_parse_schedule(args.schedule, None, float, "depths"))
    log.info("dual of %s over %d depths", L.name, len(sched.depths))
    report = dual_rate(L, sched)
    _emit(args, serialize.encode_dual_report(report), lambda: serialize.dual_report_csv(report))
    return 0


def _cmd_reconstruct(args) -> int:
    L0, rate = serialize.decode_rate(serialize.read_json(args.rate))
    F = _load_function_on(args.f, rate.space)
    value = reconstruct(rate, L0, F)
    _emit(args, serialize.encode_value(value))
    return 0


def _cmd_gap(args) -> int:
    L = serialize.load_functional(args.functional)
    F = _load_function_on(args.f, L.space)
    sched = PitSchedule(_parse_schedule(args.schedule, None, float, "depths"))
    report = dual_rate(L, sched)
    value = L.evaluate(F)
    recon = reconstruct(report.rate, report.base_value, F)
    gap = value - recon
    log.info("gap %r = %r - %r", gap, value, recon)
    _emit(args, serialize.encode_gap(value, recon, gap))
    return 0


def _cmd_conjugate(args) -> int:
    L = serialize.load_functional(args.functional)
    mu = serialize.decode_measure(serialize.read_json(args.measure))
    report = conjugate_J(L, mu, tol=args.tol)
    log.info("conjugate value %r after %d iterations (%s)", report.value, report.iterations, report.stop_reason)
    _emit(args, serialize.encode_conjugate_report(report))
    return 0 if report.converged else 3


def _cmd_recover(args) -> int:
    nu = serialize.decode_measure(serialize.read_json(args.measure))
    space = FiniteSpace.default(len(nu.weights))
    F = _load_function_on(args.f, space)
    report = recover_L_from_J(kl_functional(nu), 0.0, F, tol=args.tol)
    log.info("recover value %r after %d iterations (%s)", report.value, report.iterations, report.stop_reason)
    _emit(args, serialize.encode_conjugate_report(report))
    return 0 if report.converged else 3


def _cmd_check(args) -> int:
    L = serialize.load_functional(args.functional)
    if args.property == "sigma":
        seq = vanishing_sequence(L.space)
        report = check_sigma_continuity(L, seq, tol=args.tol)
    else:
        try:
            fn = CHECKS[args.property]
        except KeyError:
            names = ", ".join(["sigma", *CHECKS])
            raise _UsageError(f"unknown --property {args.property!r}; one of: {names}") from None
        report = fn(L, trials=args.trials, seed=args.seed, tol=args.tol)
    log.info("check %s: %d/%d violations", report.property_name, report.violations, report.trials)
    _emit(args, serialize.encode_check_report(report))
    return 1 if report.violations > 0 else 0


def _cmd_cramer(args) -> int:
    schedule = _parse_schedule(args.schedule, CRAMER_DEFAULT_SCHEDULE, int, "integers")
    seq = cramer_sequence(args.p, schedule)
    F = serialize.decode_grid_function(serialize.read_json(args.f))
    report = estimate_limit(seq, F)
    log.info("cramer extrapolated %r (converged=%s)", report.extrapolated, report.converged)
    _emit(args, serialize.encode_limit_report(report), lambda: serialize.limit_report_csv(report))
    return 0 if report.converged else 3


def _cmd_tightness(args) -> int:
    if args.p is None:
        if args.schedule is not None:
            raise _UsageError("argument --schedule: not allowed with argument --measure")
        seq = serialize.load_measure_sequence(args.measure)
    else:
        schedule = _parse_schedule(args.schedule, CRAMER_DEFAULT_SCHEDULE, int, "integers")
        seq = cramer_sequence(args.p, schedule)
    pairs = tightness_scan(seq, args.level)
    _emit(args, serialize.encode_tightness(args.level, pairs), lambda: serialize.tightness_csv(pairs))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="vflab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a functional on a function")
    p.add_argument("--functional", required=True)
    p.add_argument("--f", required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("dual", help="pit-method dual: the rate function of a functional")
    p.add_argument("--functional", required=True)
    p.add_argument("--schedule", default="default", help="'default' or comma-separated pit depths")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("reconstruct", help="L0 + max(F - rate) from a rate file")
    p.add_argument("--rate", required=True)
    p.add_argument("--f", required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("gap", help="functional value minus its sup-form reconstruction")
    p.add_argument("--functional", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--schedule", default="default")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("conjugate", help="J(mu) = L0 + sup_F (mu(F) - L(F)) by ascent along (mu - dL/dF)/(dL/dF) with secant steps")
    p.add_argument("--functional", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--tol", type=float, default=ASCENT_TOL, help="gradient tolerance override")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_conjugate)

    p = sub.add_parser("recover", help="L(F) = sup_mu (mu(F) - KL(mu||nu)) by mirror ascent")
    p.add_argument("--measure", required=True, help="the reference measure nu")
    p.add_argument("--f", required=True)
    p.add_argument("--tol", type=float, default=ASCENT_TOL, help="KKT tolerance override")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("check", help="certify a property on seeded random trials")
    p.add_argument("--functional", required=True)
    p.add_argument("--property", required=True, help=", ".join(CHECKS) + ", or sigma")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("cramer", help="Bernoulli LDP limit: per-n values plus extrapolation")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--schedule", default="default", help="'default' or comma-separated n values")
    p.add_argument("--f", required=True, help="grid function file (values on [0,1])")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_cramer)

    p = sub.add_parser("tightness", help="sublevel-set diameters across a measure sequence")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--p", type=float, help="build the Cramer instance for this p")
    source.add_argument("--measure", help="ingest a measure-sequence file instead")
    p.add_argument("--schedule", help="'default' or comma-separated n values; --p only")
    p.add_argument("--level", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_tightness)

    return parser


def _require_input_files(args) -> None:
    for flag in ("functional", "measure", "rate", "f"):
        path = getattr(args, flag, None)
        if path is not None and not os.path.isfile(path):
            raise _UsageError(f"input file not found: {path}")


def run(argv=None) -> int:
    """Parse argv, dispatch, and return the exit code (library entry point)."""
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        _require_input_files(args)
        return args.handler(args)
    except (_UsageError, VflabError, MemoryError) as exc:
        kind = "usage" if isinstance(exc, _UsageError) else type(exc).__name__
        if isinstance(exc, MemoryError):  # numpy raises its private subclass, _ArrayMemoryError
            kind = "MemoryError"
        # escaped so that detail="..." stays one quoted field whatever the message quotes
        detail = str(exc).replace("\n", " ").replace("\\", "\\\\").replace('"', '\\"')
        print(f'vflab: error kind={kind} detail="{detail}"', file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
