"""One workload in a fresh interpreter: set up, warm up, then timed rounds.

run.py starts this process; it is not meant to be run by hand:

    python3 vfbench/worker.py --workload dual_axioms --seed 1 --seconds 25 --trace 0

It prints READY once vflab is imported, the inputs are generated and the
warm-up is done, then (unless --setup-only) one JSON line with the
measurements.  With --trace 1, untraced and traced rounds alternate;
for cli_cold the rounds replay its argv list through vflab.cli.run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import rounds

READY = "vfbench-ready"
ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".vfbench"
MIN_ROUNDS = 3


def _cli_replay(seed: int, tr, inputs_dir: Path):
    """The cli_cold operations, each a vflab.cli.run call in this process."""
    import cli_cold
    from vflab.cli import run as cli_run

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(argv)
        text = out.getvalue()
        if tr.active:
            tr.counts["bytes_out"] += len(text.encode())
        return code, text, err.getvalue()

    return cli_cold.operations(cli_cold.write_inputs(inputs_dir, seed), call)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import vflab  # noqa: F401  (import time is part of set-up)

    from tracer import Tracer

    tr = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="worker-", dir=OUT_DIR))
    try:
        if args.workload == "cli_cold":
            ops = _cli_replay(args.seed, tr, scratch)
            warm = ops[:1]
        else:
            import workloads

            build = workloads.WORKLOADS[args.workload]
            ops = build(args.seed, tr)
            warm = build(args.seed, tr, warm=True)
        errors: list[str] = []
        _, results = rounds.run_round(warm, tr)
        rounds.check_round(warm, results, errors)
        if errors:
            print("warm-up output is wrong: " + "; ".join(errors[: rounds.MAX_ERRORS]), file=sys.stderr)
            return 1
        print(READY, flush=True)
        if args.setup_only:
            return 0
        result = rounds.measure(ops, tr, args.seconds, bool(args.trace), MIN_ROUNDS)
        if args.trace:
            # vflab.cli.run without interpreter start-up or imports
            is_cli = args.workload == "cli_cold"
            result["layers"]["cli.run_ms"] = result["latency"]["op_p50_ms"][0] if is_cli else 0.0
            tr.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
