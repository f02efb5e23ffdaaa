"""The vflab benchmark: run one workload, or all four, and print its metrics.

    python3 vfbench/run.py --workload dual_axioms --seed 1 --seconds 25 --trace 0
    python3 vfbench/run.py --workload all --seed 1          # every workload

Each in-process workload runs in a fresh interpreter (worker.py) with
BLAS threads pinned to 1; set-up is repeated SETUPS times in fresh
processes and its median reported.  cli_cold spawns `python -m vflab`
from this process, one call at a time.  With --trace 1 the per-layer
metrics are printed instead of the end-to-end ones.  The last line of
standard output is one JSON object; the exit code is 1 when an output
check failed and 2 when the checkout has no vflab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

import cli_cold
import rounds
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".vfbench"
WORKLOADS = ("dual_axioms", "entropy_duality", "cramer_ldp", "cli_cold")
SETUPS = 3
PROBES = 5
RUN_LIMIT_S = 170.0
MIN_CLI_ROUNDS = 2
IMPORT_PROBE = "import time; t = time.perf_counter(); import vflab; print(time.perf_counter() - t)"


class BenchError(Exception):
    pass


def _metric_specs():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("VF_LOG", None)  # traces on stderr would change the CLI output
    return env


def _wait(proc, deadline: float):
    """Reap proc before the deadline; returns its resource usage."""

    def on_alarm(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - monotonic(), 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise BenchError(f"{proc.args[1:3]} ran past the time limit") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _spawn(argv, env, deadline):
    """Run one process to completion; returns (seconds, code, stdout, stderr, peak RSS in MB)."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        usage = _wait(proc, deadline)
        dt = perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return dt, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024


def _worker(args, env, deadline, setup_only):
    """Start worker.py; returns (setup seconds, result dict or None, peak RSS in MB)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    setup = None
    lines = []
    buf = b""
    fd = proc.stdout.fileno()
    try:
        while True:
            if not select.select([fd], [], [], max(deadline - monotonic(), 0))[0]:
                raise BenchError(f"{args.workload} ran past the time limit")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line.decode() == "vfbench-ready" and setup is None:
                    setup = perf_counter() - t0
                else:
                    lines.append(line.decode())
    except BenchError:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        usage = _wait(proc, deadline + 5)
    if proc.returncode != 0 or setup is None:
        raise BenchError(f"worker for {args.workload} exited with {proc.returncode}")
    result = None if setup_only else json.loads(lines[-1])
    return setup, result, usage.ru_maxrss / 1024


def run_inprocess(args, env, deadline) -> dict:
    setups = [_worker(args, env, deadline, True)[0] for _ in range(SETUPS - 1)]
    setup, result, peak = _worker(args, env, deadline, False)
    setups.append(setup)
    result["setup_s"] = statistics.median(setups)
    result["peak_rss_mb"] = peak
    return result


def run_cli(args, env, deadline) -> dict:
    """cli_cold: each operation is one `python -m vflab` process."""
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    peak = [0.0]

    def call(argv):
        _, code, out, err, rss = _spawn([sys.executable, "-m", "vflab", *argv], env, deadline)
        peak[0] = max(peak[0], rss)
        return code, out, err

    try:
        setups = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            ops = cli_cold.operations(cli_cold.write_inputs(workdir, args.seed), call)
            _, errors = ops[0].check(ops[0].run())  # warm-up: one call, so the file cache is warm
            setups.append(perf_counter() - t0)
            if errors:
                raise BenchError("warm-up output is wrong: " + "; ".join(errors))
        result = rounds.measure(ops, Tracer(), args.seconds, False, MIN_CLI_ROUNDS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = statistics.median(setups)
    result["peak_rss_mb"] = peak[0]
    return result


def probe_startup(env, deadline) -> dict:
    """Interpreter floor and `import vflab` time, each the median of PROBES fresh processes."""
    floor = [_spawn([sys.executable, "-c", "pass"], env, deadline)[0] for _ in range(PROBES)]
    imports = []
    for _ in range(PROBES):
        _, code, out, err, _ = _spawn([sys.executable, "-c", IMPORT_PROBE], env, deadline)
        if code != 0:
            raise BenchError(f"import vflab failed: {err.strip()}")
        imports.append(float(out))
    return {"cli.interpreter_ms": 1e3 * statistics.median(floor), "cli.import_ms": 1e3 * statistics.median(imports)}


def run_workload(args, env, layer_units) -> tuple[dict, dict]:
    """Measure one workload; returns (run summary, {metric: (value, unit)})."""
    deadline = monotonic() + RUN_LIMIT_S
    if args.trace:
        layers = probe_startup(env, deadline)
        result = _worker(args, env, deadline, False)[1]
        layers.update(result["layers"])
        return result, {name: (value, layer_units[name]) for name, value in layers.items()}
    if args.workload == "cli_cold":
        result = run_cli(args, env, deadline)
    else:
        result = run_inprocess(args, env, deadline)
    metrics = {"setup_s": (result["setup_s"], "s"), "wall_s": (result["wall_s"], "s"),
               "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    metrics.update(result["latency"])
    return result, metrics


def _report(workload, result, metrics, units) -> dict:
    """Print the human-readable lines of one workload; returns its JSON metrics."""
    print(f"== {workload}: {result['attempted']} operations attempted, {result['failed']} failed "
          f"({result['rounds']} rounds of {result['ops_per_round']})")
    for name, (value, unit) in metrics.items():
        note = "" if name in units else "  (printed only, not gated)"
        print(f"   {name:42s} {value:16.6f} {unit}{note}")
    for err in result["errors"]:
        print(f"   WRONG OUTPUT: {err}")
    if result["error_count"] > len(result["errors"]):
        print(f"   ... {result['error_count'] - len(result['errors'])} more wrong outputs")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"{workload} produced no value for {sorted(missing)}")
    return {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "vflab" / "__init__.py").is_file():
        print(f"vfbench: no vflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    e2e_units, layer_units = _metric_specs()
    units = layer_units if args.trace else e2e_units
    env = _child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            args.workload = name
            result, metrics = run_workload(args, env, layer_units)
            shown = _report(name, result, metrics, units)
            out["correct"] &= result["error_count"] == 0
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else name + "."
            out["metrics"].update({prefix + k: v for k, v in shown.items()})
    except BenchError as exc:
        print(f"vfbench: {exc}", file=sys.stderr)
        return 1
    tag = "all" if len(names) > 1 else names[0]
    (OUT_DIR / f"result-{tag}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(out) + "\n")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
