"""The closed loop: operations, rounds and what a run measures.

An operation is one call whose output is checked after its round; a round
runs a workload's fixed list of operations one at a time.  Standard
library only, so run.py can use it without importing vflab or numpy.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

MIN_TRACED_ROUNDS = 2
MAX_ERRORS = 20
# a tail percentile needs at least ten samples beyond it
P90_MIN_OPS = 100


class Op:
    """One operation: run() makes the call, check(output) returns (failed, errors).

    failed marks the known fault an operation is allowed to show; errors
    are wrong outputs.
    """

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def upper_quartile(values) -> float:
    """The upper quartile of values (the value itself when there is one).

    The host alternates between its base speed and faster phases of
    irregular length; the upper quartile over a run's rounds follows the
    base speed, which every run meets, while the median moves with the
    share of fast phases in the run (see README.md, Steadiness).
    """
    values = list(values)
    if not values:
        raise ValueError("no rounds were timed")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def latency_metrics(round_latencies_s) -> dict:
    """Operation latency from the latencies of each timed round.

    op_p50_ms is the upper quartile over rounds of each round's median
    operation; op_p90_ms, from 100 operations on, is the 90th percentile
    of every operation of the run.  Returns {name: (value, unit)}.
    """
    medians = [1e3 * statistics.median(r) for r in round_latencies_s if r]
    ms = sorted(1e3 * t for r in round_latencies_s for t in r)
    if not ms:
        raise ValueError("no operations were timed")
    out = {"op_p50_ms": (upper_quartile(medians), "ms")}
    if len(ms) >= P90_MIN_OPS:
        out["op_p90_ms"] = (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms")
    return out


def run_round(ops, tr):
    """Run every operation once; returns (wall seconds, [(seconds, output)])."""
    results = []
    start = perf_counter()
    for op in ops:
        with tr.span("op", op=op.name):
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a wrong output
                out = exc
            results.append((perf_counter() - t0, out))
    return perf_counter() - start, results


def check_round(ops, results, errors) -> int:
    """Check the outputs of one round; returns how many operations failed."""
    failed = 0
    for op, (_, out) in zip(ops, results):
        if isinstance(out, Exception):
            errors.append(f"{op.name}: raised {type(out).__name__}: {out}")
            continue
        fail, errs = op.check(out)
        failed += int(fail)
        errors.extend(errs)
    return failed


def measure(ops, tr, seconds: float, trace: bool, min_rounds: int) -> dict:
    """Timed rounds until the next one would end past `seconds`.

    With trace, untraced and traced rounds alternate and the per-layer
    values of the traced ones are summarized.
    """
    walls = {False: [], True: []}
    latencies = []
    layers = []
    errors: list[str] = []
    attempted = failed = 0
    start = perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        if traced:
            tr.install()
        wall, results = run_round(ops, tr)
        if traced:
            tr.uninstall()
            layers.append(tr.round_metrics())
        else:
            latencies.append([dt for dt, _ in results])
        walls[traced].append(wall)
        attempted += len(ops)
        failed += check_round(ops, results, errors)
        del results
        gc.collect()
        k += 1
        enough = len(walls[True]) >= MIN_TRACED_ROUNDS if trace else k >= min_rounds
        if enough and perf_counter() - start + wall > seconds:
            break
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:MAX_ERRORS],
        "error_count": len(errors),
        "rounds": k,
        "ops_per_round": len(ops),
        "wall_s": upper_quartile(walls[False]),
        "latency": latency_metrics(latencies),
    }
    if trace:
        out["layers"] = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        out["layers"]["trace.overhead_s"] = upper_quartile(walls[True]) - out["wall_s"]
    return out
