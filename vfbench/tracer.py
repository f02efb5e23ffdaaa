"""Spans around the benchmark's calls into vflab, kept in memory.

A span is opened by the benchmark around one call into a vflab module
(`space.build`, `duality.dual_rate`, ...), under the span of the
operation that made it.  FunctionalHandle.evaluate is wrapped at class
level while tracing is active, and gradient/hessian and the measure
functional J per instance, so each span also carries the evaluate calls
and time inside it; a span's self time is its duration less that time.
The public functions of vflab.serialize are wrapped too, for the
in-process replay of the CLI calls.
No code under src/ is changed: the wrappers are installed from here and
removed after each traced round.
"""

from __future__ import annotations

import json
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL = _NullSpan()


class Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"name": name, "evals": 0, "eval_s": 0.0, **attrs}

    def __enter__(self):
        stack = self.tracer._stack
        rec = self.record
        rec["id"] = len(self.tracer.spans)
        rec["parent"] = stack[-1]["id"] if stack else None
        self.tracer.spans.append(rec)
        stack.append(rec)
        rec["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()
        return False

    def set(self, **attrs):
        self.record.update(attrs)


class Tracer:
    """Collects spans and call counts while active; a no-op otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved = None
        self.reset()

    def reset(self):
        self.counts = {"evaluate": 0, "gradient": 0, "hessian": 0, "J": 0, "bytes_out": 0}
        self.times = {"evaluate": 0.0, "hessian": 0.0, "encode": 0.0, "decode": 0.0}
        self.round_start = len(self.spans)

    def span(self, name: str, **attrs):
        return Span(self, name, attrs) if self.active else _NULL

    # -- wrappers --

    def install(self):
        """Start tracing: wrap FunctionalHandle.evaluate and the serialize functions."""
        from vflab import serialize
        from vflab.functionals import FunctionalHandle

        self.reset()
        original = FunctionalHandle.evaluate
        tracer = self
        self._saved = [(FunctionalHandle, "evaluate", original)]
        depth = [0]
        for name in serialize.__all__:
            kind = "decode" if name.startswith(("decode_", "read_", "load_")) else "encode"
            fn = getattr(serialize, name)
            self._saved.append((serialize, name, fn))
            setattr(serialize, name, self._timed(fn, kind, depth))

        def evaluate(handle, F):
            t0 = perf_counter()
            value = original(handle, F)
            dt = perf_counter() - t0
            tracer.counts["evaluate"] += 1
            tracer.times["evaluate"] += dt
            for rec in tracer._stack:
                rec["evals"] += 1
                rec["eval_s"] += dt
            return value

        FunctionalHandle.evaluate = evaluate
        self.active = True

    def uninstall(self):
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self.active = False

    def _timed(self, fn, kind, depth):
        # serialize functions call one another; only the outermost call counts
        times = self.times

        def wrapped(*args, **kwargs):
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    times[kind] += perf_counter() - t0

        return wrapped

    def instrument(self, L):
        """Count gradient and hessian calls of a handle built while tracing."""
        if not self.active:
            return L
        counts, times = self.counts, self.times
        grad, hess = L.gradient, L.hessian
        if grad is not None:
            def gradient(values):
                counts["gradient"] += 1
                return grad(values)

            L.gradient = gradient
        if hess is not None:
            def hessian(values):
                t0 = perf_counter()
                out = hess(values)
                counts["hessian"] += 1
                times["hessian"] += perf_counter() - t0
                return out

            L.hessian = hessian
        return L

    def measure_functional(self, J):
        """A copy of the MeasureFunctional J that counts its calls while tracing."""
        if not self.active:
            return J
        from vflab.convex_duality import MeasureFunctional

        counts = self.counts

        def fn(mu):
            counts["J"] += 1
            return J(mu)

        return MeasureFunctional(J.name, fn, gradient=J.gradient, feasible_start=J.feasible_start)

    # -- per-round summary --

    def round_metrics(self) -> dict:
        """Per-layer values of the round traced since the last install."""
        spans = self.spans[self.round_start:]

        def total(prefix, key=None):
            sel = [s for s in spans if s["name"].startswith(prefix)]
            if key is None:
                return sum(s["end"] - s["start"] for s in sel)
            if key == "self":
                return sum(s["end"] - s["start"] - s["eval_s"] for s in sel)
            return sum(s.get(key, 0) for s in sel)

        def ratio(a, b):
            return a / b if b else 0.0

        c, t = self.counts, self.times
        conj_iters = total("convex_duality.conjugate", "iterations")
        trials = total("axioms.", "trials")
        atoms = total("ldp_lab.sequence", "atoms")
        seq_s = total("ldp_lab.sequence")
        return {
            "space.build_s": total("space.build"),
            "functionals.construct_s": total("functionals.construct"),
            "functionals.evaluate_calls": c["evaluate"],
            "functionals.evaluate_s": t["evaluate"],
            "functionals.evaluate_us": 1e6 * ratio(t["evaluate"], c["evaluate"]),
            "functionals.gradient_calls": c["gradient"],
            "functionals.hessian_calls": c["hessian"],
            "functionals.hessian_s": t["hessian"],
            "duality.dual_rate_self_s": total("duality.", "self"),
            "duality.pit_evals_per_point": ratio(total("duality.", "evals"), total("duality.", "points")),
            "axioms.check_self_s": total("axioms.", "self"),
            "axioms.trials": trials,
            "axioms.evals_per_trial": ratio(total("axioms.", "evals"), trials),
            "convex_duality.conjugate_self_s": total("convex_duality.conjugate", "self"),
            "convex_duality.conjugate_iters": conj_iters,
            "convex_duality.conjugate_evals_per_iter": ratio(total("convex_duality.conjugate", "evals"), conj_iters),
            "convex_duality.recover_s": total("convex_duality.recover"),
            "convex_duality.recover_iters": total("convex_duality.recover", "iterations"),
            "convex_duality.J_calls": c["J"],
            "convex_duality.unconverged": total("convex_duality.", "unconverged"),
            "ldp_lab.sequence_s": seq_s,
            "ldp_lab.atoms": atoms,
            "ldp_lab.sequence_ns_per_atom": 1e9 * ratio(seq_s, atoms),
            "ldp_lab.limit_s": total("ldp_lab.limit"),
            "ldp_lab.tightness_s": total("ldp_lab.tightness"),
            "serialize.encode_s": t["encode"],
            "serialize.decode_s": t["decode"],
            "serialize.bytes_out": c["bytes_out"],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
