"""Traced run: spans and counters around the public entry points of cvexact.

Everything here lives in the benchmark; `src/` is not touched. `Tracer`
replaces each traced function with a wrapper in every cvexact module that
holds a reference to it, because `cli`, `circuit` and `verify` import their
callees by name and a wrapper on the defining module alone would record
nothing.

Spans nest through a stack. A span's self time is its duration minus the time
of the traced spans directly inside it. Coarse spans (one per CLI call,
compile, optimize, verify call, ...) are kept one by one as
(name, start, end, parent, target). Hot leaf spans (poly_mul, adjoint_series,
Heisenberg conjugation, one numeric gate) run 10⁵-10⁶ times a pass, so they
are aggregated per (target, name) into calls, total and self time.
"""

from __future__ import annotations

import json
import math
import sys
from functools import wraps
from time import perf_counter

from cvexact import algebra, baseline, circuit, circuit_tools, cli, decompose, verify
from cvexact.circuit import FOURIER

MODULES = [sys.modules["cvexact"], algebra, baseline, circuit, circuit_tools,
           cli, decompose, verify]


class Tracer:
    def __init__(self):
        self.target = ""
        self.spans: list[tuple] = []    # (name, start, end, parent, target)
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []    # frames: [child_time, span_id]
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def count_max(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def wrap(self, fn, name, coarse=False, after=None):
        """Wrapper recording a span per call. `name` is a string or a function
        of the call arguments; `after(args, result)` records counters."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args)
            stack = tracer._stack
            depth = len(stack)
            parent = stack[-1] if stack else None
            # frame: [time of traced children, id of the nearest kept span]
            frame = [0.0, parent[1] if parent else None]
            span_id = None
            t0 = perf_counter()
            # the verify time limit raises asynchronously, so the stack is
            # cut back to its depth at entry rather than popped once
            try:
                if coarse:
                    span_id = frame[1] = len(tracer.spans)
                    tracer.spans.append(None)  # reserved; children link by id
                stack.append(frame)
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                del stack[depth:]
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                rec = tracer.agg.setdefault((tracer.target, span), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if span_id is not None:
                    tracer.spans[span_id] = (span, t0, t1,
                                             parent[1] if parent else None,
                                             tracer.target)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, fn, name, coarse=False, after=None):
        """Replace fn in every cvexact module that references it."""
        traced = self.wrap(fn, name, coarse, after)
        hits = 0
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module references {fn.__qualname__}")

    def patch_method(self, cls, attr, name, coarse=False, after=None):
        self._set(cls, attr, self.wrap(getattr(cls, attr), name, coarse, after))

    def install(self):
        _instrument(self)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """[calls, total_s, self_s] per span name, summed over targets."""
        out: dict[str, list] = {}
        for (_, span), (calls, total, self_s) in self.agg.items():
            rec = out.setdefault(span, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def dump(self, path, extra: dict):
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "target"]
        doc["spans"] = self.spans
        doc["aggregates"] = [
            {"target": t, "name": n, "calls": c, "total_s": tot, "self_s": s}
            for (t, n), (c, tot, s) in sorted(self.agg.items())]
        doc["counters"] = self.counters
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _instrument(tr: Tracer):
    """The traced entry points of each module, with their counters."""

    def after_compile(args, result):
        _, report = result
        tr.count("decompose.gates_preopt", report.n_gates_preopt)
        tr.count("decompose.recursion_steps", len(report.recursion_trace))

    def after_optimize(args, result):
        tr.count("circuit_tools.optimize_in", len(args[0].gates))
        tr.count("circuit_tools.optimize_out", len(result.gates))

    def conjugate_name(g, b):
        return ("circuit.conjugate_fourier" if g.kind == FOURIER
                else "circuit.conjugate_exp")

    def after_image(args, result):
        tr.count_max("algebra.image_terms_max", len(result.terms))

    def gate_name(engine, state, g):
        if g.kind == FOURIER:
            return "verify.numeric.gate_fourier"
        if len(g.generator.modes()) == 1:
            return "verify.numeric.gate_exp1"
        return "verify.numeric.gate_exp2"

    def after_gate(args, result):
        # bytes of the state a gate reads, from its shape: computed, not
        # measured traffic
        tr.count("verify.numeric.state_bytes_computed", args[1].nbytes)

    def after_build(args, result):
        tr.count("baseline.gates", len(result.gates))

    tr.patch_function(cli.main, "cli.main", coarse=True)
    tr.patch_function(decompose.compile, "decompose.compile", coarse=True,
                      after=after_compile)
    tr.patch_function(circuit_tools.optimize, "circuit_tools.optimize",
                      coarse=True, after=after_optimize)
    tr.patch_function(circuit_tools._reuse_ancillas,
                      "circuit_tools._reuse_ancillas", coarse=True)
    tr.patch_function(circuit_tools.serialize_json, "circuit_tools.serialize",
                      coarse=True)
    tr.patch_function(circuit_tools.deserialize, "circuit_tools.deserialize",
                      coarse=True)
    tr.patch_function(circuit.heisenberg_conjugate, conjugate_name,
                      after=after_image)
    tr.patch_function(algebra.poly_mul, "algebra.poly_mul")
    tr.patch_function(algebra.adjoint_series, "algebra.adjoint_series")
    tr.patch_function(verify.verify_symbolic, "verify.verify_symbolic",
                      coarse=True)
    tr.patch_function(verify.heisenberg_action, "verify.heisenberg_action",
                      coarse=True)
    tr.patch_function(verify.verify_numeric, "verify.verify_numeric",
                      coarse=True)
    tr.patch_method(verify._NumericEngine, "__init__",
                    "verify.numeric.setup", coarse=True)
    tr.patch_method(verify._NumericEngine, "apply_gate", gate_name,
                    after=after_gate)
    tr.patch_method(verify._NumericEngine, "_apply_dense_exp",
                    "verify.numeric.gate_dense")
    tr.patch_function(baseline.commutator_approx, "baseline.commutator_approx",
                      coarse=True, after=after_build)


# (metric, unit, workloads on which it must be non-zero)
LAYER_METRICS = [
    ("decompose.compile_self_s", "s", ["compile-large", "symbolic", "numeric"]),
    ("decompose.gates_preopt", "count", ["compile-large"]),
    ("decompose.recursion_steps", "count", ["compile-large"]),
    ("circuit_tools.optimize_s", "s", ["compile-large"]),
    ("circuit_tools.reuse_ancillas_s", "s", ["compile-large"]),
    ("circuit_tools.optimize_removed_frac", "ratio", ["compile-large"]),
    ("circuit_tools.serialize_s", "s", ["compile-large"]),
    ("circuit_tools.deserialize_s", "s", ["compile-large"]),
    ("circuit.conjugate_fourier.calls", "count", ["symbolic"]),
    ("circuit.conjugate_fourier.s", "s", ["symbolic"]),
    ("circuit.conjugate_exp.calls", "count", ["symbolic"]),
    ("circuit.conjugate_exp.s", "s", ["symbolic"]),
    ("algebra.poly_mul.calls", "count", ["symbolic"]),
    ("algebra.poly_mul.s", "s", ["symbolic"]),
    ("algebra.adjoint_series.calls", "count", ["symbolic"]),
    ("algebra.adjoint_series.s", "s", ["symbolic"]),
    ("algebra.image_terms_max", "count", ["symbolic"]),
    ("verify.symbolic_s", "s", ["symbolic"]),
    ("verify.symbolic.images", "count", ["symbolic"]),
    ("verify.numeric_s", "s", ["numeric", "baseline"]),
    ("verify.numeric.setup_s", "s", ["numeric", "baseline"]),
    ("verify.numeric.gate_fourier.calls", "count", ["numeric"]),
    ("verify.numeric.gate_fourier.s", "s", ["numeric"]),
    ("verify.numeric.gate_exp1.calls", "count", ["baseline"]),
    ("verify.numeric.gate_exp1.s", "s", ["baseline"]),
    ("verify.numeric.gate_exp2.calls", "count", ["numeric"]),
    ("verify.numeric.gate_exp2.s", "s", ["numeric"]),
    ("verify.numeric.gate_dense.calls", "count", ["baseline"]),
    ("verify.numeric.gate_dense.s", "s", ["baseline"]),
    ("verify.numeric.state_mb_computed", "MB", ["numeric"]),
    ("baseline.build_s", "s", ["baseline"]),
    ("baseline.gates", "count", ["baseline"]),
    ("cli.overhead_s", "s", ["compile-large", "symbolic", "numeric"]),
]

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass (times and counts divided by the
    number of passes; ratios and maxima as they are)."""
    tot = tr.totals()
    c = tr.counters

    def calls(span):
        return tot.get(span, [0, 0.0, 0.0])[0]

    def total(span):
        return tot.get(span, [0, 0.0, 0.0])[1]

    def self_time(span):
        return tot.get(span, [0, 0.0, 0.0])[2]

    opt_in = c.get("circuit_tools.optimize_in", 0.0)
    opt_out = c.get("circuit_tools.optimize_out", 0.0)
    m = {
        "decompose.compile_self_s":
            total("decompose.compile") - total("circuit_tools.optimize"),
        "decompose.gates_preopt": c.get("decompose.gates_preopt", 0.0),
        "decompose.recursion_steps": c.get("decompose.recursion_steps", 0.0),
        "circuit_tools.optimize_s": total("circuit_tools.optimize"),
        "circuit_tools.reuse_ancillas_s": total("circuit_tools._reuse_ancillas"),
        "circuit_tools.serialize_s": total("circuit_tools.serialize"),
        "circuit_tools.deserialize_s": total("circuit_tools.deserialize"),
        "verify.symbolic_s": total("verify.verify_symbolic"),
        "verify.symbolic.images": calls("verify.heisenberg_action"),
        "verify.numeric_s": total("verify.verify_numeric"),
        "verify.numeric.setup_s": total("verify.numeric.setup"),
        "verify.numeric.state_mb_computed":
            c.get("verify.numeric.state_bytes_computed", 0.0) / 1e6,
        "baseline.build_s": total("baseline.commutator_approx"),
        "baseline.gates": c.get("baseline.gates", 0.0),
        # the CLI call minus the traced layers directly inside it: compile,
        # verify and serialize
        "cli.overhead_s": self_time("cli.main"),
    }
    for span in ("circuit.conjugate_fourier", "circuit.conjugate_exp",
                 "algebra.poly_mul", "algebra.adjoint_series",
                 "verify.numeric.gate_fourier", "verify.numeric.gate_exp1",
                 "verify.numeric.gate_exp2", "verify.numeric.gate_dense"):
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.s"] = total(span)
    per_pass = {k: v / passes for k, v in m.items()}
    per_pass["circuit_tools.optimize_removed_frac"] = (
        (opt_in - opt_out) / opt_in if opt_in else 0.0)
    per_pass["algebra.image_terms_max"] = c.get("algebra.image_terms_max", 0.0)
    return {name: (int(v) if unit == "count" and float(v).is_integer() else v)
            for name, unit, _ in LAYER_METRICS for v in [per_pass[name]]}


def self_check(workload: str, metrics: dict[str, float]) -> list[str]:
    """Names of the metrics that must be non-zero on this workload but are 0."""
    return [name for name, _, where in LAYER_METRICS
            if workload in where
            and not (metrics[name] > 0 and math.isfinite(metrics[name]))]
