"""One pass over a workload: run each target, time it, check its output.

CLI targets go through `cvexact.cli.main` in-process. A `Probe` wraps the
names the CLI calls (`compile`, `verify_symbolic`, `verify_numeric`) to time
each call and to hold every verify call to the workload's time limit; a call
past the limit is abandoned by a SIGALRM timer and counted as undecided.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from cvexact import baseline as cvx_baseline
from cvexact import circuit_tools, cli
from cvexact import verify as cvx_verify
from cvexact.circuit import FOURIER

import speed
from speed import clock
from workloads import OUT, BaselineTarget, CliTarget, Workload

SYMBOLIC_RESIDUAL_MAX = 1e-9


class VerifyTimeout(BaseException):
    """Raised by the timer; a BaseException so `except Exception` in the
    program cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise VerifyTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class TargetResult:
    label: str
    wall_s: float = 0.0
    compile_s: float = 0.0
    verdict_s: float = 0.0        # decided verify calls only
    verify_calls: int = 0
    verify_decided: int = 0
    gates_nonfourier: int = 0
    ancillas: int = 0
    numeric_err: float | None = None
    status: str = "ok"            # ok | undecided | raised | wrong
    problems: list[str] = field(default_factory=list)
    # takes this row's times to the reference speed (speed.py)
    scale: float = 1.0


class Probe:
    """Times the calls the CLI makes and enforces the verify time limit."""

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.row: TargetResult | None = None
        self.compiled = None      # (seq, report) of the last compile() call
        self._saved: list[tuple[str, object]] = []

    def install(self):
        for attr, wrap in (("compile", self._timed_compile),
                           ("verify_symbolic", self._limited),
                           ("verify_numeric", self._limited)):
            fn = getattr(cli, attr)
            self._saved.append((attr, fn))
            setattr(cli, attr, wrap(fn))

    def uninstall(self):
        while self._saved:
            attr, fn = self._saved.pop()
            setattr(cli, attr, fn)

    def _timed_compile(self, fn):
        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.row.compile_s += clock() - t0
            self.compiled = result
            return result

        return timed

    def _limited(self, fn):
        def limited(*args, **kwargs):
            row = self.row
            row.verify_calls += 1
            t0 = clock()
            with time_limit(self.limit_s):
                result = fn(*args, **kwargs)
            row.verdict_s += clock() - t0
            row.verify_decided += 1
            return result

        return limited


def _same_circuit(a, b) -> bool:
    """Gates, modes and strengths equal, exactly."""
    if (a.n_target_modes, a.ancilla_modes, len(a.gates)) != \
            (b.n_target_modes, b.ancilla_modes, len(b.gates)):
        return False
    for g, h in zip(a.gates, b.gates):
        if g.kind != h.kind:
            return False
        if g.kind == FOURIER:
            if (g.mode, g.power) != (h.mode, h.power):
                return False
        elif g.strength != h.strength or g.generator.terms != h.generator.terms:
            return False
    return True


def run_cli_target(t: CliTarget, probe: Probe, tmpdir: str) -> TargetResult:
    """The CLI call and, for a saved circuit, loading it back are timed;
    the output checks after them are not."""
    row = TargetResult(t.label)
    probe.row, probe.compiled = row, None
    path = os.path.join(tmpdir, "circuit.json")
    argv = [path if a == OUT else a for a in t.argv]
    out, err = io.StringIO(), io.StringIO()
    rc = loaded = None
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if OUT in t.argv and rc == 0:
            with open(path) as fh:
                loaded = circuit_tools.deserialize(fh.read())
    except VerifyTimeout:
        row.status = "undecided"
    except Exception as exc:  # a crash of the program is a failed target
        row.status = "raised"
        row.problems.append(f"{type(exc).__name__}: {exc}")
    row.wall_s = clock() - t0

    if probe.compiled is not None:
        seq, report = probe.compiled
        row.gates_nonfourier = report.n_gates_nonfourier
        row.ancillas = report.n_ancillas
    if row.status != "ok":
        return row
    _check_cli_output(t, row, rc, out.getvalue(), err.getvalue(), loaded,
                      probe.compiled)
    if os.path.exists(path):
        os.remove(path)
    if row.problems:
        row.status = "wrong"
    return row


def _check_cli_output(t, row, rc, stdout, stderr, loaded, compiled):
    problems = row.problems
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        problems.append(f"exit {rc}, no JSON report: {stderr.strip()[:200]}")
        return
    if compiled is None:
        problems.append("compile() was never called")
        return
    seq, report = compiled
    if doc["n_gates_nonfourier"] != report.n_gates_nonfourier:
        problems.append("printed gate count differs from compile()")
    if t.expect_nonfourier is not None and \
            doc["n_gates_nonfourier"] != t.expect_nonfourier:
        problems.append(f"non-Fourier count {doc['n_gates_nonfourier']}, "
                        f"criterion 1 pins {t.expect_nonfourier}")
    sym = doc["residual_symbolic"]
    if "--no-verify" not in t.argv:
        if sym is None or not sym < SYMBOLIC_RESIDUAL_MAX:
            problems.append(f"symbolic residual {sym}")
    num = doc["residual_numeric"]
    if "--numeric-cutoff" in t.argv:
        if num is None or not math.isfinite(num):
            problems.append(f"numeric error {num}")
        else:
            row.numeric_err = num
    # exit 4 is expected only from a numeric error above tolerance, which is
    # recorded and not gated (acceptance criterion 4 fails at this code)
    numeric_over = num is not None and num > 1e-5
    if rc != 0 and not (rc == cli.EXIT_VERIFY and numeric_over):
        problems.append(f"exit code {rc}: {stderr.strip()[:200]}")
    if OUT in t.argv and not (loaded is not None and _same_circuit(loaded, seq)):
        problems.append("deserialize(serialize(seq)) differs from seq")


def run_baseline_target(t: BaselineTarget, limit_s: float) -> TargetResult:
    row = TargetResult(t.label)
    seq = None
    t0 = clock()
    try:
        seq = cvx_baseline.commutator_approx(t.a, t.b, t.t2, t.K)
        row.compile_s = clock() - t0
        row.verify_calls = 1
        t1 = clock()
        with time_limit(limit_s):
            err, _ = cvx_verify.verify_numeric(seq, t.generator, t.t2, t.ctx)
        row.verdict_s = clock() - t1
        row.verify_decided = 1
        row.numeric_err = err
    except VerifyTimeout:
        row.status = "undecided"
    except Exception as exc:
        row.status = "raised"
        row.problems.append(f"{type(exc).__name__}: {exc}")
    row.wall_s = clock() - t0
    if seq is not None:
        row.gates_nonfourier = sum(1 for g in seq.gates if g.kind != FOURIER)
        row.ancillas = len(seq.ancilla_modes)
    if row.status != "ok":
        return row
    # one group is e^{iτP²} e^{iτX³} and their inverses: 4 non-Fourier gates
    if row.gates_nonfourier != 4 * t.K * t.K:
        row.problems.append(f"{row.gates_nonfourier} non-Fourier gates, "
                            f"want 4K² = {4 * t.K * t.K}")
    if not (math.isfinite(row.numeric_err) and row.numeric_err > 0):
        row.problems.append(f"numeric error {row.numeric_err}")
    if row.problems:
        row.status = "wrong"
    return row


def _baseline_slope_problem(workload: Workload, rows) -> str | None:
    """Acceptance criterion 6: the error falls as 1/K (slope -1 ± 0.3)."""
    if not isinstance(workload.targets[0], BaselineTarget):
        return None
    ks = [t.K for t in workload.targets]
    errs = [r.numeric_err for r in rows]
    if len(ks) < 2 or any(e is None or not e > 0 for e in errs):
        return None
    slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
    if abs(slope + 1.0) >= 0.3:
        return f"error slope {slope:.3f} over K={ks}, want -1 ± 0.3"
    return None


@dataclass
class PassResult:
    rows: list[TargetResult]
    problems: list[str]

    @property
    def wall_raw_s(self) -> float:
        """Wall-clock time in the program over the pass; output checks are
        left out."""
        return sum(r.wall_s for r in self.rows)

    def sums(self) -> dict:
        """Times at the reference speed (speed.py), except wall_raw_s."""
        rows = self.rows
        calls = sum(r.verify_calls for r in rows)
        errs = [r.numeric_err for r in rows if r.numeric_err is not None]
        return {
            "wall_s": sum(r.wall_s * r.scale for r in rows),
            "wall_raw_s": self.wall_raw_s,
            "compile_s": sum(r.compile_s * r.scale for r in rows),
            "verdict_s": sum(r.verdict_s * r.scale for r in rows),
            "verify_calls": calls,
            "verify_decided": sum(r.verify_decided for r in rows),
            "decided_frac": (sum(r.verify_decided for r in rows) / calls
                             if calls else None),
            "failed_frac": sum(r.status != "ok" for r in rows) / len(rows),
            "gates_nonfourier": sum(r.gates_nonfourier for r in rows),
            "ancillas": sum(r.ancillas for r in rows),
            "numeric_err_gmean": (
                math.exp(statistics.fmean(math.log(max(e, 1e-300)) for e in errs))
                if errs else None),
        }


def run_pass(workload: Workload, tmpdir: str, tracer=None,
             after_target=None) -> PassResult:
    """Run every target once, in order. With a tracer, spans are tagged with
    the target they belong to. A reading of speed.py's reference task is
    taken right before and after each target; with the sampler on, more
    come during it. Times are taken with speed.clock(). `after_target`, if
    given, is called after each target, outside its timing."""
    rows: list[TargetResult] = []
    probe = Probe(workload.verify_limit_s)
    probe.install()
    try:
        for i, t in enumerate(workload.targets):
            if tracer is not None:
                tracer.target = f"{i}:{t.label}"
            first = speed.read()
            if isinstance(t, BaselineTarget):
                row = run_baseline_target(t, workload.verify_limit_s)
            else:
                row = run_cli_target(t, probe, tmpdir)
            speed.read()
            row.scale = speed.scale_since(first)
            rows.append(row)
            if after_target is not None:
                after_target()
    finally:
        probe.uninstall()
    problems = [f"{r.label}: {p}" for r in rows for p in r.problems]
    slope = _baseline_slope_problem(workload, rows)
    if slope:
        problems.append(slope)
    return PassResult(rows, problems)


def run_passes(workload: Workload, seconds: float, tmpdir: str,
               tracer=None, after_target=None) -> list[PassResult]:
    """Whole passes, closed loop, until `seconds` have elapsed; one at
    least."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(workload, tmpdir, tracer, after_target))
        if perf_counter() - t0 >= seconds:
            return passes
