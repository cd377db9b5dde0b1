"""cvexact benchmark: one workload per process, closed loop, one target at a time.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 15 --trace 0

Runs whole passes over the workload until --seconds have elapsed (at least
one pass), checks every output, prints a report with every metric and its
unit, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, measured untraced; with --trace 1 it
runs the same untraced passes, then traced passes, and the metrics are the
per-layer ones. End-to-end times are taken at a reference speed (speed.py);
the wall-clock ones are printed next to them. Exits 1 if any output check
fails, 2 if the program cannot be found next to the benchmark. See README.md
for workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count is fixed here, before numpy is imported anywhere: a
# second CPU-bound process on a small machine slows multi-threaded BLAS calls
# by an order of magnitude, and one thread keeps the process to one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"

# fresh interpreters timed for setup_s: a few before and after the passes,
# and one between two targets whenever SETUP_EVERY_S have passed since the
# last. The machine's speed drifts within seconds, and the median then spans
# the whole run rather than its two ends.
SETUP_PROBES = (3, 3)
SETUP_EVERY_S = 2.0

END_TO_END = [  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("compile_s", "s", "lower"),
    ("verdict_s", "s", "lower"),
    ("decided_frac", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("gates_nonfourier", "count", "lower"),
    ("ancillas", "count", "lower"),
    ("numeric_err_gmean", "1", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]


def _fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import cvexact from this checkout's src/, never from elsewhere."""
    if not (SRC / "cvexact" / "__init__.py").is_file():
        _fail(f"no cvexact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvexact
    if Path(cvexact.__file__).resolve().parent != SRC / "cvexact":
        _fail(f"imported cvexact from {cvexact.__file__}, not {SRC}")


def _blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import numpy  # noqa: F401  (loads the library)
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    """HEAD of this checkout if it is itself a git work tree, else None."""
    # the ceiling keeps git from looking above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment() -> dict:
    import numpy
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_set": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
        "process_threads": _thread_count(),
        "machine": platform.machine(),
    }


class SetupProbes:
    """Setup times of one run, probed at its start, during it and at its end:
    fresh interpreters that import cvexact and build the workload's targets.
    `times` are at the reference speed (speed.py), `raw_times` wall-clock."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
                "import cvexact, workloads; "
                "workloads.build(sys.argv[3], int(sys.argv[4]), "
                "sys.argv[5] == '1')")
        self._argv = [sys.executable, "-c", code, str(SRC), str(BENCH),
                      workload, str(seed), "1" if tiny else "0"]
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self._last = perf_counter()

    def probe(self, n: int = 1):
        for _ in range(n):
            before = speed.reference_s()
            t0 = speed.clock()
            proc = subprocess.run(self._argv, capture_output=True, text=True,
                                  timeout=120)
            t = speed.clock() - t0
            if proc.returncode != 0:
                _fail(f"setup probe failed: {proc.stderr.strip()[-500:]}")
            self.raw_times.append(t)
            self.times.append(t * speed.scale((before, speed.reference_s())))
        self._last = perf_counter()

    def between_targets(self):
        if perf_counter() - self._last >= SETUP_EVERY_S:
            self.probe()


def summarize(passes) -> dict:
    """Median over passes for times; the rest from the last pass (that
    counts repeat exactly is checked by _determinism_problems)."""
    sums = [p.sums() for p in passes]
    out = dict(sums[-1])
    for key in ("wall_s", "wall_raw_s", "compile_s", "verdict_s"):
        out[key] = statistics.median(s[key] for s in sums)
    return out


def _determinism_problems(passes) -> list[str]:
    # decided calls are left out: whether a call beats the limit is timing
    keys = ("gates_nonfourier", "ancillas", "verify_calls")
    first = passes[0].sums()
    return [f"{k} changed between passes" for k in keys
            for p in passes[1:] if p.sums()[k] != first[k]]


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_rows(passes):
    print(f"targets (last of {len(passes)} passes; wall-clock times, and the "
          f"scale to reference speed):")
    for r in passes[-1].rows:
        err = "" if r.numeric_err is None else f" err={r.numeric_err:.3g}"
        print(f"  {r.status:9s} wall={r.wall_s:8.3f}s compile={r.compile_s:7.3f}s "
              f"verdict={r.verdict_s:8.3f}s gates={r.gates_nonfourier:6d} "
              f"anc={r.ancillas:3d} scale={r.scale:.3f}{err}  {r.label}")
        for p in r.problems:
            print(f"    problem: {p}")


def main(argv=None) -> int:
    _import_program()
    import harness
    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small targets per workload (smoke test)")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = tracing.UNITS if args.trace else {n: u for n, u, _ in END_TO_END}
    wanted = [(m["name"], m["unit"])
              for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, unit in wanted:
        if units.get(name) != unit:
            _fail(f"BENCHMARK.json metric {name} [{unit}] is not measured "
                  f"here (known unit: {units.get(name)})")
    env = environment()
    print("environment: " + json.dumps(env))
    setup = None if args.trace else SetupProbes(args.workload, args.seed,
                                                args.tiny)
    if setup is not None:
        setup.probe(SETUP_PROBES[0])
    workload = workloads.build(args.workload, args.seed, args.tiny)
    print(f"workload {workload.name}: {len(workload.targets)} targets, seed "
          f"{args.seed}, verify limit {workload.verify_limit_s:g} s, "
          f"closed loop, 1 client")

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        with speed.sampling():
            passes = harness.run_passes(
                workload, args.seconds, tmpdir,
                after_target=setup.between_targets if setup is not None else None)
        traced, tr = [], None
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced = harness.run_passes(workload, args.seconds, tmpdir, tr)
            finally:
                tr.uninstall()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    problems = [p for ps in passes + traced for p in ps.problems]
    problems += _determinism_problems(passes + traced)
    e2e = summarize(passes)
    e2e["setup_s"] = e2e["setup_raw_s"] = None
    if setup is not None:
        setup.probe(SETUP_PROBES[1])
        e2e["setup_s"] = statistics.median(setup.times)
        e2e["setup_raw_s"] = statistics.median(setup.raw_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_rows(passes)
    print(f"end to end (median of {len(passes)} untraced passes; times at "
          f"reference speed, see speed.py):")
    for name, unit, better in END_TO_END:
        print(f"  {name:20s} {_fmt(e2e[name]):>14s} {unit:6s} ({better} is better)")
    print(f"  wall-clock: wall_s {_fmt(e2e['wall_raw_s'])} s, "
          f"setup_s {_fmt(e2e['setup_raw_s'])} s")
    print(f"  verify calls: {e2e['verify_decided']} decided of "
          f"{e2e['verify_calls']} attempted per pass")

    result = {"environment": env, "workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "tiny": args.tiny,
              "passes": len(passes),
              "pass_wall_raw_s": [p.wall_raw_s for p in passes],
              "setup_probe_s": setup.times if setup is not None else None,
              "setup_probe_raw_s": setup.raw_times if setup is not None else None,
              "end_to_end": e2e,
              "targets": [dataclasses.asdict(r) for r in passes[-1].rows]}
    if args.trace:
        layers = tracing.layer_metrics(tr, len(traced))
        traced_wall = summarize(traced)["wall_s"]
        overhead = traced_wall - e2e["wall_s"]
        missing = tracing.self_check(workload.name, layers)
        problems += [f"trace self-check: {m} never recorded" for m in missing]
        print(f"per layer (traced, per pass, mean of {len(traced)} passes):")
        for name, unit, _ in tracing.LAYER_METRICS:
            print(f"  {name:40s} {_fmt(layers[name]):>14s} {unit}")
        print(f"  tracing overhead: {overhead:+.4f} s = traced wall_s "
              f"{traced_wall:.4f} s - untraced wall_s {e2e['wall_s']:.4f} s "
              f"({overhead / e2e['wall_s']:+.1%} of untraced)")
        print(f"  trace self-check: "
              f"{'passed' if not missing else 'FAILED: ' + ', '.join(missing)}")
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tr.dump(trace_path, {"environment": env, "workload": workload.name,
                             "seed": args.seed, "passes": len(traced),
                             "per_layer": layers})
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        result.update(per_layer=layers, traced_passes=len(traced),
                      traced_wall_s=traced_wall, trace_overhead_s=overhead,
                      trace_overhead_base_s=e2e["wall_s"], trace_missing=missing)
        values = layers
    else:
        values = e2e

    result["problems"] = problems
    out_path = OUT_DIR / (f"result-{workload.name}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    rows = passes[-1].rows
    line = {
        "correct": not problems,
        "attempted": len(rows),
        # targets that raised or gave a wrong output; a verify call stopped by
        # the time limit is undecided, reported in decided_frac/failed_frac
        "failed": sum(r.status in ("raised", "wrong") for r in rows),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted},
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
