"""Run perfbench on two checkouts in alternating pairs and record every run.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --pairs N --first-seed S [--seconds 15] --out BENCH_<n>.json

Pair i uses seed S+i on both sides; the pairs of a workload alternate,
counted over its whole record: even pairs run the parent first, odd pairs
the change first. Each run is `python3 perfbench/run.py --workload NAME
--seed SEED --seconds SECONDS --trace 0` in that checkout, and its
end-to-end metrics are read back from the checkout's
`perfbench/out/result-NAME-seedSEED-trace0.json`, which is deleted before
the run; a run that exits non-zero or writes no result stops the script with
an error. Each run also records the machine's 1, 5 and 15 minute load
averages (os.getloadavg) just before and just after it, so a run taken
under outside load can be told apart from a slower program. The output
file keeps
every run of every workload recorded so far, with a summary per metric:
each side's median and quartiles, and the pairs the change won (higher is
better for decided_frac and lower for every other metric; ties count for
neither side). A second call for a recorded workload appends its pairs and
summarises all of them; it is refused before any run when one of its seeds
is already recorded for the workload, or when its --seconds differs. The
file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "gates_nonfourier", "peak_rss_mb",
           "wall_raw_s", "numeric_err_gmean", "decided_frac", "failed_frac")
HIGHER_IS_BETTER = {"decided_frac"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    # a result left by an earlier run must not pass for this one
    result.unlink(missing_ok=True)
    load_before = os.getloadavg()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    load_after = os.getloadavg()
    if proc.returncode != 0 or not result.exists():
        raise SystemExit(
            f"{checkout}: workload {workload} seed {seed} exited "
            f"{proc.returncode}" + ("" if result.exists() else ", no result")
            + f"\n{proc.stdout}{proc.stderr}")
    doc = json.loads(result.read_text())
    return {"seed": seed, "exit_code": proc.returncode,
            "git_sha": doc["environment"]["git_sha"],
            "passes": doc["passes"], "problems": doc["problems"],
            "loadavg": {"before": list(load_before),
                        "after": list(load_after)},
            "metrics": {k: doc["end_to_end"].get(k) for k in METRICS}}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        sides = {}
        for side in ("parent", "change"):
            vals = [r[side]["metrics"][name] for r in runs]
            if any(v is None for v in vals):
                break
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            sides[side] = {"median": statistics.median(vals), "q1": q1,
                           "q3": q3}
        else:
            sign = -1 if name in HIGHER_IS_BETTER else 1
            sides["change_wins"] = sum(
                sign * r["change"]["metrics"][name]
                < sign * r["parent"]["metrics"][name] for r in runs)
            sides["pairs"] = len(runs)
            out[name] = sides
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "command": ("python3 perfbench/run.py --workload <name> --seed <seed> "
                    "--seconds <seconds> --trace 0, in each checkout"),
        "workloads": {}}
    recorded = doc["workloads"].get(args.workload)
    runs = recorded["runs"] if recorded else []
    if recorded and recorded["seconds"] != args.seconds:
        raise SystemExit(
            f"{args.out}: {args.workload} is recorded at --seconds "
            f"{recorded['seconds']}, not {args.seconds}")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    reused = sorted(set(seeds) & {r["seed"] for r in runs})
    if reused:
        raise SystemExit(
            f"{args.out}: {args.workload} already has seeds {reused}")
    for seed in seeds:
        order = (("parent", "change") if len(runs) % 2 == 0
                 else ("change", "parent"))
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = run_once(checkout, args.workload, seed, args.seconds)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{pair[side]['metrics']}", flush=True)
        runs.append(pair)
        doc["workloads"][args.workload] = {
            "seconds": args.seconds,
            "seeds": [r["seed"] for r in runs],
            "runs": runs,
            "summary": summarize(runs),
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
