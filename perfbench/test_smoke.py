"""Smoke test of the benchmark runner on its tiny input set.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload with --tiny, untraced and traced, and checks the result
line against BENCHMARK.json; checks that the runner refuses to run without
the program next to it; and checks that the output checks catch a wrong
circuit and a wrong gate count.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert "trace self-check: passed" in proc.stdout
        trace_file = BENCH / "out" / f"trace-{workload}-seed3.json"
        doc = json.loads(trace_file.read_text())
        assert doc["spans"] and doc["aggregates"]
    else:
        for m in wanted:
            assert line["metrics"][m["name"]]["value"] > 0, m["name"]


def test_time_limit_leaves_the_known_row_undecided():
    proc = _run(ROOT, "symbolic", 0, seed=4)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(
        (BENCH / "out" / "result-symbolic-seed4-trace0.json").read_text())
    # tiny symbolic: X⁴ is decided, X⁸ at t=1.0 runs into the 1 s limit
    assert result["end_to_end"]["decided_frac"] == 0.5
    assert result["end_to_end"]["failed_frac"] == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "baseline", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_wrong_outputs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from dataclasses import replace

    import harness
    from cvexact.decompose import TargetGate, compile
    from workloads import CliTarget

    seq, _ = compile(TargetGate.position({0: 4}, 0.3))
    assert harness._same_circuit(seq, seq)
    i = next(i for i, g in enumerate(seq.gates) if g.kind != "fourier")
    bent = list(seq.gates)
    bent[i] = replace(bent[i],
                      strength=math.nextafter(bent[i].strength, math.inf))
    assert not harness._same_circuit(replace(seq, gates=tuple(bent)), seq)

    probe = harness.Probe(limit_s=10.0)
    probe.install()
    try:
        row = harness.run_cli_target(
            CliTarget("X^4", ("compile", "t=0.3 X[0]^4", "--format", "json"),
                      expect_nonfourier=28), probe, str(tmp_path))
    finally:
        probe.uninstall()
    assert row.status == "wrong"
    assert any("criterion 1 pins 28" in p for p in row.problems)
