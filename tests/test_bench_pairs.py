"""tools/bench_pairs.py records only results that the run itself wrote,
keeps every run it recorded, and states the benchmark's verdict on them."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("body,code", [
    ("import sys\nsys.exit(1)\n", 1),   # dies before writing its result
    ("", 0),                            # exits 0 but writes nothing
], ids=["exit-1", "exit-0"])
def test_run_without_a_result_stops_and_records_nothing(body, code, tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench" / "out").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(body)
    # a well-formed result left by an earlier run of the same seed
    stale = checkout / "perfbench" / "out" / "result-symbolic-seed3-trace0.json"
    stale.write_text(json.dumps({
        "environment": {"git_sha": None}, "passes": 1, "problems": [],
        "end_to_end": {"wall_s": 1.0}}))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(checkout), "--change", str(checkout),
                          "--workload", "symbolic", "--pairs", "1",
                          "--first-seed", "3", "--seconds", "1",
                          "--out", str(out)])
    assert str(exc.value).startswith(
        f"{checkout}: workload symbolic seed 3 exited {code}, no result\n")
    assert not stale.exists()
    assert not out.exists()


def _pair(parent, change):
    return {side: {"metrics": {name: value[name] if name in value else 1.0
                               for name in bench_pairs.METRICS}}
            for side, value in (("parent", parent), ("change", change))}


def test_decided_frac_is_recorded_and_won_by_the_higher_side():
    runs = [_pair({"decided_frac": 0.9, "wall_s": 30.0},
                  {"decided_frac": 1.0, "wall_s": 2.0}),
            _pair({"decided_frac": 0.9, "wall_s": 31.0},
                  {"decided_frac": 0.9, "wall_s": 2.1}),
            _pair({"decided_frac": 1.0, "wall_s": 29.0},
                  {"decided_frac": 0.9, "wall_s": 29.5})]
    summary = bench_pairs.summarize(runs)
    assert summary["decided_frac"]["change_wins"] == 1   # a tie wins nothing
    assert summary["decided_frac"]["change"]["median"] == 0.9
    assert summary["wall_s"]["change_wins"] == 2         # lower wins here


def _verdict(parent, change, name="wall_s"):
    runs = [_pair({name: p}, {name: c}) for p, c in zip(parent, change)]
    entry = bench_pairs.summarize(runs)[name]
    return entry["within_bound"], entry["gain"]


def test_the_summary_states_each_end_to_end_rule_of_the_benchmark():
    bounds = {m["name"]: m["bound"] for m in json.loads(
        bench_pairs.BENCHMARK.read_text())["end_to_end"]}
    assert (bounds["wall_s"], bounds["peak_rss_mb"]) == (0.25, 0.1)
    parent = [2.0 + 0.01 * i for i in range(10)]  # interquartile range 0.055
    # 10 of 10 won, by 0.2 in the median: a gain
    assert _verdict(parent, [p - 0.2 for p in parent]) == (True, True)
    # 8 of 10 won: no gain, however large the median gap
    assert _verdict(parent, [p - (0.5 if i < 8 else -0.01)
                             for i, p in enumerate(parent)]) == (True, False)
    # 9 of 10 won, by 0.04 in the median: inside the interquartile range
    assert _verdict(parent, [p - (0.05 if i else -0.01)
                             for i, p in enumerate(parent)]) == (True, False)
    # 20% worse is within wall_s's bound of 25%, 30% worse is not, and a
    # 15% worse peak_rss_mb is outside its 10%
    assert _verdict(parent, [1.2 * p for p in parent]) == (True, False)
    assert _verdict(parent, [1.3 * p for p in parent]) == (False, False)
    assert _verdict(parent, [1.15 * p for p in parent],
                    "peak_rss_mb") == (False, False)
    # metrics the benchmark does not declare carry no verdict
    summary = bench_pairs.summarize([_pair({}, {})])
    assert "within_bound" not in summary["numeric_err_gmean"]
    assert "gain" in summary["setup_s"]


# a stand-in for perfbench/run.py: logs its call and writes a result whose
# wall_s is its seed
FAKE_RUN = """\
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
with open("calls.log", "a") as fh:
    fh.write(a.seed + "\\n")
pathlib.Path(f"perfbench/out/result-{a.workload}-seed{a.seed}-trace0.json"
             ).write_text(json.dumps({
    "environment": {"git_sha": None}, "passes": 1, "problems": [],
    "end_to_end": {"wall_s": float(a.seed)}}))
"""


def _fake_checkout(path):
    (path / "perfbench" / "out").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_RUN)
    return path


def _record(parent, change, out, first_seed, pairs, seconds="15"):
    return bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "numeric", "--pairs", str(pairs),
                             "--first-seed", str(first_seed),
                             "--seconds", seconds, "--out", str(out)])


def test_a_second_call_appends_and_summarises_every_pair(tmp_path):
    parent = _fake_checkout(tmp_path / "parent")
    change = _fake_checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    assert _record(parent, change, out, 1, 2) == 0
    assert _record(parent, change, out, 3, 3) == 0
    entry = json.loads(out.read_text())["workloads"]["numeric"]
    assert entry["seeds"] == [1, 2, 3, 4, 5]
    assert [r["first"] for r in entry["runs"]] == [
        "parent", "change", "parent", "change", "parent"]
    wall = entry["summary"]["wall_s"]
    assert wall["pairs"] == 5
    assert wall["parent"]["median"] == wall["change"]["median"] == 3.0
    assert (parent / "calls.log").read_text().split() == list("12345")


def test_each_run_records_the_load_average_before_and_after_it(
        tmp_path, monkeypatch):
    readings = iter([(float(k), 0.5, 0.25) for k in range(4)])
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: next(readings))
    parent = _fake_checkout(tmp_path / "parent")
    change = _fake_checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    assert _record(parent, change, out, 1, 1) == 0
    pair, = json.loads(out.read_text())["workloads"]["numeric"]["runs"]
    # the parent runs first in an even pair
    assert pair["parent"]["loadavg"] == {"before": [0.0, 0.5, 0.25],
                                         "after": [1.0, 0.5, 0.25]}
    assert pair["change"]["loadavg"] == {"before": [2.0, 0.5, 0.25],
                                         "after": [3.0, 0.5, 0.25]}


@pytest.mark.parametrize("first_seed,seconds,message", [
    (2, "15", "numeric already has seeds [2, 3]"),
    (9, "10", "numeric is recorded at --seconds 15.0, not 10.0"),
], ids=["seed-reused", "seconds-changed"])
def test_recorded_seeds_and_other_seconds_are_refused_before_any_run(
        first_seed, seconds, message, tmp_path):
    parent = _fake_checkout(tmp_path / "parent")
    change = _fake_checkout(tmp_path / "change")
    out = tmp_path / "bench.json"
    assert _record(parent, change, out, 1, 3) == 0
    before = out.read_text()
    with pytest.raises(SystemExit) as exc:
        _record(parent, change, out, first_seed, 2, seconds)
    assert str(exc.value) == f"{out}: {message}"
    assert out.read_text() == before
    assert (parent / "calls.log").read_text().split() == list("123")
