"""tools/bench_pairs.py records only results that the run itself wrote."""

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
