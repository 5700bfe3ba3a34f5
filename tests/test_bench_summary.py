import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

METRICS = [{"name": "verdict_s", "unit": "s", "better": "lower"}]


def _run(commit, seed, verdict, workload="rank2_exact", cpu="x"):
    return {"info": {"workload": workload, "seed": seed, "commit": commit,
                     "nproc": 2, "python": "3.11.7", "cpu": cpu},
            "result": {"correct": True, "failed": 0,
                       "metrics": {"verdict_s": {"value": verdict, "unit": "s"}}}}


def test_summarize_pairs_runs_by_seed():
    parent = [_run("p", s, v) for s, v in enumerate((0.9, 0.8, 1.0))]
    change = [_run("c", s, v) for s, v in enumerate((0.5, 0.85, 0.6))]
    doc = bench_summary.summarize(parent, change, METRICS)
    assert (doc["parent"], doc["change"]) == ("p", "c")
    assert doc["machine"] == {"nproc": 2, "python": "3.11.7", "cpu": "x"}
    row = doc["workloads"]["rank2_exact"]
    assert row["seeds"] == [0, 1, 2] and row["correct"]
    m = row["metrics"]["verdict_s"]
    assert m["parent"] == pytest.approx({"median": 0.9, "q1": 0.85, "q3": 0.95})
    assert m["change"]["median"] == 0.6
    assert m["change_better_pairs"] == 2


def test_summarize_rejects_mixed_runs():
    change = [_run("c", s, 0.5) for s in range(2)]
    with pytest.raises(SystemExit, match="parent commit"):
        bench_summary.summarize([_run("p", 0, 0.9), _run("q", 1, 0.9)], change, METRICS)
    with pytest.raises(SystemExit, match="cpu"):
        bench_summary.summarize([_run("p", 0, 0.9), _run("p", 1, 0.9, cpu="y")], change, METRICS)
    with pytest.raises(SystemExit, match="two seeds"):
        bench_summary.summarize([_run("p", 0, 0.9)], change, METRICS)
