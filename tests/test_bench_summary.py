import importlib.util
import subprocess
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


def test_src_lines_counts_the_package_modules_at_a_commit(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], capture_output=True, check=True, text=True).stdout.strip()

    pkg = tmp_path / "src" / "qtriangular"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text('"""A docstring."""\n\n# a comment\nx = 1\ny = 2\n')
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub" / "c.py").write_text("not counted: not matched by *.py at the top\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    first = git("rev-parse", "HEAD")
    (pkg / "b.py").write_text("z = 3\nw = 4\n")
    git("commit", "-q", "-am", "second")
    assert bench_summary.src_lines(first, repo=tmp_path) == 6
    assert bench_summary.src_lines("HEAD", repo=tmp_path) == 7
    assert bench_summary.src_lines("0" * 40, repo=tmp_path) is None
    # no docstring, comment or blank line is code
    assert bench_summary.code_lines(first, repo=tmp_path) == 3
    assert bench_summary.code_lines("HEAD", repo=tmp_path) == 4
    assert bench_summary.code_lines("0" * 40, repo=tmp_path) is None


def test_summary_records_both_sides_src_lines(monkeypatch):
    monkeypatch.setattr(bench_summary, "src_lines", {"p": 120, "c": 100}.get)
    monkeypatch.setattr(bench_summary, "code_lines", {"p": 70}.get)
    parent = [_run("p", s, 0.9) for s in range(2)]
    change = [_run("c", s, 0.5) for s in range(2)]
    doc = bench_summary.summarize(parent, change, METRICS)
    assert doc["src_lines"] == {"parent": 120, "change": 100}
    assert doc["code_lines"] == {"parent": 70, "change": None}


def test_traced_runs_give_per_layer_pairs_and_stay_out_of_the_medians():
    layers = [{"name": "qalgebra.is_point.self_s", "unit": "s", "better": "lower"}]

    def traced(commit, value):
        run = _run(commit, 0, 99.0, workload="check_n7")
        run["info"]["trace"] = 1
        run["result"]["metrics"]["qalgebra.is_point.self_s"] = {"value": value, "unit": "s"}
        return run

    parent = [_run("p", s, 0.9) for s in range(2)] + [traced("p", 0.13)]
    change = [_run("c", s, 0.5) for s in range(2)] + [traced("c", 0.03)]
    doc = bench_summary.summarize(parent, change, METRICS, layers)
    assert list(doc["workloads"]) == ["rank2_exact"]
    assert doc["traced"] == {"check_n7-seed0": {"qalgebra.is_point.self_s": {
        "unit": "s", "better": "lower", "parent": 0.13, "change": 0.03}}}
    assert "traced" not in bench_summary.summarize(parent[:2], change[:2], METRICS, layers)
