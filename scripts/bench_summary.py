"""Summarize parent-versus-change benchmark runs into one committed JSON file.

    python3 scripts/bench_summary.py --out BENCH_name.json \\
        --parent PARENT/perfbench/out/result-*-trace0.json \\
        --change CHANGE/perfbench/out/result-*-trace0.json

Each input is a result file that ``perfbench/run.py`` wrote, one per
workload, seed and trace setting.  The output records the machine, the two
commits, and for each workload and each end-to-end metric that
``BENCHMARK.json`` declares: the median and quartiles of the parent's and
the change's untraced runs, and in how many same-seed pairs the change was
better.  A traced run (``--trace 1``) on both sides with one workload and
seed adds that pair's per-layer metrics under ``traced``, to show where a
saving sits.  Runs of one side must come from a single commit and every
run from a single machine.  It also records each side's
``src/qtriangular/*.py`` line count (the benchmark's ``src.lines``) and its
code-line count (what ``scripts/code_lines.py`` prints as the total), read
with git from the commit that side's result files name, so both commits
must be in this repository's history; a side whose commit the repository
lacks gets None.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE = ("nproc", "python", "cpu")
_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).with_name("code_lines.py"))
_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_code_lines)


def _load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def _only(values, what):
    values = set(values)
    if len(values) != 1:
        raise SystemExit(f"bench_summary: the runs disagree on {what}: {sorted(map(str, values))}")
    return values.pop()


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _by_seed(runs, workload):
    out = {}
    for r in runs:
        if r["info"]["workload"] == workload:
            if r["info"]["seed"] in out:
                raise SystemExit(f"bench_summary: two {workload} runs of seed {r['info']['seed']} on one side")
            out[r["info"]["seed"]] = r
    return out


def _count(commit, measure, repo):
    """The sum of ``measure`` over the ``src/qtriangular/*.py`` sources (as
    bytes) of ``commit``, or None when ``repo`` does not hold that commit."""
    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=True).stdout

    try:
        names = git("ls-tree", "--name-only", commit, "src/qtriangular/").decode().splitlines()
        return sum(measure(git("show", f"{commit}:{name}")) for name in names if name.endswith(".py"))
    except (OSError, subprocess.CalledProcessError):
        return None


def src_lines(commit, repo=ROOT):
    """What ``cat src/qtriangular/*.py | wc -l`` prints in a checkout of
    ``commit``, or None when ``repo`` does not hold that commit."""
    return _count(commit, lambda source: source.count(b"\n"), repo)


def code_lines(commit, repo=ROOT):
    """The total that ``scripts/code_lines.py`` prints in a checkout of
    ``commit``, or None when ``repo`` does not hold that commit."""
    return _count(commit, lambda source: _code_lines.code_lines(source.decode("utf-8")), repo)


def _traced_pairs(parent, change, layers):
    """The per-layer metrics of the traced runs, paired by workload and seed."""
    def by_key(runs):
        return {(r["info"]["workload"], r["info"]["seed"]): r["result"]["metrics"] for r in runs}

    p, c = by_key(parent), by_key(change)
    return {
        f"{workload}-seed{seed}": {
            m["name"]: {"unit": m["unit"], "better": m["better"],
                        "parent": p[workload, seed].get(m["name"], {}).get("value"),
                        "change": c[workload, seed].get(m["name"], {}).get("value")}
            for m in layers
        }
        for workload, seed in sorted(p.keys() & c.keys())
    }


def summarize(parent, change, metrics, layers=()):
    """The summary document of two lists of loaded result files; traced
    runs are summarized by the per-layer ``layers``."""
    everything = parent + change
    commits = {"parent": _only((r["info"]["commit"] for r in parent), "the parent commit"),
               "change": _only((r["info"]["commit"] for r in change), "the change commit")}
    doc = {
        "machine": {k: _only((r["info"][k] for r in everything), k) for k in MACHINE},
        **commits,
        "src_lines": {side: src_lines(commit) for side, commit in commits.items()},
        "code_lines": {side: code_lines(commit) for side, commit in commits.items()},
        "workloads": {},
    }
    traced = _traced_pairs(*([r for r in side if r["info"].get("trace")] for side in (parent, change)), layers)
    parent, change = ([r for r in side if not r["info"].get("trace")] for side in (parent, change))
    for workload in sorted({r["info"]["workload"] for r in parent + change}):
        p, c = _by_seed(parent, workload), _by_seed(change, workload)
        seeds = sorted(p.keys() & c.keys())
        if len(seeds) < 2:
            raise SystemExit(f"bench_summary: {workload} needs at least two seeds run on both sides")
        row = {"seeds": seeds,
               "correct": all(side[s]["result"]["correct"] for side in (p, c) for s in seeds),
               "failed": {"parent": sum(p[s]["result"]["failed"] for s in seeds),
                          "change": sum(c[s]["result"]["failed"] for s in seeds)},
               "metrics": {}}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            pv = [p[s]["result"]["metrics"][name]["value"] for s in seeds]
            cv = [c[s]["result"]["metrics"][name]["value"] for s in seeds]
            row["metrics"][name] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent": _spread(pv),
                "change": _spread(cv),
                "change_better_pairs": sum(sign * (a - b) > 0 for a, b in zip(pv, cv)),
            }
        doc["workloads"][workload] = row
    if traced:
        doc["traced"] = traced
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent commit")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = summarize(_load(args.parent), _load(args.change), spec["end_to_end"], spec["per_layer"])
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
