"""Benchmark of qtriangular: three seeded workloads, end-to-end metrics from
untraced repetitions and per-layer metrics from a traced one.

    python3 perfbench/run.py --workload check_n7|rank2_exact|cli_session \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``, so nothing is built or installed.  Each repetition is a fresh
interpreter (``worker.py``) that sets up, runs the workload's fixed batch
in a closed loop (one process, one thread, one caller) and checks every
answer.  Repetitions continue until the next one would end more than half a
repetition past ``--seconds``.

``--trace 0`` reports the end-to-end metrics: medians over repetitions,
and latency percentiles over the ops, each op's latency being its median
over the repetitions.  ``--trace 1``
alternates an untraced and a traced repetition and reports the per-layer
metrics.  The last line of stdout is the result object; the line before it
records the machine, the commit, the seed and the sample counts.  Both are
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("check_n7", "rank2_exact", "cli_session")

# one worker must finish well inside the 180 s a run may take
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "verdict_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SUITES = ("bialgebra", "antipode", "s-squared", "commutation-lemmas",
           "morphism-symmetries", "star", "point-product", "negative-controls")

PER_LAYER = {
    **{f"coeff.{op}.{f}": u for op in ("gr_mul", "gr_add", "scalar_mul", "scalar_add", "divexact", "pow")
       for f, u in (("calls", "count"), ("self_s", "s"))},
    "coeff.scalar_mul.unit_share": "ratio",
    "qalgebra.monomial_mul.calls": "count",
    "qalgebra.monomial_mul.self_s": "s",
    **{f"qalgebra.{op}.{f}": u for op in ("element_mul", "tensor_mul")
       for f, u in (("calls", "count"), ("self_s", "s"), ("terms_out", "count"))},
    **{f"qalgebra.{op}.{f}": u for op in ("morphism_apply", "is_point", "element_pow")
       for f, u in (("calls", "count"), ("self_s", "s"))},
    **{f"triangular.{op}.{f}": u for op in ("coproduct", "antipode", "star", "counit")
       for f, u in (("calls", "count"), ("self_s", "s"))},
    **{f"triangular.{fn}.hit_ratio": "ratio"
       for fn in ("b_element", "antipode_spec", "rho_spec", "gamma_spec", "theta_spec")},
    **{f"structure.{suite}.s": "s" for suite in _SUITES},
    "deriv.h1_membership.s": "s",
    "deriv.classify.s": "s",
    **{f"deriv.{op}.{f}": u for op in ("is_derivation", "derivation_apply")
       for f, u in (("calls", "count"), ("self_s", "s"))},
    **{f"autos.{op}.{f}": u for op in ("g_compose", "g_inverse", "g_to_endo", "delta_compatible")
       for f, u in (("calls", "count"), ("self_s", "s"))},
    "cli.parse.calls": "count",
    "cli.parse.self_s": "s",
    "cli.format.calls": "count",
    "cli.format.self_s": "s",
    "cli.main.self_s": "s",
    "src.lines": "lines",
    **{f"{m}.lines": "lines" for m in ("coeff", "qalgebra", "triangular", "structure", "deriv", "autos", "cli")},
    "trace.overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    # a fixed hash seed keeps set and dict layouts, and so the work done,
    # identical between repetitions
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} {workload} repetition exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} {workload} repetition failed (exit {proc.returncode}):\n"
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _repeat(seconds: float, one):
    """Call ``one()`` until another call would end more than half a call's
    time past ``seconds``; at least once."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(one())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(out) / 2 > seconds:
            return out


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check_reps(reps) -> tuple[int, int, list, bool]:
    """Attempted and failed ops over all repetitions, the first failures, and
    whether every repetition gave the same answers."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]][:5]
    same = len({r["answers"] for r in reps}) == 1
    if not same:
        failures.append("repetitions of the same seed gave different answers")
    return attempted, failed, failures, same


def end_to_end(workload, seed, seconds):
    reps = _repeat(seconds, lambda: _worker(workload, seed, "untraced"))
    # every repetition runs the same ops; an op's latency is its median over
    # them, so a stall that hits one repetition of an op does not reach the
    # tail percentiles
    latencies = [statistics.median(op) for op in zip(*(r["latencies"] for r in reps))]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    values = {
        "verdict_s": _median(reps, "verdict_s"),
        "op_p50_ms": cuts[49] * 1e3,
        "op_p99_ms": cuts[98] * 1e3,
        "setup_s": _median(reps, "setup_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }
    counts = {"repetitions": len(reps), "ops_per_repetition": reps[0]["attempted"],
              "ops": len(latencies), **_wall(reps)}
    return reps, values, counts


def _wall(reps) -> dict:
    """Unscaled medians and the reference loop's time, for the record."""
    return {"verdict_wall_s": _median(reps, "verdict_wall_s"),
            "setup_wall_s": _median(reps, "setup_wall_s"),
            "ref_s": _median(reps, "ref_s")}


def per_layer(workload, seed, seconds):
    pairs = _repeat(seconds, lambda: (_worker(workload, seed, "untraced"),
                                      _worker(workload, seed, "traced")))
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    values = {}
    for key in traced[0]["layers"]:
        values[key] = statistics.median(t["layers"][key] for t in traced)
    for key in plain[0]["timers"]:
        values[key] = statistics.median(p["timers"][key] for p in plain)
    values.update(layers.source_lines(ROOT / "src"))
    values["trace.overhead"] = _median(traced, "verdict_s") / _median(plain, "verdict_s")
    counts = {"pairs": len(pairs), "ops_per_repetition": plain[0]["attempted"], **_wall(plain)}
    return plain + traced, values, counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qtriangular" / "__init__.py").is_file():
        print(f"error: no qtriangular sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            reps, values, counts = per_layer(args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            reps, values, counts = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed, failures, same = _check_reps(reps)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        **counts,
        "failed_ops": failed / attempted,
        "failures": failures,
    }
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
