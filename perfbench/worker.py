"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode untraced|traced

Times the set-up (importing ``qtriangular`` from ``src/``, building the
algebras and structure maps) and the batch, checks every answer, and prints
one JSON object as the last line of stdout.  ``traced`` installs the span
tracer before the set-up and writes the spans to ``perfbench/out/``;
``untraced`` installs only the coarse per-suite timers.

``--record`` rewrites the CLI digest file from the default seed instead; run
it only when the benchmark itself changes what the session asks.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# benchmark-side work (inputs, checks) runs under this op id in the traced
# run, so the per-layer metrics leave it out
BENCH_OP = -2

# The machine's speed drifts by a fifth to a third within minutes (other
# tenants share its cores), more than the gains worth detecting.  So a fixed
# reference loop, which calls no library code, is timed every REF_EVERY_S
# (from a timer signal in the untraced run, between ops in the traced one,
# whose spans must not absorb it).  A measured interval loses the time spent
# in samples and is scaled by REF_SECONDS over the mean of the samples
# taken in and around it, so it reads as the time at the reference speed.
REF_PRODUCTS = 150
# the loop's typical time on the 2-core Xeon (Python 3.11.7) the baseline
# was recorded on, so scaled figures read close to wall seconds there
REF_SECONDS = 0.03
REF_EVERY_S = 0.25


def _ref_product(a, b, m):
    """Product of two sparse q-commutative elements with Gaussian-rational
    coefficients, in plain tuples, dicts and Fractions: the shape of the
    library's hot path, frozen so that library changes leave it alone."""
    out = {}
    for ma, (ar, ai) in a.items():
        for mb, (br, bi) in b.items():
            w = 0
            for x, ea in enumerate(ma):
                if ea:
                    row = m[x]
                    for y in range(x):
                        if mb[y]:
                            w += ea * mb[y] * row[y]
            key = (w, tuple(p + q for p, q in zip(ma, mb)))
            cr, ci = ar * br - ai * bi, ar * bi + ai * br
            prev = out.get(key)
            out[key] = (cr, ci) if prev is None else (prev[0] + cr, prev[1] + ci)
    return out


def _ref_inputs():
    rng = random.Random(0)
    n = 10
    m = [[(x > y) - (x < y) for y in range(n)] for x in range(n)]

    def element():
        return {tuple(rng.randint(0, 2) for _ in range(n)):
                (Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                for _ in range(3)}

    return [(element(), element()) for _ in range(8)], m


_REF_PAIRS, _REF_M = _ref_inputs()


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for i in range(REF_PRODUCTS):
        a, b = _REF_PAIRS[i % len(_REF_PAIRS)]
        _ref_product(a, b, _REF_M)
    return time.perf_counter() - t0


class RefClock:
    """Reference-speed clock: ``mark()`` returns a point in time, and
    ``scaled(a, b)`` the scaled time between two points."""

    def __init__(self):
        self.times, self.refs = [], []
        self.stolen = 0.0
        self.ticking = self._busy = False

    def sample(self, *_):
        if self._busy:  # a tick during an explicit sample
            return
        self._busy = True
        t0 = time.perf_counter()
        ref = reference_seconds()
        self.times.append(t0)
        self.refs.append(ref)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def start_ticks(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        self.ticking = True

    def stop_ticks(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticking = False

    def after_op(self):
        """Between ops, sample if the timer does not and one is due."""
        if not self.ticking and time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def mark(self):
        return time.perf_counter(), self.stolen

    def scaled(self, a, b) -> float:
        """Wall time from a to b without the samples in it, at the
        reference speed of the samples in it and the one on each side."""
        lo = max(bisect.bisect_left(self.times, a[0]) - 1, 0)
        hi = bisect.bisect_right(self.times, b[0]) + 1
        refs = self.refs[lo:hi]
        return (b[0] - a[0] - (b[1] - a[1])) * REF_SECONDS * len(refs) / sum(refs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("untraced", "traced"), default="untraced")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    clock = RefClock()
    if args.mode == "untraced" and not args.record:
        clock.start_ticks()
    clock.sample()
    setup_start = clock.mark()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import qtriangular as qt
    import layers
    import workloads

    if args.record:
        workloads.record_digests(qt)
        return 0

    setup, make_ops = workloads.WORKLOADS[args.workload]
    tracer = timers = None
    if args.mode == "traced":
        tracer = layers.Tracer()
        tracer.install()

        def bench(fn):
            return tracer.run_phase("bench", BENCH_OP, fn)

        def run_op(i, kind, fn):
            return tracer.run_phase(f"op.{kind}", i, fn)
    else:
        timers = layers.Timers()
        timers.install()

        def bench(fn):
            return fn()

        def run_op(i, kind, fn):
            return fn()

    setup(qt)
    setup_end = clock.mark()
    ops = bench(lambda: make_ops(qt, args.seed))

    clock.sample()
    batch_start = clock.mark()
    answers, marks, errors = [], [], {}
    for i, (kind, run, _) in enumerate(ops):
        s = clock.mark()
        try:
            answers.append(run_op(i, kind, run))
        except Exception as err:  # a library failure is a failed op, not a crash
            answers.append(None)
            errors[i] = f"{type(err).__name__}: {err}"
        marks.append((s, clock.mark()))
        clock.after_op()
    batch_end = clock.mark()
    clock.stop_ticks()
    clock.sample()
    latencies = [clock.scaled(s, e) for s, e in marks]
    # scaled seconds per wall second over the batch, for the coarse timers
    # and the traced run's spans
    scale = clock.scaled(batch_start, batch_end) / (batch_end[0] - batch_start[0])
    # read before the checks, which look some structure maps up again
    hit_ratios = layers.cache_hit_ratios()

    def check_all():
        failures = []
        for i, ((kind, _, check), answer) in enumerate(zip(ops, answers)):
            msg = errors.get(i) or check(answer)
            if msg:
                failures.append(f"op {i} ({kind}): {msg}")
        return failures

    failures = bench(check_all)
    digest = hashlib.sha256("\n".join(map(repr, answers)).encode()).hexdigest()
    result = {
        "setup_s": clock.scaled(setup_start, setup_end),
        "verdict_s": sum(latencies),
        "latencies": latencies,
        "setup_wall_s": setup_end[0] - setup_start[0] - (setup_end[1] - setup_start[1]),
        "verdict_wall_s": sum(e[0] - s[0] - (e[1] - s[1]) for s, e in marks),
        "ref_s": statistics.median(clock.refs),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "answers": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = {**tracer.metrics(BENCH_OP, scale), **hit_ratios}
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        result["timers"] = {f"{k}.s": v * scale for k, v in timers.seconds.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
