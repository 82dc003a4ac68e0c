"""One cold execution of one workload, in a fresh interpreter.

Usage (normally started by run.py):
    python3 perfbench/child.py WORKLOAD --seed N --tmp DIR --spawn-ns T
        [--setup-only] [--jobs W] [--trace-out FILE]

Prints one JSON line: setup_s (from T, the parent's CLOCK_MONOTONIC
reading just before spawning, to inputs ready), then for a full
execution wall_s of the top-level call, cpu_s of this process and its
reaped pool workers over that call, peak_rss_mb, pace_s (the mean chunk
time of the pace.Pace sampler that runs beside the call, and the number
of samples), the check problems and the output digest.  All are raw;
run.py scales the times by the pace.  With --trace-out the call runs
under the tracer and the line also carries the per-layer summary; spans
go to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import workloads
    from pace import Pace

    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, Path(args.tmp), args.jobs)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    line: dict = {"setup_s": (ready_ns - args.spawn_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(line))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with Pace() as pace:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            output = run(inputs)
        else:
            output = tracer.run_root(lambda: run(inputs))
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    line.update(
        wall_s=t1 - t0, cpu_s=cpu1 - cpu0, peak_rss_mb=peak_kib / 1024,
        pace_s=pace.mean_s(), pace_samples=len(pace.samples),
    )
    if tracer is not None:
        tracer.uninstall()
        line["layers"] = tracer.summary()
        tracer.write_spans(
            Path(args.trace_out),
            f"workload={args.workload} seed={args.seed} jobs={args.jobs}",
        )

    problems, digest = check(inputs, output, args.seed)
    expected = workloads.reference_digest(args.workload, args.seed)
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} != recorded {expected}")
    line.update(problems=problems, digest=digest)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
