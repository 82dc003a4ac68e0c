"""dsextra benchmark driver.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json; --trace 1 ignores it.

Run from the root of a dsextra checkout.  Every execution of a workload is
a fresh interpreter (perfbench/child.py) with src/ on the path, because
the library's module-level lru_caches start empty in every CLI
invocation and a warm in-process repeat would hide that cost.  Children
run one after another, never at the same time: block-sampled alone holds
about 1.2 GB.

--trace 0 runs SETUP_PROBES set-up-only children, then full executions
for --seconds (at least one; another only if the last one's duration
says it ends in time), then SETUP_PROBES set-up-only children again, and
reports the medians of the end-to-end metrics.  The reported times are
scaled to a fixed machine speed: each execution's wall_s and cpu_s are
multiplied by PACE_REF_S / its pace (see pace.py), and the set-up median
by PACE_REF_S / the run's median pace.  The table prints the raw samples
too.  --trace 1 runs one untraced and one traced execution (two for
run-sweep-bc, see NOTES.md) and reports the per-layer metrics.  Both
print a readable table and, as the last line, one JSON object with
correct, attempted, failed and metrics.  attempted counts every child;
failed counts children that exited non-zero or whose output failed a
check, so fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
# Mean pace.chunk() time that defines "reference speed"; reported times are
# seconds at that speed.  It is about this machine's typical chunk time,
# so scaled and raw times are of the same size.
PACE_REF_S = 0.0003
RUN_LIMIT_S = 170          # every child must end by then; the contract allows 180

# metric names and units, as declared in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# On run-sweep-bc the per-layer metrics come from a traced run at jobs 1,
# where every layer runs in the traced process; these come from the traced
# run at jobs 2, the configuration users run, whose pool workers are out of
# the tracer's reach.
FROM_JOBS2 = ("harness.run_pair_sweep.wall_s", "cli.main.self_s", "trace.wall_s")


class Runner:
    """Starts children one at a time and keeps the failure count."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def child(self, *extra: str) -> dict | None:
        """One child; its JSON line, or None when it failed."""
        self.attempted += 1
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        cmd = [
            sys.executable, str(CHILD), self.workload, "--seed", str(self.seed),
            "--tmp", str(self.tmp), "--spawn-ns", str(spawn_ns), *extra,
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out, err = "", "timed out"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)   # the child and any pool workers
                proc.communicate()
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {err.strip()[-500:]}")
            line = json.loads(out.splitlines()[-1])
            problems = line.get("problems", [])
        except (ValueError, IndexError) as e:   # JSONDecodeError is a ValueError
            problems = [str(e) or "no output"]
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(extra) or 'execution'}: {'; '.join(problems)}")
            return None
        return line

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _fmt_samples(values: list[float]) -> str:
    return " ".join(f"{v:.4g}" for v in values)


def probe_setups(r: Runner) -> list[float]:
    """setup_s of SETUP_PROBES set-up-only children."""
    lines = [r.child("--setup-only") for _ in range(SETUP_PROBES)]
    return [line["setup_s"] for line in lines if line]


def measure(r: Runner, seconds: int) -> dict[str, float] | None:
    r.child("--setup-only")  # warm-up: bytecode cache and file cache, not reported
    # Set-up is probed before and after the executions, so its samples
    # span the same stretch of time as the executions, on a machine whose
    # speed drifts from minute to minute.
    setups = probe_setups(r)
    execs = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        line = r.child()
        if line:
            execs.append(line)
            setups.append(line["setup_s"])
        took = time.monotonic() - started
        # start another execution only if it should end within --seconds
        if time.monotonic() - begin + took > seconds or r.time_left() < 1.5 * took + 5:
            break
    setups += probe_setups(r)
    if not execs:
        return None
    paces = [e["pace_s"] for e in execs]
    raw = {name: [e[name] for e in execs] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    raw["setup_s"] = setups
    samples = {
        name: [e[name] * PACE_REF_S / e["pace_s"] for e in execs] for name in ("wall_s", "cpu_s")
    }
    samples["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics = {name: statistics.median(samples[name]) for name in samples}
    metrics["setup_s"] = statistics.median(setups) * PACE_REF_S / statistics.median(paces)
    print(f"{len(execs)} execution(s), {len(setups)} set-up sample(s), output digest "
          f"{' '.join(sorted({e['digest'] for e in execs}))}")
    print(f"  pace (ms per chunk, {'/'.join(str(e['pace_samples']) for e in execs)} samples): "
          f"{_fmt_samples([1e3 * p for p in paces])}; reference {1e3 * PACE_REF_S:g}")
    print("  medians, times scaled to the reference pace:")
    for name, unit in END_TO_END.items():
        scaled = f" scaled: {_fmt_samples(samples[name])}" if name in ("wall_s", "cpu_s") else ""
        print(f"  {name:<12} {metrics[name]:>12.4f} {unit:<4} raw: {_fmt_samples(raw[name])}{scaled}")
    return metrics


def trace(r: Runner) -> dict[str, float] | None:
    r.child("--setup-only")
    plain = r.child()
    jobs = ("1", "2") if r.workload == "run-sweep-bc" else (None,)
    layers, paces = {}, {}
    for j in jobs:
        label = f"jobs{j}" if j else "traced"
        spans = OUT / f"{r.workload}.{label}.spans.tsv.gz"
        line = r.child("--trace-out", str(spans), *(["--jobs", j] if j else []))
        if line is None:
            return None
        layers[j], paces[j] = line["layers"], line["pace_s"]
        _print_breakdown(label, layers[j], spans)
    if plain is None:
        return None
    whole, as_run = layers[jobs[0]], layers[jobs[-1]]
    metrics = {name: (as_run if name in FROM_JOBS2 else whole).get(name, 0) for name in PER_LAYER}
    # each duration scaled by its own execution's pace
    traced_pace = paces[jobs[-1]]
    metrics["trace.overhead_ratio"] = (
        (as_run["trace.wall_s"] / traced_pace) / (plain["wall_s"] / plain["pace_s"])
    )
    print(f"untraced wall_s {plain['wall_s']:.4f} s at pace {1e3 * plain['pace_s']:.4f} ms; "
          f"traced {as_run['trace.wall_s']:.4f} s at pace {1e3 * traced_pace:.4f} ms; "
          f"overhead ratio {metrics['trace.overhead_ratio']:.4f}")
    return metrics


def _print_breakdown(label: str, layers: dict, spans: Path) -> None:
    wall = layers["trace.wall_s"]
    selfs = sorted(
        ((v, k[: -len(".self_s")]) for k, v in layers.items() if k.endswith(".self_s")),
        reverse=True,
    )
    total = sum(v for v, _ in selfs)
    print(f"[{label}] traced wall_s {wall:.4f} s, {layers['trace.spans']} spans -> {spans.relative_to(ROOT)}")
    for v, name in selfs[:8]:
        calls = layers[f"{name}.calls"]
        print(f"  {name:<36} self {v:>9.4f} s {100 * v / wall:6.2f}%  calls {calls}")
    print(f"  sum of self times {total:.4f} s = {100 * total / wall:.2f}% of traced wall_s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/dsextra/__init__.py", "tests/data/pins.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a dsextra checkout: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    import mpmath.libmp

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"python {platform.python_version()}, mpmath backend {mpmath.libmp.BACKEND}, "
        f"nproc {os.cpu_count()}"
    )
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        r = Runner(args.workload, args.seed, tmp)
        metrics = trace(r) if args.trace else measure(r, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"  fail_ratio   {r.failed}/{r.attempted} = {r.failed / r.attempted:.4f}")
    if metrics is None:
        print("no successful execution; no result", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
