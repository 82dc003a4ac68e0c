"""Span tracer that instruments the package from outside its source.

install() wraps every public function of the traced modules and rebinds
the wrapper wherever the original is bound: the defining module and every
consumer that imported it with `from .circles import coprime_arcs`.  Each
call records a span (name, parent, start, end) in memory; self time is
derived at the end as a span's duration minus its direct children's.

Pool workers are forked copies of the traced process; the tracer turns
itself off in them, so they record no spans that would die with them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from pathlib import Path

MODULES = ("arith", "circles", "overlap", "schedule", "harness", "cli")
ROOT = "workload"


def _intersection_counts(counters, args, result, missed):
    a, b = args[0], args[1]
    counters["circles.intersection_measure.ends_swept"] += len(a.ends) + len(b.ends)
    if result:
        counters["circles.intersection_measure.nonzero"] += 1


def _arcs_counts(counters, args, result, missed):
    if missed:
        counters["circles.coprime_arcs.intervals_built"] += len(result.ends)


def _bc_counts(counters, args, result, missed):
    second_moment = result[1][-1][2]
    counters["harness.bc.second_moment_bits"] = second_moment.denominator.bit_length()


def _csv_counts(counters, args, result, missed):
    counters["harness.write_csv.bytes"] += os.path.getsize(args[0])


# per-function counters beyond calls, self time and cache misses
OBSERVERS = {
    "circles.intersection_measure": _intersection_counts,
    "circles.coprime_arcs": _arcs_counts,
    "harness.borel_cantelli_ratio": _bc_counts,
    "harness.write_csv": _csv_counts,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.spans: list = []        # (name id, parent index, start ns, end ns)
        self.stack = [-1]
        self.on = False
        self.counters: dict[str, int] = {
            "circles.intersection_measure.ends_swept": 0,
            "circles.intersection_measure.nonzero": 0,
            "circles.coprime_arcs.intervals_built": 0,
            "harness.bc.second_moment_bits": 0,
            "harness.write_csv.bytes": 0,
        }
        self.misses: dict[str, int] = {}
        self._patched: list = []     # (module, attribute, original)

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            mod = importlib.import_module(f"dsextra.{short}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "dsextra" and not name.startswith("dsextra."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.on = False

    def uninstall(self) -> None:
        self.on = False
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is not None:
            self.misses[name] = 0
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            before = cache_info().misses if cache_info is not None else 0
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (nid, parent, t0, t1)
            missed = cache_info is not None and cache_info().misses != before
            if missed:
                tracer.misses[name] += 1
            if observe is not None:
                observe(tracer.counters, args, result, missed)
            return result

        return traced

    def run_root(self, call):
        """Run call() as the root span with tracing on; return its result."""
        i = len(self.spans)
        self.spans.append(None)
        self.stack.append(i)
        self.on = True
        t0 = time.perf_counter_ns()
        try:
            return call()
        finally:
            t1 = time.perf_counter_ns()
            self.on = False
            self.stack.pop()
            self.spans[i] = (0, -1, t0, t1)

    def _self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        self_ns = [t1 - t0 for _, _, t0, t1 in self.spans]
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                self_ns[parent] -= t1 - t0
        return self_ns

    def summary(self) -> dict[str, float]:
        """Flat per-layer metrics: <name>.calls/.self_s/.wall_s/.misses plus counters."""
        span_self = self._self_ns()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        wall_ns = [0] * len(self.names)
        for i, (nid, parent, t0, t1) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += span_self[i]
            wall_ns[nid] += t1 - t0
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            out[f"{name}.wall_s"] = wall_ns[nid] / 1e9
        for name, misses in self.misses.items():
            out[f"{name}.misses"] = misses
        out.update(self.counters)
        im_calls = out["circles.intersection_measure.calls"]
        out["circles.intersection_measure.nonzero_ratio"] = (
            out.pop("circles.intersection_measure.nonzero") / im_calls if im_calls else 0.0
        )
        out["trace.wall_s"] = out[f"{ROOT}.wall_s"]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: Path, header: str) -> None:
        """Gzipped TSV, one line per span: index, parent, name, start and end
        (ns from the root start), self ns."""
        span_self = self._self_ns()
        origin = min(t0 for _, _, t0, _ in self.spans)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\n# index\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            f.writelines(
                f"{i}\t{parent}\t{names[nid]}\t{t0 - origin}\t{t1 - origin}\t{span_self[i]}\n"
                for i, (nid, parent, t0, t1) in enumerate(self.spans)
            )
