"""Host calibration, host fingerprint and the traced-run span recorder.

Timing model.  Every timed span is taken with ``time.perf_counter``.  A
fixed pure-Python calibration kernel (about 2 ms on the reference host)
runs between requests and between set-up steps, outside every timed
span.  Reported times are *reference-host seconds*: each request (or
set-up) is scaled by the kernel time measured right before and right
after it::

    reported = raw * REFERENCE_KERNEL_MS / mean(kernel ms around it)

A shared host whose speed drifts by 20% over a few seconds runs the
kernel slower by about as much at the same moment, so the ratio cancels
most of the drift; a run-wide factor would not, because the drift
changes within a run.  The raw wall time and the kernel statistics are
reported beside it.

Tracing model.  A traced run installs thin wrappers around the public
entry points of each layer (:func:`instrument`) and records one span per
call: name, start, end, parent span and request id.  Spans stay in
memory and are written to JSON when the run ends.  A layer's self time
is its span's duration minus the spans of its children.  Nothing inside
``src/`` is modified; the wrappers are removed when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_KERNEL_MS = json.loads(
    (HERE / "reference.json").read_text())["kernel_ms"]


def kernel() -> int:
    """The calibration kernel: integer arithmetic, dict and list traffic,
    the same mix of bytecodes the simulator's interpreter loops run."""
    acc = 0
    table = {}
    items = []
    for i in range(8000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = i
        if acc & 7 == 0:
            items.append((acc, i))
    return acc + len(table) + len(items)


class Clock:
    """Calibration samples of one run and the raw → reference conversion."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def calibrate(self, times: int = 2) -> float:
        """Run the kernel ``times`` times; return their mean in ms."""
        new = []
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            new.append((time.perf_counter() - start) * 1e3)
        self.samples_ms.extend(new)
        return sum(new) / len(new)

    @staticmethod
    def scale(raw_s: float, before_ms: float, after_ms: float) -> float:
        """``raw_s`` in reference-host seconds, from the kernel times
        measured just before and just after it."""
        return raw_s * 2.0 * REFERENCE_KERNEL_MS / (before_ms + after_ms)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Run-wide scale for durations not bracketed by the kernel (the
        per-layer times of a traced run)."""
        return REFERENCE_KERNEL_MS / self.median_ms

    def fingerprint(self) -> dict:
        """The host stamp every result carries."""
        return {
            "cpu_model": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "python_build": " ".join(platform.python_build()),
            "python_implementation": platform.python_implementation(),
            "kernel_ms_median": self.median_ms,
            "kernel_ms_min": min(self.samples_ms),
            "kernel_ms_max": max(self.samples_ms),
            "kernel_samples": len(self.samples_ms),
            "reference_kernel_ms": REFERENCE_KERNEL_MS,
        }


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak RSS (VmHWM) of ``pid`` and its child processes."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        status = pathlib.Path(f"/proc/{current}/status")
        try:
            for line in status.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
            children = pathlib.Path(
                f"/proc/{current}/task/{current}/children").read_text()
        except OSError:
            continue
        pending.extend(int(child) for child in children.split())
    return total_kb / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- spans --------------------------------------------------------------------

#: Phases of a run.  Per-layer metrics come from the workload's own
#: phases (:data:`OWN`); ``ledger`` holds re-executions that split
#: interpretation from trace recording; ``probe:<layer>`` times a layer
#: the workload never called (see ``workloads.probe``).
PHASES = ("setup", "request", "check", "ledger")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str = ""
    phase: str = "setup"
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.phase = "setup"
        #: (phase, layer) -> Counter of exact counts.
        self.counts: dict[tuple[str, str], Counter] = defaultdict(Counter)
        #: Recorded ``collect`` calls for the ledger: key -> [program,
        #: goal, kwargs, calls per phase group (Counter), span name].
        self.collect_calls: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack())

    def current(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = self.spans[parent].request if parent is not None \
                else self.phase
        span = Span(name, 0.0, parent=parent, request=request,
                    phase=self.phase)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.duration

    def count(self, layer: str, key: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.counts[(self.phase, layer)][key] += value

    def set_phase(self, phase: str) -> None:
        assert phase in PHASES or phase.startswith("probe:"), phase
        self.harvest_cache_events()
        self.phase = phase

    def discard_cache_events(self) -> None:
        from repro.eval.runner import CACHE_EVENTS

        CACHE_EVENTS.clear()

    def harvest_cache_events(self) -> None:
        """Move the runner's cache-tier event counts into this tracer.

        ``runner.clear_cache()`` resets ``CACHE_EVENTS``, so the counts
        are harvested before every reset and at every phase change.
        """
        if not self.enabled:
            return
        from repro.eval.runner import CACHE_EVENTS

        for event, layer, key in _CACHE_EVENTS:
            if CACHE_EVENTS.get(event):
                self.count(layer, key, CACHE_EVENTS[event])
        CACHE_EVENTS.clear()

    def write(self, path: pathlib.Path, extra: dict) -> None:
        """Write every span (and ``extra``) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        document = dict(extra)
        document["spans"] = [
            {"id": i, "name": s.name, "start_s": s.start - origin,
             "end_s": s.end - origin, "parent": s.parent,
             "request": s.request, "phase": s.phase,
             "self_s": s.self_time}
            for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(document, indent=1))


_CACHE_EVENTS = (
    ("disk_hit", "run_cache", "hits"),
    ("disk_miss", "run_cache", "misses"),
    ("disk_wait_hit", "run_cache", "lock_waits"),
    ("memory_hit", "runner", "memory_hits"),
    ("trace_upgrade", "runner", "trace_upgrades"),
)


# -- layer wrappers -----------------------------------------------------------

@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap each layer's public entry points with spans while active."""
    from repro import obs
    from repro.baseline.machine import BaselineSolver, WAMMachine
    from repro.core.machine import PSIMachine
    from repro.eval import run_cache, runner
    from repro.memsys.cache import Cache
    from repro.obs import diffprof
    from repro.obs.session import RunObservation
    collect_mod = importlib.import_module("repro.tools.collect")
    pmms = importlib.import_module("repro.tools.pmms")
    patches = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def psi_consult(original):
        def consult(self, text):
            with tracer.span("consult.psi"):
                original(self, text)
            tracer.count("consult", "clauses", sum(
                len(p.clauses) for p in self.program.procedures.values()))
        return consult

    def wam_consult(original):
        def consult(self, text):
            with tracer.span("consult.wam"):
                original(self, text)
        return consult

    def wam_next(original):
        def next_(self):
            if tracer.current() == "wam":
                return original(self)
            before = self.machine.stats.total_instructions
            with tracer.span("wam"):
                solution = original(self)
            tracer.count("wam", "instructions",
                         self.machine.stats.total_instructions - before)
            return solution
        return next_

    def wrapped_collect(original):
        def collect(program, goal, **kwargs):
            layer = "obs.collect" if obs.enabled() else "interp"
            with tracer.span(layer):
                run = original(program, goal, **kwargs)
            if tracer.phase == "ledger":
                return run
            group = tracer.phase if tracer.phase.startswith("probe:") \
                else "main"
            key = repr((program, goal, sorted(kwargs.items()), layer))
            entry = tracer.collect_calls.setdefault(
                key, [program, goal, dict(kwargs), Counter(), layer])
            entry[3][group] += 1
            if layer == "interp":
                tracer.count("interp", "steps", run.steps)
                if run.trace is not None:
                    tracer.count("trace", "entries", len(run.trace))
                    tracer.count("trace", "bytes", len(run.trace.data)
                                 * run.trace.data.itemsize)
            else:
                tracer.count("obs", "events", len(run.observation.tracer))
                tracer.count("obs", "steps", run.steps)
            return run
        return collect

    def cache_replay(original):
        def access_many_packed(self, data, totals=None):
            if tracer.inside("pmms"):
                return original(self, data, totals)
            hits, accesses = self.stats.hits, self.stats.accesses
            with tracer.span("cache"):
                result = original(self, data, totals)
            tracer.count("cache", "accesses", self.stats.accesses - accesses)
            tracer.count("cache", "hits", self.stats.hits - hits)
            return result
        return access_many_packed

    def simulate_many(original):
        def simulate(trace, configs):
            configs = list(configs)
            with tracer.span("pmms"):
                stats = original(trace, configs)
            tracer.count("pmms", "configs", len(configs))
            tracer.count("pmms", "entry_configs", len(trace) * len(configs))
            return stats
        return simulate

    def cache_load(original):
        def load(self, key):
            with tracer.span("run_cache.load"):
                summary = original(self, key)
            if summary is not None and summary.trace_bytes is not None:
                tracer.count("run_cache", "bytes_read",
                             len(summary.trace_bytes))
            return summary
        return load

    def cache_store(original):
        def store(self, key, summary, **kwargs):
            with tracer.span("run_cache.store"):
                return original(self, key, summary, **kwargs)
        return store

    def clear_cache(original):
        def clear(disk=False):
            tracer.harvest_cache_events()
            return original(disk)
        return clear

    def export(original):
        def write(*args, **kwargs):
            with tracer.span("obs.export"):
                return original(*args, **kwargs)
        return write

    patch(PSIMachine, "consult", psi_consult)
    patch(WAMMachine, "consult", wam_consult)
    patch(BaselineSolver, "next", wam_next)
    patch(collect_mod, "collect", wrapped_collect)
    patch(runner, "collect", wrapped_collect)
    patch(Cache, "access_many_packed", cache_replay)
    patch(pmms, "simulate_many", simulate_many)
    patch(run_cache.RunCache, "load", cache_load)
    patch(run_cache.RunCache, "store", cache_store)
    patch(runner, "clear_cache", clear_cache)
    for method in ("write_chrome", "write_jsonl", "write_collapsed"):
        patch(RunObservation, method, export)
    patch(diffprof, "write_snapshot", export)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        tracer.harvest_cache_events()


def ledger(tracer: Tracer, group: str) -> Counter:
    """Split interpretation from trace recording, and obs from plain runs.

    Every distinct traced ``collect`` call is executed again, with the
    layers under test switched off, and the raw difference is scaled
    by how often the call ran:

    * ``trace_s``: recording the memory trace = collect(trace on, cache
      off) - collect(trace off, cache off);
    * ``plain_s``: the same collect with observability off, for each
      call made under ``obs.observed()``.

    Only calls made in phase group ``group`` (``main`` for the
    workload's own phases, else a ``probe:<layer>`` phase) are
    re-executed.  Returns raw seconds.
    """
    from repro import obs

    collect = importlib.import_module("repro.tools.collect").collect
    result = Counter()
    tracer.set_phase("ledger")

    def timed(program, goal, kwargs) -> float:
        start = time.perf_counter()
        collect(program, goal, **kwargs)
        return time.perf_counter() - start

    for program, goal, kwargs, groups, layer in tracer.collect_calls.values():
        times = groups[group]
        if not times:
            continue
        if layer == "obs.collect":
            with obs.observed():
                observed = timed(program, goal, kwargs)
            plain = timed(program, goal, kwargs)
            result["obs_s"] += times * observed
            result["plain_s"] += times * plain
        elif kwargs.get("record_trace", True):
            bare = timed(program, goal, dict(kwargs, record_trace=False,
                                             with_cache=False))
            traced = timed(program, goal, dict(kwargs, record_trace=True,
                                               with_cache=False))
            result["trace_s"] += times * max(0.0, traced - bare)
    return result


#: The regenerated artifacts (every section of ``results/eval_report.txt``
#: except Table 1, see README.md).
ARTIFACTS = ("table2", "table3", "table4", "table5", "table6", "table7",
             "figure1", "ablations")

#: Per-layer metric group -> the probe that times it when the workload
#: never calls it (see ``workloads.probe``).  A group's spans carry its
#: name, except ``trace``, which is derived from the ``interp`` spans.
PROBE_OF = {
    "consult.psi": "psi", "interp": "psi", "trace": "psi", "cache": "psi",
    "consult.wam": "wam", "wam": "wam", "pmms": "pmms",
    "run_cache.load": "run_cache", "run_cache.store": "run_cache",
    **{f"regen.{name}": f"regen.{name}" for name in ARTIFACTS},
    "serve.solve": "serve", "serve.replay": "serve",
    "obs.collect": "obs", "obs.export": "obs",
}

#: The phases that belong to the workload itself.
OWN = ("setup", "request", "check")


def layer_group(tracer: Tracer, layer: str) -> tuple[str, ...]:
    """The phases a layer's metrics are taken from: the workload's own
    phases when it called the layer there, else the layer's probe."""
    name = "interp" if layer == "trace" else layer
    if any(s.name == name and s.phase in OWN for s in tracer.spans):
        return OWN
    return (f"probe:{PROBE_OF[layer]}",)


def missing_probes(tracer: Tracer) -> list[str]:
    """The probes needed for the layers the workload never called."""
    return list(dict.fromkeys(
        PROBE_OF[layer] for layer in PROBE_OF
        if layer_group(tracer, layer) != OWN))


def self_time(tracer: Tracer, name: str, phases) -> float:
    return sum(s.self_time for s in tracer.spans
               if s.phase in phases and s.name == name)


def inclusive(tracer: Tracer, name: str, phases) -> list[float]:
    return [s.duration for s in tracer.spans
            if s.phase in phases and s.name == name]


def counts(tracer: Tracer, layer: str, phases) -> Counter:
    total = Counter()
    for (phase, name), values in tracer.counts.items():
        if name == layer and phase in phases:
            total.update(values)
    return total


def unaccounted_pct(tracer: Tracer) -> float:
    """Share of request time not covered by a timed layer call."""
    requests = [s for s in tracer.spans
                if s.name == "request" and s.phase == "request"]
    total = sum(s.duration for s in requests)
    uncovered = sum(s.self_time for s in requests)
    return 100.0 * uncovered / total if total else 0.0


def emit(result: dict) -> None:
    """Print the metric table for humans, then the JSON result line."""
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
