"""Per-run observability session: the glue between machine and obs.

One :class:`ObsSession` instruments exactly one collected run.  It
owns the run's :class:`~repro.obs.trace.Tracer`,
:class:`~repro.obs.profile.MicroProfile` and per-run
:class:`~repro.obs.metrics.MetricsRegistry`, and provides the
attachment points :func:`repro.tools.collect.collect` uses:

* :attr:`ObsSession.collector` — an :class:`ObservedStatsCollector`
  that bills exactly like the plain collector, fused dispatch
  included, and attributes steps per predicate by swapping count
  banks at predicate boundaries; it opens the ``calls`` slices and
  takes the ``(trace length, clock)`` marks;
* :attr:`ObsSession.stack_observer` — a
  :class:`~repro.core.memory.MemorySystem` observer recording
  stack-area reclaim events (the PSI reclaims stacks by truncation on
  proceed/TRO/backtrack — it has no garbage collector);
* :meth:`ObsSession.finish` — after the run, replays the packed memory
  feed into the cache in fixed windows (:func:`sample_cache_windows`),
  samples the ``micro`` track from the same feed
  (:func:`sample_micro`) and derives the per-run metrics.

When observability is disabled none of this is constructed: the
machine runs on the plain collector, and what it pays for the
subsystem is a predicate-label store per call, proceed and backtrack
plus the running clock bump beside each billing (the clock is what
stamps the exact-time tracks).

The finished artifact is a :class:`RunObservation` — trace + profile +
metrics snapshot — attached to the
:class:`~repro.tools.collect.CollectedRun` but deliberately **not** to
its :class:`~repro.tools.collect.RunSummary`: observability output is
derived from execution and is never stored in the PR-1 disk cache
(only the picklable metrics snapshot crosses the ``run_many`` worker
boundary, to be merged into the parent's registry).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import zip_longest
from operator import attrgetter, mul
from typing import IO

from repro.core import micro as _micro
from repro.core.memory import AREA_SHIFT, AREAS
from repro.core.micro import MEM_ROUTINE_BY_CODE, MODULE_BY_INDEX, N_MODULES, Module
from repro.core.stats import StatsCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import MicroProfile
from repro.obs.trace import (
    TRACK_CACHE,
    TRACK_CALLS,
    TRACK_MICRO,
    TRACK_STACKS,
    Tracer,
)


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of one observability session (see ``docs/OBSERVABILITY.md``)."""

    #: ring-buffer capacity per trace track
    trace_capacity: int = 65536
    #: record one memory-microinstruction span per this many trace entries
    micro_sample_interval: int = 512
    #: sample the cache hit ratio once per this many trace entries
    cache_window: int = 8192


class ObservedStatsCollector(StatsCollector):
    """A stats collector that attributes its counts per predicate.

    Billing is the base class's, fused dispatch included: the collector
    overrides no recording method.  Attribution comes from *count
    banks* — one ``(_pair_counts, _mem_counts, _fused_counts)`` triple
    per predicate label.  :attr:`predicate` is a property whose setter
    swaps the new label's bank in (creating it the first time), so
    every emission, inlined fused increment and memory access bills
    straight into the bank of the predicate being resolved.  Pair
    indices carry the interpreter module, so a bank holds that
    predicate's (predicate × module) counts exactly.  A swap is O(1):
    one dict lookup and three attribute stores.

    The base class's running :attr:`clock` is the trace clock.  At a
    swap the collector opens the outgoing predicate's ``calls`` slice
    lazily — only when the predicate billed a step since it was
    swapped in, and only when it is not the slice already open — and
    records a ``(trace length, clock)`` mark, from which the session
    stamps the trace-windowed ``cache`` and ``micro`` samples.

    :meth:`close` folds every bank into the profile and sums the banks
    into the collector's own lists, so the reporting views
    (``routine_counts``, ``mem_counts``, ``total_steps``) read exactly
    what a plain collector would.  Before :meth:`close` they see only
    the current predicate's bank.
    """

    __slots__ = ("tracer", "profile", "_pred", "_banks", "_totals", "_mark",
                 "_open_pred", "_feed", "marks")

    def __init__(self, tracer: Tracer, profile: MicroProfile):
        self.tracer = tracer
        self.profile = profile
        self._pred: str | None = None
        self._banks: dict[str, tuple[list, list, list]] = {}
        self._totals: tuple[list, list, list] | None = None
        self._mark = 0
        self._open_pred: str | None = None
        self._feed = array("q")
        #: ``(trace length, clock)`` at each predicate change that
        #: followed billed steps, plus the start and the close.
        self.marks: list[tuple[int, int]] = [(0, 0)]
        super().__init__()

    def attach_feed(self, data) -> None:
        """Take marks against ``data``, the run's packed memory feed."""
        self._feed = data

    def _set_predicate(self, label: str) -> None:
        if label is self._pred:
            return
        clock = self.clock
        if clock != self._mark:
            self._end_visit(clock)
        bank = self._banks.get(label)
        if bank is None:
            bank = self._banks[label] = self._new_bank()
        self._pair_counts, self._mem_counts, self._fused_counts = bank
        self._pred = label

    predicate = property(attrgetter("_pred"), _set_predicate)

    def _end_visit(self, clock: int) -> None:
        """The current predicate billed steps since ``_mark``: open its
        slice (unless it is the open one) and take a mark."""
        pred = self._pred
        if pred is not self._open_pred:
            self._open_pred = pred
            self.tracer.begin_slice(TRACK_CALLS, pred, self._mark)
        self._mark = clock
        self.marks.append((len(self._feed), clock))

    def _new_bank(self) -> tuple[list, list, list]:
        if self._totals is not None:
            # Closed: later billing goes to the totals the views read.
            return self._totals
        return ([0] * len(self._pair_counts), [0] * len(self._mem_counts),
                [0] * len(self._fused_counts))

    def close(self) -> None:
        """End the last slice, fold the banks into profile and totals."""
        if self._totals is not None:
            return
        clock = self.clock
        if clock != self._mark:
            self._end_visit(clock)
        self.tracer.finish(clock)
        self._open_pred = None
        weights = [routine.n_steps for routine in _micro.routines_by_rid()]
        add = self.profile.add
        banks = list(self._banks.items())
        for label, bank in banks:
            self._pair_counts, self._mem_counts, self._fused_counts = bank
            self._flush_fused()
            pairs = self._pair_counts
            for midx, module in enumerate(MODULE_BY_INDEX):
                steps = sum(map(mul, pairs[midx::N_MODULES], weights))
                if steps:
                    add(label, module, steps)
        self._totals = tuple(
            list(map(sum, zip_longest(*lists, fillvalue=0)))
            for lists in zip(*(bank for _, bank in banks)))
        self._pair_counts, self._mem_counts, self._fused_counts = self._totals
        self._banks = {}


#: ``stacks``-track counter name per memory area.
_TOP_NAMES = tuple(f"top.{area.name.lower()}" for area in AREAS)


class StackObserver:
    """Records stack reclaim events (:meth:`MemorySystem.settop`).

    The PSI frees stack space exclusively by truncation — on proceed,
    tail-recursion reclaim and backtracking — so each ``settop`` that
    shrinks an area is one "GC-free" deallocation event: a counter
    sample of the new top, stamped with the exact clock.
    """

    __slots__ = ("tracer", "collector")

    def __init__(self, tracer: Tracer, collector: ObservedStatsCollector):
        self.tracer = tracer
        self.collector = collector

    def on_settop(self, area: int, offset: int) -> None:
        self.tracer.counter(TRACK_STACKS, _TOP_NAMES[area],
                            self.collector.clock, offset)


def clock_at(marks: list[tuple[int, int]], positions) -> list[int]:
    """Clock stamps for ascending trace ``positions`` (entry counts).

    Exact where a position is a mark's trace length; between the two
    marks that enclose it, linear in the trace length (the marks are
    taken at predicate changes, so a stamp is off by at most one
    predicate visit).  The last mark must reach the last position.
    """
    stamps = []
    j = 0
    for position in positions:
        while marks[j][0] < position:
            j += 1
        end, clock = marks[j]
        if end != position and j:
            start, begin = marks[j - 1]
            clock = begin + (clock - begin) * (position - start) // (end - start)
        stamps.append(clock)
    return stamps


def sample_cache_windows(cache, tracer: Tracer, histogram, data,
                         marks: list[tuple[int, int]], window: int) -> None:
    """The ``cache`` track: windowed hit ratios from the recorded feed.

    The cache is never a live listener on an observed run: like a plain
    run it replays the packed memory feed once the run has finished, in
    one kernel call (:meth:`Cache.access_windows`) that reports the
    running miss count after every ``window`` entries.  Each window
    therefore holds exactly ``window`` accesses, and the cache ends in
    the same state as after a plain run's replay.  Each full window
    emits a hit-ratio counter, stamped by :func:`clock_at` at the
    window's last entry, and feeds ``histogram``.
    """
    misses = cache.access_windows(data, window)
    ends = range(window, len(data) + 1, window)
    previous = 0
    for ts, total in zip(clock_at(marks, ends), misses):
        ratio = 100.0 * (window - (total - previous)) / window
        previous = total
        tracer.counter(TRACK_CACHE, "hit_ratio", ts, round(ratio, 3))
        histogram.observe(ratio)


def sample_micro(tracer: Tracer, data, marks: list[tuple[int, int]],
                 interval: int) -> None:
    """The ``micro`` track: every ``interval``-th entry of the feed.

    Each trace entry is one memory-access microinstruction; the span is
    named after its microroutine, lasts its step count and starts at
    the :func:`clock_at` stamp of the entries before it.
    """
    positions = range(interval - 1, len(data), interval)
    for position, ts in zip(positions, clock_at(marks, positions)):
        packed = data[position]
        routine = MEM_ROUTINE_BY_CODE[packed & 3]
        area = AREAS[packed >> (2 + AREA_SHIFT)]
        tracer.complete(TRACK_MICRO, routine.name, ts, routine.n_steps,
                        {"area": area.name.lower()})


@dataclass
class RunObservation:
    """The finished observability artifact of one collected run."""

    goal: str
    tracer: Tracer
    profile: MicroProfile
    metrics_snapshot: dict
    total_steps: int

    # -- export convenience -----------------------------------------------------

    def write_jsonl(self, fp: IO[str]) -> int:
        return self.tracer.to_jsonl(fp)

    def write_chrome(self, fp: IO[str], name: str = "PSI") -> int:
        return self.tracer.to_chrome(fp, process_name=name)

    def write_collapsed(self, fp: IO[str], root: str | None = None) -> int:
        return self.profile.write_collapsed(fp, root=root)

    def top_table(self, top: int = 10) -> str:
        return self.profile.top_table(top)


class ObsSession:
    """Instrumentation for one run; see the module docstring."""

    def __init__(self, goal: str, config: ObsConfig | None = None):
        self.goal = goal
        self.config = config or ObsConfig()
        self.tracer = Tracer(capacity=self.config.trace_capacity)
        self.profile = MicroProfile()
        self.metrics = MetricsRegistry()
        self.collector = ObservedStatsCollector(self.tracer, self.profile)
        self.stack_observer = StackObserver(self.tracer, self.collector)

    def finish(self, cache, feed) -> RunObservation:
        """Close the trace, replay ``feed`` (the run's packed memory
        feed) into ``cache`` (if any) in windows, sample the ``micro``
        track, derive the per-run metrics and build the artifact."""
        collector = self.collector
        collector.close()
        marks = collector.marks
        if cache is not None:
            sample_cache_windows(
                cache, self.tracer,
                self.metrics.histogram("psi.cache.window_hit_ratio"),
                feed, marks, self.config.cache_window)
        sample_micro(self.tracer, feed, marks,
                     self.config.micro_sample_interval)
        metrics = self.metrics
        metrics.counter("psi.runs").inc()
        metrics.counter("psi.microsteps").inc(collector.total_steps)
        metrics.counter("psi.inferences").inc(collector.inferences)
        metrics.counter("psi.builtin_calls").inc(collector.builtin_calls)
        metrics.counter("psi.mem.accesses").inc(collector.total_mem_accesses)
        for cmd, count in collector.cache_command_counts().items():
            metrics.counter(f"psi.mem.cmd.{cmd.value}").inc(count)
        module_steps = collector.module_steps()
        for module in Module:
            metrics.counter(f"psi.module.{module.value}.steps").inc(
                module_steps.get(module, 0))
        for field, counts in collector.wf_field_counts().items():
            for mode, count in counts.items():
                metrics.counter(f"psi.wf.{field}.{mode.value}").inc(count)
        if collector.inferences:
            metrics.gauge("psi.steps_per_inference").set(
                collector.total_steps / collector.inferences)
        if cache is not None:
            stats = cache.stats
            metrics.counter("psi.cache.hits").inc(stats.hits)
            metrics.counter("psi.cache.misses").inc(stats.misses)
            metrics.counter("psi.cache.block_fetches").inc(stats.block_fetches)
            metrics.counter("psi.cache.writebacks").inc(stats.writebacks)
            metrics.gauge("psi.cache.hit_ratio").set(stats.hit_ratio)
        metrics.counter("psi.trace.events").inc(len(self.tracer))
        metrics.counter("psi.trace.dropped").inc(
            sum(self.tracer.dropped.values()))
        return RunObservation(
            goal=self.goal,
            tracer=self.tracer,
            profile=self.profile,
            metrics_snapshot=metrics.snapshot(),
            total_steps=collector.total_steps,
        )
