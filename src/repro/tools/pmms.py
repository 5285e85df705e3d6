"""PMMS: the cache memory simulator driver.

The original PMMS replayed cache-command/address traces collected by
COLLECT against various cache specifications to produce hit ratios and
the capacity/organisation studies of §4.2.  This module does exactly
that over a :class:`~repro.core.memory.TraceRecorder`:

* :func:`simulate` — one configuration over one trace, access by access
  (the reference),
* :func:`simulate_many` — many configurations over one trace in one
  call (the fast path all studies use),
* :func:`replay_run` — many configurations over a collected run's trace,
  reusing the stats the run's own cache already carries,
* :func:`capacity_sweep` — Figure 1's 8-word → 8K-word sweep,
* :func:`compare_associativity` — the 1-set vs 2-set 4KW study,
* :func:`compare_write_policy` — the store-in vs store-through study.

Every study accepts a :class:`~repro.core.memory.TraceRecorder`, a
collected run (replayed through :func:`replay_run`), or a decoded list
of ``(CacheCmd, address)`` pairs, which is packed once.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, replace

from repro.core.memory import TraceRecorder
from repro.core.micro import CMD_BY_CODE
from repro.memsys import (
    Cache,
    CacheConfig,
    CacheStats,
    WritePolicy,
    compact_runs,
    count_entries_packed,
    execution_time,
    improvement_ratio,
    time_without_cache,
)
from repro.tools.collect import CollectedRun

#: Figure 1's x axis: cache capacity from 8 words to 8K words.
FIGURE1_CAPACITIES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _packed(trace) -> array:
    """The packed ``address << 2 | code`` entries of a TraceRecorder or
    of a decoded ``(CacheCmd, address)`` list."""
    if isinstance(trace, TraceRecorder):
        return trace.data
    return array("q", [address << 2 | cmd.code for cmd, address in trace])


def simulate(trace, config: CacheConfig | None = None) -> CacheStats:
    """Replay ``trace`` through a fresh cache with ``config``.

    This is the reference implementation: one :meth:`Cache.access` call
    per trace entry.  The batched path (:func:`simulate_many`) is tested
    bit-identical against it.
    """
    cache = Cache(config or CacheConfig())
    access = cache.access
    for packed in _packed(trace):
        access(CMD_BY_CODE[packed & 3], packed >> 2)
    return cache.stats


def simulate_many(trace, configs) -> list[CacheStats]:
    """Replay one trace through many configurations in one call.

    Each configuration's cache consumes the packed trace through its
    geometry's batched kernel (:meth:`~repro.memsys.Cache.access_many_packed`).
    When two or more store-in configurations share a block size, the
    trace is first compacted once (:func:`~repro.memsys.compact_runs`)
    — runs of consecutive same-block accesses collapse to one entry,
    roughly halving the real traces — and those configurations replay
    the runs instead.  A single configuration skips compaction, which
    would cost about as much as the replay it saves.  Every
    configuration turns its miss counts into hits with the trace's
    access totals, counted once.  Statistics are bit-identical to running
    :func:`simulate` once per configuration.

    In the evaluation pipeline the trace usually arrives from the
    persistent run cache (``RunSummary.trace_bytes`` rebuilt by
    :func:`repro.eval.runner.run_spec`); replay is pure — deterministic
    in (trace, config) and independent of how the trace was obtained —
    which is what makes caching the trace instead of the replay results
    safe.
    """
    data = _packed(trace)
    caches = [Cache(config) for config in configs]
    store_in = Counter(cache.config.block_words for cache in caches
                       if cache.config.policy == WritePolicy.STORE_IN)
    runs = {block_words: compact_runs(data, block_words.bit_length() - 1)
            for block_words, n in store_in.items() if n >= 2}
    totals = count_entries_packed(data)
    for cache in caches:
        config = cache.config
        if config.policy == WritePolicy.STORE_IN and config.block_words in runs:
            cache.access_runs(runs[config.block_words], totals)
        else:
            cache.access_many_packed(data, totals)
    return [cache.stats for cache in caches]


def replay_run(run: CollectedRun, configs) -> list[CacheStats]:
    """Statistics of ``run``'s trace under each of ``configs``.

    A configuration equal to the one the run's own cache used gets that
    cache's statistics (collect replayed the same trace through it);
    the rest replay in a single :func:`simulate_many` call — and none at
    all when nothing is unknown.
    """
    own = run.cache.config if run.cache is not None else None
    unknown = list(dict.fromkeys(c for c in configs if c != own))
    replayed = dict(zip(unknown, simulate_many(run.trace, unknown))) \
        if unknown else {}
    return [run.cache.stats if config == own else replayed[config]
            for config in configs]


def _stats_for(source, configs) -> list[CacheStats]:
    if isinstance(source, CollectedRun):
        return replay_run(source, configs)
    return simulate_many(source, configs)


@dataclass(frozen=True)
class SweepPoint:
    """One Figure-1 data point."""

    capacity_words: int
    hit_ratio: float
    improvement_percent: float


def improvement_from_stats(steps: int, stats: CacheStats) -> float:
    """The paper's metric ((Tnc/Tc) - 1) x 100 from replayed stats."""
    t_c = execution_time(steps, stats).total_ns
    t_nc = time_without_cache(steps, stats.accesses).total_ns
    return improvement_ratio(t_nc, t_c)


def performance_improvement(trace, steps: int,
                            config: CacheConfig) -> tuple[float, CacheStats]:
    """The paper's metric: ((Tnc/Tc) - 1) x 100 for one configuration."""
    (stats,) = _stats_for(trace, [config])
    return improvement_from_stats(steps, stats), stats


def capacity_sweep(trace, steps: int,
                   capacities=FIGURE1_CAPACITIES,
                   base: CacheConfig | None = None) -> list[SweepPoint]:
    """Vary capacity with other parameters fixed at the PSI values.

    For capacities too small to hold one two-way set of 4-word blocks
    the way count is reduced to keep the geometry legal (the smallest
    point, 8 words, is two 4-word blocks in one set — as in the paper,
    which swept down to 8 words).

    All capacities replay in one :func:`simulate_many` call.
    """
    base = base or CacheConfig()
    configs = []
    for capacity in capacities:
        ways = min(base.ways, max(1, capacity // base.block_words))
        configs.append(replace(base, capacity_words=capacity, ways=ways))
    return [SweepPoint(capacity, stats.hit_ratio,
                       improvement_from_stats(steps, stats))
            for capacity, stats in zip(capacities, _stats_for(trace, configs))]


@dataclass(frozen=True)
class ComparisonResult:
    label_a: str
    label_b: str
    improvement_a: float
    improvement_b: float

    @property
    def difference(self) -> float:
        return self.improvement_a - self.improvement_b

    @property
    def relative_loss_percent(self) -> float:
        """How much lower b's improvement is, relative to a's."""
        if self.improvement_a == 0:
            return 0.0
        return 100.0 * (self.improvement_a - self.improvement_b) / self.improvement_a


def associativity_pair(set_capacity_words: int = 4096) -> tuple:
    """Two 4KW sets vs one 4KW set, as ``((label, config), (label, config))``."""
    return (("two 4KW sets",
             CacheConfig(capacity_words=2 * set_capacity_words, ways=2)),
            ("one 4KW set",
             CacheConfig(capacity_words=set_capacity_words, ways=1)))


def write_policy_pair(base: CacheConfig | None = None) -> tuple:
    """Store-in vs store-through, as ``((label, config), (label, config))``."""
    base = base or CacheConfig()
    return (("store-in", replace(base, policy=WritePolicy.STORE_IN)),
            ("store-through", replace(base, policy=WritePolicy.STORE_THROUGH)))


def compare_pairs(trace, steps: int, pairs) -> list[ComparisonResult]:
    """One :class:`ComparisonResult` per configuration pair, all pairs
    replayed in one call."""
    stats = iter(_stats_for(trace, [config for pair in pairs
                                 for _, config in pair]))
    return [ComparisonResult(label_a, label_b,
                             improvement_from_stats(steps, next(stats)),
                             improvement_from_stats(steps, next(stats)))
            for (label_a, _), (label_b, _) in pairs]


def compare_associativity(trace, steps: int,
                          set_capacity_words: int = 4096) -> ComparisonResult:
    """Two 4KW sets vs one 4KW set (§4.2: one set was only ~3% lower)."""
    return compare_pairs(trace, steps,
                         [associativity_pair(set_capacity_words)])[0]


def compare_write_policy(trace, steps: int,
                         base: CacheConfig | None = None) -> ComparisonResult:
    """Store-in vs store-through (§4.2: store-in ~8% higher)."""
    return compare_pairs(trace, steps, [write_policy_pair(base)])[0]
