"""Time-travel state reconstruction over the packed memory trace.

The PSI's console tools dumped machine state to floppy so engineers
could inspect any point of a run after the fact; our equivalent
rebuilds machine state at **any microstep** from the packed int64
access stream a :class:`~repro.core.memory.TraceRecorder` already
records for the PMMS hand-off.  A *microstep* here is an index into
that stream: each entry is one memory-access microinstruction
(``address << 2 | command_code``), so seeking to microstep N means
replaying the first N accesses.

What the trace determines — and therefore what
:class:`ReplayState` models — is the machine's *memory geometry*, not
word values (the trace carries addresses, never data):

* per-area **extents**: the top-of-area register file
  (:data:`repro.core.memory.AREA_REGISTERS`), high-water marks, and
  read/write/write-stack counts;
* per-area **heat**: access counts in
  :data:`HEAT_BUCKET_WORDS`-word buckets — the memory heatmap;
* the **choicepoint chain**: the control stack holds nothing but
  10-word frames (:data:`repro.core.machine.CONTROL_FRAME_WORDS`), so
  its extent *is* the frame chain and every inferred truncation is a
  backtrack event;
* **cache state**: the production cache replayed through the PMMS
  batched kernel — resident blocks in true LRU order plus the full
  hit/miss statistics, exactly as access-for-access replay leaves them.

Stack truncations (``settop``) are not themselves traced; they are
*inferred* when a Write-stack lands below the observed top.  The model
is therefore the observed-extent semantics of the stream — exactly
reproducible, which is what checkpointing requires.

Checkpointed seek: :class:`TraceExplorer` replays the stream once,
storing a :meth:`ReplayState.snapshot` every K microsteps (K
auto-sized from the trace length, :func:`auto_stride`) plus a bucketed
timeline for the HTML explorer.  ``state_at(N)`` then costs one
snapshot restore plus at most K-1 replayed accesses instead of a full
re-execution; equality with a cold replay to N is pinned by
``tests/obs/test_timetravel.py``.

Differential mode: :func:`first_divergence` aligns the two engines'
canonical answer sequences (both machines consume the same frontend,
so solutions arrive in identical clause order when the engines agree)
and pinpoints the PSI microstep at which the first diverging answer
was emitted, using the answer marks
:func:`repro.tools.collect.collect` records.  ``psi-eval debug
--diff`` renders the result; ``psi-eval crosscheck`` prints the
one-command reproduction recipe on any divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.machine import CONTROL_FRAME_WORDS
from repro.core.memory import (
    AREA_REGISTERS,
    AREA_SHIFT,
    AREAS,
    N_AREAS,
    OFFSET_MASK,
    TraceRecorder,
)
from repro.core.micro import CMD_BY_CODE
from repro.memsys import Cache, CacheConfig

#: Heat-map granularity: access counts are binned per this many words.
#: Word-exact heat would make every checkpoint carry one dict entry
#: per touched word (~37k words on the window benchmark); 16-word
#: buckets keep checkpoints compact while staying finer than the
#: production cache's 8-word blocks.
HEAT_BUCKET_WORDS = 16
_HEAT_SHIFT = HEAT_BUCKET_WORDS.bit_length() - 1

#: Auto-sizing target: about this many checkpoints per trace keeps the
#: worst-case seek (one stride of replayed accesses) short without the
#: checkpoint array itself dominating memory.
AUTO_TARGET_CHECKPOINTS = 128

_CONTROL = 3  # Area.CONTROL — literal for the hot decode loop


def auto_stride(n_entries: int) -> int:
    """Checkpoint stride for a trace of ``n_entries`` accesses.

    Power of two, at least 256, chosen so the trace yields at most
    ~:data:`AUTO_TARGET_CHECKPOINTS` checkpoints: short traces seek
    almost instantly, long traces bound their checkpoint memory.
    """
    stride = 256
    while n_entries // stride > AUTO_TARGET_CHECKPOINTS:
        stride *= 2
    return stride


class AreaState:
    """Observed geometry of one memory area at a microstep."""

    __slots__ = ("top", "high_water", "reads", "writes", "stack_writes",
                 "reclaims", "reclaimed_words", "heat")

    def __init__(self) -> None:
        self.top = 0                #: observed extent (max touched offset + 1)
        self.high_water = 0
        self.reads = 0
        self.writes = 0
        self.stack_writes = 0
        self.reclaims = 0           #: inferred truncations (stack reclaim events)
        self.reclaimed_words = 0
        self.heat: dict[int, int] = {}   #: bucket -> access count

    @property
    def accesses(self) -> int:
        return self.reads + self.writes + self.stack_writes

    def to_dict(self) -> dict:
        return {"top": self.top, "high_water": self.high_water,
                "reads": self.reads, "writes": self.writes,
                "stack_writes": self.stack_writes,
                "reclaims": self.reclaims,
                "reclaimed_words": self.reclaimed_words,
                "heat": dict(self.heat)}

    @classmethod
    def from_dict(cls, data: dict) -> "AreaState":
        state = cls()
        state.top = data["top"]
        state.high_water = data["high_water"]
        state.reads = data["reads"]
        state.writes = data["writes"]
        state.stack_writes = data["stack_writes"]
        state.reclaims = data["reclaims"]
        state.reclaimed_words = data["reclaimed_words"]
        state.heat = dict(data["heat"])
        return state


def _cache_snapshot(cache: Cache) -> dict:
    """Full cache state including LRU order (JSON-unsafe: int keys)."""
    stats = cache.stats
    return {
        "sets": [list(ways.items()) for ways in cache._sets],
        "per_area": [(stats.per_area[area].hits, stats.per_area[area].misses)
                     for area in AREAS],
        "per_cmd": [(stats.per_cmd_hits[cmd], stats.per_cmd_misses[cmd])
                    for cmd in CMD_BY_CODE],
        "block_fetches": stats.block_fetches,
        "writebacks": stats.writebacks,
        "through_writes": stats.through_writes,
    }


def _cache_restore(snapshot: dict, config: CacheConfig) -> Cache:
    """Rebuild a cache whose future behaviour matches the snapshot's.

    Set dicts are rebuilt in the recorded insertion order, so LRU
    decisions after a restore are identical to never having paused.
    """
    cache = Cache(config)
    cache._sets = [dict(pairs) for pairs in snapshot["sets"]]
    stats = cache.stats
    for area, (hits, misses) in zip(AREAS, snapshot["per_area"]):
        counts = stats.per_area[area]
        counts.hits, counts.misses = hits, misses
    cache._area_counts = tuple(stats.per_area[area] for area in AREAS)
    for cmd, (hits, misses) in zip(CMD_BY_CODE, snapshot["per_cmd"]):
        stats.per_cmd_hits[cmd] = hits
        stats.per_cmd_misses[cmd] = misses
    stats.block_fetches = snapshot["block_fetches"]
    stats.writebacks = snapshot["writebacks"]
    stats.through_writes = snapshot["through_writes"]
    return cache


class ReplayState:
    """Reconstructed machine state after N replayed accesses.

    ``with_cache=True`` (the default) additionally replays the access
    through a simulated :class:`~repro.memsys.Cache` so cache
    occupancy and hit/miss statistics are part of the state.  Equality
    compares the full :meth:`snapshot`, LRU order included.
    """

    __slots__ = ("step", "areas", "backtracks", "cache", "cache_config")

    def __init__(self, *, with_cache: bool = True,
                 cache_config: CacheConfig | None = None):
        self.step = 0
        self.areas = [AreaState() for _ in range(N_AREAS)]
        self.backtracks = 0
        self.cache_config = (cache_config or CacheConfig()) \
            if with_cache else None
        self.cache = Cache(self.cache_config) if with_cache else None

    # -- replay ---------------------------------------------------------------

    def apply(self, packed: int) -> None:
        """Advance the state by one packed trace entry."""
        self.apply_many((packed,))

    def apply_many(self, packed_entries) -> None:
        """Advance the state by a sequence of packed trace entries.

        Area bookkeeping runs per entry; the cache then replays the
        whole segment in one :meth:`~repro.memsys.Cache.access_many_packed`
        call (the PMMS kernel) — nothing reads cache state mid-segment.
        """
        areas = self.areas
        for packed in packed_entries:
            code = packed & 3
            address = packed >> 2
            area = areas[address >> AREA_SHIFT]
            offset = address & OFFSET_MASK
            bucket = offset >> _HEAT_SHIFT
            heat = area.heat
            heat[bucket] = heat.get(bucket, 0) + 1
            if code == 2:                  # WRITE_STACK: push, may reveal reclaim
                area.stack_writes += 1
                if offset < area.top:
                    area.reclaims += 1
                    area.reclaimed_words += area.top - offset
                    if address >> AREA_SHIFT == _CONTROL:
                        self.backtracks += 1
                area.top = offset + 1
            else:
                if code == 0:
                    area.reads += 1
                else:
                    area.writes += 1
                if offset >= area.top:
                    area.top = offset + 1
            if area.top > area.high_water:
                area.high_water = area.top
        self.step += len(packed_entries)
        if self.cache is not None:
            self.cache.access_many_packed(packed_entries)

    # -- derived registers ----------------------------------------------------

    @property
    def registers(self) -> dict[str, int]:
        """The derived register file: top-of-area pointers by mnemonic."""
        return {AREA_REGISTERS[area]: self.areas[area].top for area in AREAS}

    @property
    def control_depth(self) -> int:
        """Choicepoint-chain depth: the control stack holds only
         10-word frames, so its extent divides into whole frames."""
        return self.areas[_CONTROL].top // CONTROL_FRAME_WORDS

    @property
    def control_frames(self) -> list[int]:
        """Base offsets of the live control frames, innermost last."""
        return list(range(0, self.control_depth * CONTROL_FRAME_WORDS,
                          CONTROL_FRAME_WORDS))

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep plain-data copy of the whole state (checkpoint payload)."""
        return {
            "step": self.step,
            "backtracks": self.backtracks,
            "areas": [area.to_dict() for area in self.areas],
            "cache": _cache_snapshot(self.cache)
            if self.cache is not None else None,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict,
                      cache_config: CacheConfig | None = None) -> "ReplayState":
        state = cls(with_cache=False)
        state.step = snapshot["step"]
        state.backtracks = snapshot["backtracks"]
        state.areas = [AreaState.from_dict(d) for d in snapshot["areas"]]
        if snapshot["cache"] is not None:
            state.cache_config = cache_config or CacheConfig()
            state.cache = _cache_restore(snapshot["cache"], state.cache_config)
        return state

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReplayState):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    __hash__ = None

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Terse text view (the ``psi-eval debug --step N`` output)."""
        lines = [f"state at microstep {self.step}"]
        lines.append("registers: " + "  ".join(
            f"{name}={value}" for name, value in self.registers.items()))
        lines.append(f"choicepoint chain: {self.control_depth} frame(s), "
                     f"{self.backtracks} backtrack(s) so far")
        for area in AREAS:
            a = self.areas[area]
            if not a.accesses and not a.top:
                continue
            lines.append(
                f"  {area.label:<13} top {a.top:>7}  high {a.high_water:>7}  "
                f"r/w/ws {a.reads}/{a.writes}/{a.stack_writes}  "
                f"reclaims {a.reclaims} ({a.reclaimed_words} words)")
        if self.cache is not None:
            stats = self.cache.stats
            lines.append(
                f"cache: {self.cache.resident_blocks} resident block(s), "
                f"{stats.hits} hits / {stats.misses} misses "
                f"({stats.hit_ratio:.2f}%), "
                f"{stats.writebacks} writebacks")
        return "\n".join(lines)


@dataclass
class TimelinePoint:
    """One bucket of the explorer's over-time aggregates."""

    step: int                     #: end microstep of the bucket (exclusive)
    area_accesses: list[int]      #: accesses per area within the bucket
    area_tops: list[int]          #: per-area top at the bucket end
    hits: int                     #: cache hits within the bucket
    misses: int                   #: cache misses within the bucket
    control_depth: int            #: choicepoint depth at the bucket end
    backtracks: int               #: backtracks within the bucket


class TraceExplorer:
    """Checkpointed random access into one recorded run.

    Construction replays the packed stream once, capturing

    * a state checkpoint every ``stride`` microsteps (auto-sized by
      default), and
    * a ``timeline`` of ~``timeline_buckets`` aggregate points for the
      HTML explorer's heatmaps and hit/miss chart.

    ``state_at(N)`` afterwards is checkpoint-restore + short replay.
    """

    def __init__(self, trace, *, stride: int | None = None,
                 with_cache: bool = True,
                 cache_config: CacheConfig | None = None,
                 timeline_buckets: int = 240):
        if isinstance(trace, TraceRecorder):
            self.data = trace.data
        elif isinstance(trace, (bytes, bytearray)):
            self.data = TraceRecorder.frombytes(bytes(trace)).data
        else:
            self.data = trace
        self.n_steps = len(self.data)
        self.stride = stride or auto_stride(self.n_steps)
        self.cache_config = cache_config or CacheConfig()
        self.with_cache = with_cache
        self.timeline: list[TimelinePoint] = []
        self._checkpoints: list[dict] = []
        self._build(max(1, min(timeline_buckets, self.n_steps) or 1))

    def _build(self, n_buckets: int) -> None:
        state = ReplayState(with_cache=self.with_cache,
                            cache_config=self.cache_config)
        stride = self.stride
        bucket_span = max(1, -(-self.n_steps // n_buckets))  # ceil division
        self._checkpoints.append(state.snapshot())
        prev = _TimelineCursor(state)
        data = self.data
        # Replay segment by segment up to the next bucket end or
        # checkpoint, whichever comes first: those are the only points
        # where anything reads the state.
        step = 0
        while step < self.n_steps:
            end = min(step - step % bucket_span + bucket_span,
                      step - step % stride + stride, self.n_steps)
            state.apply_many(data[step:end])
            step = end
            if step % bucket_span == 0:
                self.timeline.append(prev.advance(state))
            if step % stride == 0 and step < self.n_steps:
                self._checkpoints.append(state.snapshot())
        if self.n_steps % bucket_span:
            self.timeline.append(prev.advance(state))
        self.final = state

    # -- seeking --------------------------------------------------------------

    @property
    def checkpoint_steps(self) -> list[int]:
        return [i * self.stride for i in range(len(self._checkpoints))]

    def state_at(self, step: int) -> ReplayState:
        """State after the first ``step`` accesses (checkpointed seek)."""
        if not 0 <= step <= self.n_steps:
            raise IndexError(
                f"microstep {step} outside [0, {self.n_steps}]")
        index = min(step // self.stride, len(self._checkpoints) - 1)
        state = ReplayState.from_snapshot(self._checkpoints[index],
                                          cache_config=self.cache_config)
        base = index * self.stride
        if step > base:
            state.apply_many(self.data[base:step])
        return state

    def cold_state_at(self, step: int) -> ReplayState:
        """State via a full replay from microstep 0 (the reference)."""
        if not 0 <= step <= self.n_steps:
            raise IndexError(
                f"microstep {step} outside [0, {self.n_steps}]")
        state = ReplayState(with_cache=self.with_cache,
                            cache_config=self.cache_config)
        state.apply_many(self.data[:step])
        return state


class _TimelineCursor:
    """Delta tracker between timeline bucket boundaries."""

    __slots__ = ("accesses", "hits", "misses", "backtracks")

    def __init__(self, state: ReplayState):
        self._capture(state)

    def _capture(self, state: ReplayState) -> None:
        self.accesses = [state.areas[a].accesses for a in range(N_AREAS)]
        if state.cache is not None:
            self.hits = state.cache.stats.hits
            self.misses = state.cache.stats.misses
        else:
            self.hits = self.misses = 0
        self.backtracks = state.backtracks

    def advance(self, state: ReplayState) -> TimelinePoint:
        hits = state.cache.stats.hits if state.cache is not None else 0
        misses = state.cache.stats.misses if state.cache is not None else 0
        point = TimelinePoint(
            step=state.step,
            area_accesses=[state.areas[a].accesses - self.accesses[a]
                           for a in range(N_AREAS)],
            area_tops=[state.areas[a].top for a in range(N_AREAS)],
            hits=hits - self.hits,
            misses=misses - self.misses,
            control_depth=state.control_depth,
            backtracks=state.backtracks - self.backtracks,
        )
        self._capture(state)
        return point


# -- differential mode ---------------------------------------------------------


@dataclass
class Divergence:
    """The first point where two engines' answer sequences part ways."""

    workload: str
    index: int                    #: answer index (0-based) of the divergence
    kind: str                     #: "answer" | "psi_missing" | "other_missing"
    psi_answer: str | None
    other_answer: str | None
    microstep: int                #: PSI microstep of the diverging answer
    total_microsteps: int
    other_label: str = "baseline"

    def describe(self) -> str:
        if self.kind == "answer":
            return (f"answer #{self.index + 1} diverges at PSI microstep "
                    f"{self.microstep}/{self.total_microsteps}: "
                    f"PSI {self.psi_answer!r} vs {self.other_label} "
                    f"{self.other_answer!r}")
        if self.kind == "psi_missing":
            return (f"PSI exhausts after {self.index} answer(s) at microstep "
                    f"{self.microstep}/{self.total_microsteps}; "
                    f"{self.other_label} also finds {self.other_answer!r}")
        return (f"{self.other_label} exhausts after {self.index} answer(s); "
                f"PSI also finds {self.psi_answer!r} at microstep "
                f"{self.microstep}/{self.total_microsteps}")


def first_divergence(workload: str, psi_answers, psi_marks,
                     other_answers, total_microsteps: int,
                     other_label: str = "baseline") -> Divergence | None:
    """Align two canonical answer sequences; pinpoint the first split.

    ``psi_marks`` are the microstep positions
    :func:`repro.tools.collect.collect` recorded per answer (the trace
    length when each solution was decoded).  Comparison is
    order-sensitive — both engines consume the same normalized clause
    order, so a sequence divergence is the sharpest aligned signal; the
    crosscheck oracle's multiset view remains the semantic gate.
    """
    from repro.engine.answers import render_answer

    psi_rendered = [render_answer(a) for a in psi_answers]
    other_rendered = [render_answer(a) for a in other_answers]

    def mark(i: int) -> int:
        if psi_marks and i < len(psi_marks):
            return psi_marks[i]
        return total_microsteps

    for i, (mine, theirs) in enumerate(zip(psi_rendered, other_rendered)):
        if mine != theirs:
            return Divergence(workload, i, "answer", mine, theirs,
                              mark(i), total_microsteps, other_label)
    if len(psi_rendered) < len(other_rendered):
        i = len(psi_rendered)
        return Divergence(workload, i, "psi_missing", None,
                          other_rendered[i], total_microsteps,
                          total_microsteps, other_label)
    if len(other_rendered) < len(psi_rendered):
        i = len(other_rendered)
        return Divergence(workload, i, "other_missing", psi_rendered[i],
                          None, mark(i), total_microsteps, other_label)
    return None


def diff_workload(name: str):
    """Replay ``name`` on both engines; returns
    ``(divergence | None, psi run, baseline run)``.

    The PSI side comes through the full cached runner (the stored trace
    and answer marks make the microstep pinpoint free); the baseline
    runs fresh per process.  This is the engine behind ``psi-eval debug
    --diff`` and the reproduction recipe crosscheck prints.
    """
    from repro.eval.runner import run_spec

    psi = run_spec(name, "faithful", record_trace=True)
    baseline = run_spec(name, "baseline")
    total = len(psi.trace.data) if psi.trace is not None else 0
    divergence = first_divergence(name, psi.answers, psi.answer_marks,
                                  baseline.answers, total)
    return divergence, psi, baseline
