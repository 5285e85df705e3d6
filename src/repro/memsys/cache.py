"""Set-associative cache model — the reproduction of PMMS.

The PSI cache (§2.2): 8K words, two-way set associative, store-in
(write-back), 4-word blocks, 200 ns hit / 800 ns miss, 800 ns 4-word
block transfer, and a specialised *Write-stack* command that skips
block read-in on a write miss (used for pushes to stack tops).

The model is trace-driven: feed it ``(command, address)`` pairs either
online (attach it to a running machine as a memory listener) or offline
from a :class:`~repro.core.memory.TraceRecorder` via
:mod:`repro.tools.pmms`.  It keeps per-area hit/miss counts so Table 5
falls straight out, and event counts the timing model converts to
stall time for Figure 1 and the store-in/store-through ablation.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from repro.core.memory import AREA_SHIFT, AREAS, Area
from repro.core.micro import CMD_BY_CODE, CacheCmd


class WritePolicy:
    """Write policies: the paper's store-in vs store-through comparison."""

    STORE_IN = "store-in"          # write-back, write-allocate
    STORE_THROUGH = "store-through"  # write-through, no write-allocate


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one simulated cache."""

    capacity_words: int = 8192
    ways: int = 2
    block_words: int = 4
    policy: str = WritePolicy.STORE_IN
    #: the specialised Write-stack command allocates without block read-in
    write_stack_no_fetch: bool = True

    def __post_init__(self) -> None:
        if self.capacity_words % (self.ways * self.block_words):
            raise ValueError("capacity must be a multiple of ways * block size")
        if self.capacity_words < self.ways * self.block_words:
            raise ValueError("capacity smaller than one set")
        if self.policy not in (WritePolicy.STORE_IN, WritePolicy.STORE_THROUGH):
            raise ValueError(f"unknown write policy {self.policy!r}")

    @property
    def sets(self) -> int:
        return self.capacity_words // (self.ways * self.block_words)


@dataclass
class AreaCounts:
    """Hit/miss counts for one memory area."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hit ratio in percent (100.0 when never accessed)."""
        if not self.accesses:
            return 100.0
        return 100.0 * self.hits / self.accesses


class CacheStats:
    """Aggregate statistics of one simulation run."""

    def __init__(self) -> None:
        self.per_area: dict[Area, AreaCounts] = {area: AreaCounts() for area in Area}
        self.per_cmd_hits: dict[CacheCmd, int] = {cmd: 0 for cmd in CacheCmd}
        self.per_cmd_misses: dict[CacheCmd, int] = {cmd: 0 for cmd in CacheCmd}
        self.block_fetches = 0      # block read-ins from main memory
        self.writebacks = 0         # dirty block write-backs (store-in)
        self.through_writes = 0     # individual word writes to memory (store-through)

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.per_area.values())

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.per_area.values())

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.accesses:
            return 100.0
        return 100.0 * self.hits / self.accesses

    def area_hit_ratio(self, area: Area) -> float:
        return self.per_area[area].hit_ratio

    def snapshot(self) -> dict:
        """Plain-data summary of the statistics (JSON-serialisable).

        Used by the observability layer (``psi.cache.*`` metrics) and
        handy for ad-hoc inspection; cumulative totals only — windowed
        hit ratios over time come from
        :func:`repro.obs.session.sample_cache_windows`, which replays a
        run's recorded trace window by window.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "block_fetches": self.block_fetches,
            "writebacks": self.writebacks,
            "through_writes": self.through_writes,
            "per_area": {area.name.lower(): {"hits": c.hits, "misses": c.misses}
                         for area, c in self.per_area.items()},
        }


#: Lookup tables turning one byte of a packed entry into its command
#: code (least significant byte) or its area (the byte holding bit
#: ``AREA_SHIFT + 2``, where the area field starts; areas fit in it).
_AREA_BYTE, _AREA_BIT = divmod(AREA_SHIFT + 2, 8)
_CODE_OF_BYTE = bytes(b & 3 for b in range(256))
_AREA_OF_BYTE = bytes(b >> _AREA_BIT for b in range(256))


def count_entries_packed(data) -> tuple[list, list]:
    """Per-area and per-command access totals of a *packed* trace.

    The packed form is :attr:`repro.core.memory.TraceRecorder.data` —
    ``address << 2 | command_code`` ints, never decoded.  Returns flat
    lists indexed by area value and command code, the shape
    :meth:`Cache.access_many_packed` consumes.  Counted at C speed over
    the raw int64 bytes rather than entry by entry: one byte of each
    entry determines its command, another its area.
    """
    raw = memoryview(data if isinstance(data, array)
                     else array("q", data)).cast("B")
    little = sys.byteorder == "little"
    codes = raw[0 if little else 7::8].tobytes().translate(_CODE_OF_BYTE)
    areas = raw[_AREA_BYTE if little else 7 - _AREA_BYTE::8].tobytes() \
        .translate(_AREA_OF_BYTE)
    return ([areas.count(area) for area in range(len(AREAS))],
            [codes.count(code) for code in range(len(CMD_BY_CODE))])


def compact_runs(data, block_shift: int) -> array:
    """Merge each run of consecutive same-block accesses into one entry.

    Returns one ``block << 3 | first_code << 1 | later_write`` int per
    run (blocks of ``1 << block_shift`` words; ``later_write`` is set
    when any access after the first writes).

    In a store-in cache every access after a run's first hits — the
    first one left the block resident — and can at most set its dirty
    bit, so replaying the runs (:meth:`Cache.access_runs`) yields exactly
    the statistics and final state of the full trace.  Not so under
    store-through: a write miss does not allocate, so a later access of
    the run may miss too.
    """
    runs = array("q")
    append = runs.append
    shift = block_shift + 2
    head = -1
    entry = later_write = 0
    for packed in data:
        block = packed >> shift
        if block == head:
            if packed & 3:
                later_write = 1
            continue
        append(entry | later_write)
        head = block
        entry = block << 3 | (packed & 3) << 1
        later_write = 0
    append(entry | later_write)
    del runs[0]        # the placeholder appended before the first run
    return runs


#: Sentinel distinguishing "absent" from a stored False dirty bit.
_ABSENT = object()


# -- replay kernels ---------------------------------------------------------------
#
# Each kernel replays a sequence of entry segments against one cache's
# sets and returns its write-back count, adding misses into the per-area
# and per-command lists it is handed (:meth:`Cache.access_windows` reads
# them between segments).  Hits are never counted: they fall out as
# totals minus misses.  Entries are read through three parameters so
# one body serves both layouts (see ``Cache._replay``): the block number
# is ``entry >> bshift``, the command code ``entry >> cshift & 3``, and
# ``entry & wmask`` is non-zero when the entry writes.  The 1- and
# 2-way store-in kernels load the set dicts into flat lists, replay, and
# write the dicts back in LRU order, so the cache state after a batch is
# exactly what per-access :meth:`Cache.access` calls would leave.

def _store_in_1way(sets, segments, bshift, cshift, wmask, ashift,
                   area_misses, cmd_misses) -> int:
    n_sets = len(sets)
    tags = [-1] * n_sets
    dirty = [False] * n_sets
    for s, ways in enumerate(sets):
        if ways:
            ((tags[s], dirty[s]),) = ways.items()
    writebacks = 0
    for segment in segments:
        for entry in segment:
            block = entry >> bshift
            s = block % n_sets
            if tags[s] == block:
                if entry & wmask:
                    dirty[s] = True
                continue
            area_misses[block >> ashift] += 1
            cmd_misses[entry >> cshift & 3] += 1
            if dirty[s]:
                writebacks += 1
            tags[s] = block
            dirty[s] = entry & wmask != 0
    sets[:] = [{tag: d} if tag >= 0 else {} for tag, d in zip(tags, dirty)]
    return writebacks


def _store_in_2way(sets, segments, bshift, cshift, wmask, ashift,
                   area_misses, cmd_misses) -> int:
    n_sets = len(sets)
    mru = [-1] * n_sets
    lru = [-1] * n_sets
    mru_dirty = [False] * n_sets
    lru_dirty = [False] * n_sets
    for s, ways in enumerate(sets):
        if ways:
            *older, (mru[s], mru_dirty[s]) = ways.items()
            if older:
                ((lru[s], lru_dirty[s]),) = older
    writebacks = 0
    for segment in segments:
        for entry in segment:
            block = entry >> bshift
            s = block % n_sets
            if mru[s] == block:
                if entry & wmask:
                    mru_dirty[s] = True
                continue
            if lru[s] == block:
                # Hit in the LRU way: the two ways swap places.
                lru[s] = mru[s]
                mru[s] = block
                dirty = lru_dirty[s]
                lru_dirty[s] = mru_dirty[s]
                mru_dirty[s] = dirty or entry & wmask != 0
                continue
            area_misses[block >> ashift] += 1
            cmd_misses[entry >> cshift & 3] += 1
            if lru_dirty[s]:
                writebacks += 1
            lru[s] = mru[s]
            lru_dirty[s] = mru_dirty[s]
            mru[s] = block
            mru_dirty[s] = entry & wmask != 0
    sets[:] = [{old: old_d, new: new_d} if old >= 0
               else {new: new_d} if new >= 0 else {}
               for old, old_d, new, new_d
               in zip(lru, lru_dirty, mru, mru_dirty)]
    return writebacks


def _store_in_dict(sets, segments, bshift, cshift, wmask, ashift,
                   area_misses, cmd_misses, max_ways) -> int:
    n_sets = len(sets)
    absent = _ABSENT
    writebacks = 0
    for segment in segments:
        for entry in segment:
            block = entry >> bshift
            ways = sets[block % n_sets]
            dirty = ways.pop(block, absent)
            if dirty is not absent:
                # Hit: re-insert at the MRU end; a write dirties.
                ways[block] = True if entry & wmask else dirty
                continue
            area_misses[block >> ashift] += 1
            cmd_misses[entry >> cshift & 3] += 1
            if len(ways) >= max_ways:
                if ways.pop(next(iter(ways))):
                    writebacks += 1
            # Write-allocate: a write miss installs a dirty block.
            ways[block] = entry & wmask != 0
    return writebacks


def _store_through(sets, segments, bshift, ashift, area_misses, cmd_misses,
                   max_ways) -> None:
    # Every write (hit or miss) goes to memory, write misses do not
    # allocate, and blocks are never dirty.
    n_sets = len(sets)
    absent = _ABSENT
    for segment in segments:
        for packed in segment:
            block = packed >> bshift
            ways = sets[block % n_sets]
            if ways.pop(block, absent) is not absent:
                ways[block] = False
                continue
            area_misses[block >> ashift] += 1
            code = packed & 3
            cmd_misses[code] += 1
            if code:
                continue
            if len(ways) >= max_ways:
                ways.pop(next(iter(ways)))
            ways[block] = False


class Cache:
    """One simulated cache (usable directly as a memory listener).

    Replacement is true LRU within each set.  Tags are full block
    numbers, so distinct areas never alias.

    Each set is an insertion-ordered dict ``{block_number: dirty}``
    whose key order *is* the LRU order (first = least recent): a hit
    pops and re-inserts its block, eviction pops the first key.  That
    dict list is the cache's one state: the per-access listener path
    (:meth:`access`) works on it directly, and the batched replay path
    (:meth:`access_many_packed`) picks a kernel by geometry — flat
    tag lists for 1- and 2-way store-in caches, the dicts themselves
    otherwise — and leaves the dicts as per-access calls would.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        cfg = self.config
        # Each set: {block_number: dirty} in LRU order (first = LRU).
        self._sets: list[dict[int, bool]] = [{} for _ in range(cfg.sets)]
        self._block_shift = (cfg.block_words - 1).bit_length() \
            if cfg.block_words > 1 else 0
        if 1 << self._block_shift != cfg.block_words:
            raise ValueError("block size must be a power of two")
        # Hot-path constants hoisted out of the per-access listener call.
        self._n_sets = cfg.sets
        self._max_ways = cfg.ways
        self._store_in = cfg.policy == WritePolicy.STORE_IN
        self._ws_no_fetch = cfg.write_stack_no_fetch
        self._area_counts = tuple(self.stats.per_area[area] for area in AREAS)

    # -- MemoryListener interface -------------------------------------------------

    def access(self, cmd: CacheCmd, address: int) -> bool:
        """Simulate one access; returns True on hit."""
        block = address >> self._block_shift
        ways = self._sets[block % self._n_sets]
        counts = self._area_counts[address >> AREA_SHIFT]
        stats = self.stats
        dirty = ways.pop(block, _ABSENT)

        is_write = cmd is not CacheCmd.READ
        if dirty is not _ABSENT:
            counts.hits += 1
            stats.per_cmd_hits[cmd] += 1
            if is_write:
                if self._store_in:
                    dirty = True
                else:
                    stats.through_writes += 1
            ways[block] = dirty        # re-insert at the MRU end
            return True

        counts.misses += 1
        stats.per_cmd_misses[cmd] += 1
        if is_write and not self._store_in:
            # No write-allocate: the word goes straight to memory.
            stats.through_writes += 1
            return False
        fetch = not (is_write
                     and cmd is CacheCmd.WRITE_STACK
                     and self._ws_no_fetch)
        if fetch:
            stats.block_fetches += 1
        if len(ways) >= self._max_ways:
            if ways.pop(next(iter(ways))):      # evict the LRU block
                stats.writebacks += 1
        ways[block] = is_write and self._store_in
        return False

    def access_many_packed(self, data, totals=None) -> None:
        """Replay a packed int trace (``address << 2 | code``) in one call.

        Semantically identical to calling :meth:`access` per entry —
        statistics and final set state alike — but commands stay the
        2-bit codes the trace carries (``CMD_BY_CODE`` order — READ=0,
        WRITE=1, WRITE_STACK=2) and the loop counts only misses.
        ``totals`` is the pair from :func:`count_entries_packed`; pass
        it when the caller already has it.
        """
        if totals is None:
            totals = count_entries_packed(data)
        self._replay((data,), totals)

    def access_windows(self, data, window: int) -> list[int]:
        """:meth:`access_many_packed` that also reports misses per window.

        Returns the running miss count after every ``window`` entries
        (and after the last, partial window), read between segments of
        one kernel call, so statistics and final state equal a one-call
        replay's.
        """
        misses: list[int] = []
        cmd_misses = [0] * len(CMD_BY_CODE)

        def segments():
            for start in range(0, len(data), window):
                yield data[start:start + window]
                misses.append(sum(cmd_misses))

        self._replay(segments(), count_entries_packed(data),
                     cmd_misses=cmd_misses)
        return misses

    def access_runs(self, runs, totals) -> None:
        """Replay :func:`compact_runs` output (store-in caches only).

        ``runs`` must be compacted at this cache's block size and
        ``totals`` be the :func:`count_entries_packed` pair of the
        uncompacted trace; the result equals :meth:`access_many_packed` over the
        uncompacted trace.
        """
        self._replay((runs,), totals, runs=True)

    def _replay(self, segments, totals, runs: bool = False,
                cmd_misses: list[int] | None = None) -> None:
        """Replay entry ``segments`` with one kernel call.  The kernel
        counts misses into ``cmd_misses`` as it goes, so a caller that
        passes its own list can read it between segments."""
        area_totals, cmd_totals = totals
        area_misses = [0] * len(AREAS)
        if cmd_misses is None:
            cmd_misses = [0] * len(CMD_BY_CODE)
        ashift = AREA_SHIFT - self._block_shift
        if self._store_in:
            layout = (3, 1, 7) if runs else (self._block_shift + 2, 0, 3)
            if self._max_ways == 1:
                writebacks = _store_in_1way(self._sets, segments, *layout,
                                            ashift, area_misses, cmd_misses)
            elif self._max_ways == 2:
                writebacks = _store_in_2way(self._sets, segments, *layout,
                                            ashift, area_misses, cmd_misses)
            else:
                writebacks = _store_in_dict(self._sets, segments, *layout,
                                            ashift, area_misses, cmd_misses,
                                            self._max_ways)
            block_fetches = sum(cmd_misses)
            if self._ws_no_fetch:
                block_fetches -= cmd_misses[2]
            through_writes = 0
        else:
            _store_through(self._sets, segments, self._block_shift + 2,
                           ashift, area_misses, cmd_misses, self._max_ways)
            writebacks = 0
            block_fetches = cmd_misses[0]
            through_writes = cmd_totals[1] + cmd_totals[2]

        stats = self.stats
        per_area = stats.per_area
        for area in AREAS:
            counts = per_area[area]
            misses = area_misses[area]
            counts.hits += area_totals[area] - misses
            counts.misses += misses
        per_cmd_hits = stats.per_cmd_hits
        per_cmd_misses = stats.per_cmd_misses
        for code, cmd in enumerate(CMD_BY_CODE):
            misses = cmd_misses[code]
            per_cmd_hits[cmd] += cmd_totals[code] - misses
            per_cmd_misses[cmd] += misses
        stats.block_fetches += block_fetches
        stats.writebacks += writebacks
        stats.through_writes += through_writes

    # -- maintenance -----------------------------------------------------------------

    def flush(self) -> int:
        """Write back all dirty blocks; returns how many were dirty."""
        dirty = 0
        for ways in self._sets:
            for block, is_dirty in ways.items():
                if is_dirty:
                    dirty += 1
                    ways[block] = False
        self.stats.writebacks += dirty
        return dirty

    def reset(self) -> None:
        self.stats = CacheStats()
        self._sets = [{} for _ in range(self.config.sets)]
        self._area_counts = tuple(self.stats.per_area[area] for area in AREAS)

    @property
    def resident_blocks(self) -> int:
        return sum(len(ways) for ways in self._sets)
