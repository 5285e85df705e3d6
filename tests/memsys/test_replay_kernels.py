"""Batched replay kernels vs the per-access reference, on generated traces.

``Cache.access_many_packed`` picks a kernel by geometry (flat lists for
1- and 2-way store-in caches, set dicts otherwise) and
``Cache.access_runs`` replays compacted same-block runs.  Both must
leave exactly what per-access ``Cache.access`` calls leave: every
statistic, and every set's blocks in LRU order with their dirty bits —
also when the cache already holds state from earlier accesses.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.memory import AREA_SHIFT, AREAS, TraceRecorder, encode_address
from repro.core.micro import CMD_BY_CODE
from repro.memsys import (Cache, CacheConfig, WritePolicy, compact_runs,
                          count_entries_packed)
from repro.tools.pmms import simulate, simulate_many

HOT_BLOCK_WORDS = 4


@st.composite
def configs(draw):
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([1, 2, 3, 5, 8, 16, 512, 1024]))
    block_words = draw(st.sampled_from([4, 4, 2, 8]))
    capacity = ways * sets * block_words
    assume(8 <= capacity <= 8192)
    return CacheConfig(
        capacity_words=capacity, ways=ways, block_words=block_words,
        policy=draw(st.sampled_from([WritePolicy.STORE_IN,
                                     WritePolicy.STORE_THROUGH])),
        write_stack_no_fetch=draw(st.booleans()))


@st.composite
def traces(draw, n=1):
    """``n`` packed entry lists over the same few hot 4-word blocks,
    spread across all areas, so hits, conflicts and same-block runs are
    all frequent."""
    hot = draw(st.lists(st.tuples(st.sampled_from(AREAS),
                                  st.integers(0, 63)),
                        min_size=1, max_size=6))
    access = st.tuples(st.integers(0, len(hot) - 1),
                       st.integers(0, HOT_BLOCK_WORDS - 1),
                       st.integers(0, len(CMD_BY_CODE) - 1))
    return [[encode_address(hot[i][0], hot[i][1] * HOT_BLOCK_WORDS + word)
             << 2 | code for i, word, code in draw(st.lists(access,
                                                            max_size=300))]
            for _ in range(n)]


def per_access(cache, packed_entries):
    for packed in packed_entries:
        cache.access(CMD_BY_CODE[packed & 3], packed >> 2)


def counters(stats):
    return ([(c.hits, c.misses) for c in stats.per_area.values()],
            dict(stats.per_cmd_hits), dict(stats.per_cmd_misses),
            stats.block_fetches, stats.writebacks, stats.through_writes)


def state(cache):
    """Every statistic plus each set's (block, dirty) pairs in LRU order."""
    return counters(cache.stats), [list(ways.items()) for ways in cache._sets]


_A, _B = (encode_address(AREAS[0], offset) << 2 for offset in (0, 4))


@given(configs(), traces(n=2))
# A write hitting the LRU way of a 2-way set must dirty the block.
@example(CacheConfig(capacity_words=8), [[], [_A, _B, _A | 1]])
@settings(max_examples=300, deadline=None)
def test_batched_replay_matches_per_access(config, warmup_and_body):
    warmup, body = warmup_and_body
    reference = Cache(config)
    per_access(reference, warmup + body)

    batched = Cache(config)
    per_access(batched, warmup)
    batched.access_many_packed(body)
    assert state(batched) == state(reference)

    if config.policy == WritePolicy.STORE_IN:
        compacted = Cache(config)
        per_access(compacted, warmup)
        compacted.access_runs(compact_runs(body, batched._block_shift),
                              count_entries_packed(body))
        assert state(compacted) == state(reference)


@given(traces())
@settings(max_examples=100, deadline=None)
def test_count_entries_packed_matches_entry_by_entry(bodies):
    (body,) = bodies
    areas = [0] * len(AREAS)
    codes = [0] * len(CMD_BY_CODE)
    for packed in body:
        areas[packed >> 2 >> AREA_SHIFT] += 1
        codes[packed & 3] += 1
    trace = TraceRecorder()
    trace.data.extend(body)
    assert count_entries_packed(body) == (areas, codes)
    assert count_entries_packed(trace.data) == (areas, codes)


@given(st.lists(configs(), min_size=1, max_size=5), traces())
@settings(max_examples=150, deadline=None)
def test_simulate_many_matches_simulate(config_list, bodies):
    (body,) = bodies
    trace = TraceRecorder()
    trace.data.extend(body)
    for config, stats in zip(config_list, simulate_many(trace, config_list)):
        assert counters(stats) == counters(simulate(trace, config))


@given(configs(), traces(n=2), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_windowed_replay_matches_per_access(config, warmup_and_body, window):
    """``access_windows`` leaves per-access state and reports the
    running miss count after every ``window`` entries."""
    warmup, body = warmup_and_body
    reference = Cache(config)
    per_access(reference, warmup)
    expected = []
    for start in range(0, len(body), window):
        per_access(reference, body[start:start + window])
        expected.append(reference.stats.misses)

    windowed = Cache(config)
    per_access(windowed, warmup)
    base = windowed.stats.misses
    misses = windowed.access_windows(body, window)
    assert state(windowed) == state(reference)
    assert [base + n for n in misses] == expected
