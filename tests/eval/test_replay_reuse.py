"""Studies replay only the configurations a run does not already carry.

A collected run's own cache holds the production configuration's stats
(collect replayed the same trace through it), so Figure 1's 8192-word
point, both ablations' production-config sides and all of Table 5 reuse
them; everything else replays in one ``simulate_many`` call per run.
The counts below are what the perfbench ledger reports as
``pmms.configs``.  Runs come from one fast workload: which trace is
replayed does not change how many configurations are.
"""

import pytest

from repro.eval import ablations, figure1, runner, table5
from repro.memsys import CacheConfig
from repro.tools import pmms


@pytest.fixture
def replayed(monkeypatch):
    runner.clear_cache()
    run = runner.run_spec("lcp-1", "faithful", record_trace=True)
    calls = []
    simulate_many = pmms.simulate_many

    def counting(trace, configs):
        configs = list(configs)
        calls.append(len(configs))
        return simulate_many(trace, configs)

    monkeypatch.setattr(pmms, "simulate_many", counting)
    for module in (figure1, ablations, table5):
        monkeypatch.setattr(module, "run_spec", lambda *args, **kwargs: run)
    yield run, calls
    runner.clear_cache()


def test_figure1_replays_ten_of_eleven(replayed):
    run, calls = replayed
    result = figure1.generate()
    assert calls == [10]
    assert result.points == pmms.capacity_sweep(run.trace, run.steps)


def test_ablations_replay_four_configs_one_call_per_program(replayed):
    run, calls = replayed
    results = ablations.generate()
    # window-1: one 4KW set + store-through; puzzle8, bup: one 4KW set.
    assert calls == [2, 1, 1]
    assert results.write_policy == pmms.compare_write_policy(run.trace,
                                                             run.steps)
    for comparison in results.associativity.values():
        assert comparison == pmms.compare_associativity(run.trace, run.steps)


def test_table5_replays_nothing_under_the_production_config(replayed):
    run, calls = replayed
    rows = table5.generate()
    assert calls == []
    assert rows[0].total == pmms.simulate(run.trace).hit_ratio


def test_replay_run_returns_carried_stats_and_replays_the_rest(replayed):
    run, calls = replayed
    small = CacheConfig(capacity_words=64)
    stats = pmms.replay_run(run, [CacheConfig(), small, small])
    assert stats[0] is run.cache.stats
    assert stats[1] is stats[2]
    assert calls == [1]
