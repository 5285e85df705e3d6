"""Session-level tests: disabled mode, determinism, cache purity."""

import io
import pickle

import pytest

from repro import obs
from repro.core.stats import StatsCollector
from repro.tools.collect import collect
from repro.workloads import get


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _collect(name: str):
    workload = get(name)
    return collect(workload.source, workload.goal,
                   all_solutions=workload.all_solutions,
                   record_trace=False,
                   setup_goals=workload.setup_goals)


class TestDisabledMode:
    def test_no_observation_and_plain_collector(self):
        assert not obs.enabled()
        run = _collect("nreverse")
        assert run.observation is None
        assert type(run.stats) is StatsCollector
        assert run.machine.mem.observer is None

    def test_enable_disable_toggle(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_observed_context_restores_state(self):
        assert not obs.enabled()
        with obs.observed(trace_capacity=128):
            assert obs.enabled()
            assert obs.config().trace_capacity == 128
        assert not obs.enabled()
        assert obs.config().trace_capacity != 128

    def test_enable_rejects_config_plus_overrides(self):
        from repro.obs.session import ObsConfig
        with pytest.raises(ValueError):
            obs.enable(ObsConfig(), trace_capacity=1)


class TestObservedRun:
    def test_observed_counters_match_plain_run(self):
        plain = _collect("nreverse")
        with obs.observed():
            observed = _collect("nreverse")
        assert observed.stats.routine_counts == plain.stats.routine_counts
        assert observed.stats.mem_counts == plain.stats.mem_counts
        assert observed.stats.total_steps == plain.stats.total_steps
        assert observed.stats.inferences == plain.stats.inferences

    def test_traces_are_deterministic(self):
        def jsonl() -> str:
            with obs.observed():
                run = _collect("nreverse")
            buf = io.StringIO()
            run.observation.write_jsonl(buf)
            return buf.getvalue()

        first, second = jsonl(), jsonl()
        assert first == second            # byte-identical, not just similar

    def test_observation_has_all_tracks(self):
        with obs.observed():
            run = _collect("nreverse")
        tracer = run.observation.tracer
        assert tracer.events("calls"), "predicate slices missing"
        assert tracer.events("micro"), "sampled microroutine spans missing"
        assert tracer.events("stacks"), "stack reclaim events missing"
        assert tracer.events("cache"), "cache window samples missing"

    def test_stack_events_only_on_shrink(self):
        with obs.observed():
            run = _collect("nreverse")
        for event in run.observation.tracer.events("stacks"):
            assert event.ph == "C"
            assert event.name.startswith("top.")


class TestTraceWindowedTracks:
    """The ``micro`` and ``cache`` tracks are sampled from the recorded
    memory trace after the run (``docs/OBSERVABILITY.md``)."""

    def test_clock_at_is_exact_at_marks_and_linear_between(self):
        from repro.obs.session import clock_at

        marks = [(0, 0), (10, 100), (10, 150), (20, 160)]
        assert clock_at(marks, [0, 5, 10, 15, 20]) == [0, 50, 100, 155, 160]

    def test_one_sample_per_window_and_interval(self):
        workload = get("nreverse")
        with obs.observed(cache_window=1024, micro_sample_interval=256):
            run = collect(workload.source, workload.goal,
                          all_solutions=workload.all_solutions,
                          setup_goals=workload.setup_goals)
        tracer = run.observation.tracer
        entries = len(run.trace)
        cache_events = tracer.events("cache")
        micro_events = tracer.events("micro")
        assert len(cache_events) == entries // 1024
        assert len(micro_events) == entries // 256
        histogram = run.observation.metrics_snapshot[
            "psi.cache.window_hit_ratio"]
        assert histogram["count"] == entries // 1024
        for events in (cache_events, micro_events):
            stamps = [event.ts for event in events]
            assert stamps == sorted(stamps)
            assert 0 <= stamps[0] and stamps[-1] <= run.stats.total_steps
        assert {event.name for event in micro_events} <= {
            "mem.read", "mem.write", "mem.write_stack"}


class TestCachePurity:
    def test_summary_is_identical_with_and_without_obs(self):
        """The disk cache must store the same bytes either way."""
        plain = _collect("nreverse").to_summary()
        with obs.observed():
            observed = _collect("nreverse").to_summary()
        assert observed.metrics is None
        assert type(observed.stats) is StatsCollector
        assert pickle.dumps(observed, protocol=pickle.HIGHEST_PROTOCOL) == \
            pickle.dumps(plain, protocol=pickle.HIGHEST_PROTOCOL)

    def test_rebuilt_run_has_no_observation(self):
        with obs.observed():
            summary = _collect("nreverse").to_summary()
        rebuilt = summary.to_collected_run()
        assert rebuilt.observation is None
