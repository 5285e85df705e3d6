#!/usr/bin/env python
"""Benchmark the evaluation pipeline: replay, parallelism, run cache.

Times the three layers this harness optimises and writes the results to
``BENCH_eval.json`` so the performance trajectory is tracked PR over PR:

* **replay** — the Figure 1 + §4.2-ablation replay stage: one
  per-access ``simulate`` per configuration (the reference, 15 full
  passes) vs one ``simulate_many`` call (geometry-specialised kernels,
  the trace compacted once into same-block runs for the store-in
  configurations, miss-only counting).  Every per-area and per-command
  counter must match before either time is recorded.
* **eval all** — wall-clock of ``psi-eval all`` as a subprocess:
  serial without the disk cache (the from-scratch path), ``--jobs N``
  cold (first parallel run, populates ``.psi-cache``), and ``--jobs N``
  warm (disk cache hot — the steady state of repeated invocations).
* **spec_cache** — cold vs warm ``psi-eval indexed --all``: both PSI
  columns of the indexed report run through the unified run-spec path
  (:mod:`repro.eval.specs`), so the second invocation is served from
  the spec-fingerprinted disk cache.  The speedup is the payoff of
  non-faithful specs being first-class cache citizens.
* **fused vs unfused** — the same workload with the superinstruction
  dispatch (:mod:`repro.core.fusion`) enabled vs ``fused=False``.
  Verifies the modelled step count is identical both ways, records the
  wall-clock speedup, and **fails** when it falls below
  ``--min-fused-speedup`` — the floor that keeps the fused hot path
  from silently eroding.  Runs in ``--throughput-only`` mode too.
* **indexed vs faithful** — the clause-indexed PSI configuration
  (``MachineConfig(indexed=True)``, first-argument selection through
  :mod:`repro.engine.index`) vs the faithful one over the
  backtracking-heavy workload subset
  (:data:`repro.eval.indexed.BACKTRACKING_HEAVY`).  Answer multisets
  must match; the geomean *modelled-step* speedup is recorded and
  **fails** below ``--min-indexed-speedup`` (default 1.15).  Runs in
  ``--throughput-only`` mode too.
* **throughput** — interpreter steps per second (obs off and on) on a
  cheap workload.  A *rate*, so it tracks the emission hot path's cost
  per step independent of workload-set changes; the run **fails** when
  the obs-off rate drops more than ``--max-regress`` percent below the
  previous ``BENCH_eval.json``.  ``--throughput-only`` runs just this
  stage — the CI perf-smoke mode.
* **debug_replay** — time-travel seek latency
  (:mod:`repro.obs.timetravel`): builds the checkpointed explorer over
  a recorded trace, then times ``state_at`` seeks against cold
  from-scratch replays to the same microsteps.  Records the build
  time, both seek times, and the speedup, so the checkpoint stride
  auto-sizing keeps paying for itself PR over PR.
* **obs** — interpreter wall-clock with the observability layer
  (:mod:`repro.obs`) disabled vs enabled, on one mid-size workload.
  The disabled number is the one that matters: observability must be
  zero-cost when off, so the script compares the new ``serial_cold_s``
  against the previous ``BENCH_eval.json`` and **fails** if the
  from-scratch pipeline regressed by more than ``--max-regress``
  percent (default 2).  The enabled path has a budget too:
  ``--max-obs-overhead`` (default 30%) fails the run when tracing +
  profiling cost more than that on top of the disabled interpreter;
  observed runs take the same fused path, so the two times compare
  like for like.

Results also **append** to the run-history store
(``results/history/history.jsonl``, disable with ``--no-history``), so
``psi-eval history show`` charts the trajectory while
``BENCH_eval.json`` stays the latest-snapshot view.

Usage::

    python scripts/bench_eval.py              # full benchmark (~5 min)
    python scripts/bench_eval.py --replay-only
    python scripts/bench_eval.py --throughput-only   # CI perf smoke
    python scripts/bench_eval.py --jobs 8 --output BENCH_eval.json
    python scripts/bench_eval.py --max-obs-overhead 50 --no-history
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def _counters(stats) -> tuple:
    """Every counter of a ``CacheStats``: per area, per command, events."""
    return ([(c.hits, c.misses) for c in stats.per_area.values()],
            dict(stats.per_cmd_hits), dict(stats.per_cmd_misses),
            stats.block_fetches, stats.writebacks, stats.through_writes)


def bench_replay() -> dict:
    """Per-config simulate vs single-pass simulate_many, same 15 configs."""
    from repro.eval.runner import run_spec
    from repro.memsys import CacheConfig, WritePolicy, compact_runs
    from repro.tools.pmms import FIGURE1_CAPACITIES, simulate, simulate_many

    run = run_spec("window-1", "faithful", record_trace=True)
    trace = run.trace

    base = CacheConfig()
    configs = []
    for capacity in FIGURE1_CAPACITIES:
        ways = min(base.ways, max(1, capacity // base.block_words))
        configs.append(replace(base, capacity_words=capacity, ways=ways))
    configs += [
        CacheConfig(capacity_words=8192, ways=2),    # assoc: two 4KW sets
        CacheConfig(capacity_words=4096, ways=1),    # assoc: one 4KW set
        base,                                        # policy: store-in
        replace(base, policy=WritePolicy.STORE_THROUGH),
    ]

    t0 = time.perf_counter()
    per_config = [simulate(trace, config) for config in configs]
    t_per_config = time.perf_counter() - t0

    t0 = time.perf_counter()
    single_pass = simulate_many(trace, configs)
    t_single_pass = time.perf_counter() - t0

    for config, old, new in zip(configs, per_config, single_pass):
        if _counters(old) != _counters(new):
            raise AssertionError(
                f"single-pass replay diverged from per-config at {config}")

    return {
        "trace_entries": len(trace),
        "compacted_runs": len(compact_runs(trace.data, 2)),
        "configs": len(configs),
        "per_config_s": round(t_per_config, 3),
        "single_pass_s": round(t_single_pass, 3),
        "speedup": round(t_per_config / t_single_pass, 2),
    }


def _run_all(cache_dir: str, *extra_args: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PSI_CACHE_DIR=cache_dir)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "repro.eval.cli", "all",
                    *extra_args],
                   check=True, cwd=REPO, env=env,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def bench_eval_all(jobs: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="psi-bench-cache-") as cache_dir:
        serial_cold = _run_all(cache_dir, "--no-disk-cache")
        jobs_cold = _run_all(cache_dir, "--jobs", str(jobs))
        jobs_warm = _run_all(cache_dir, "--jobs", str(jobs))
        serial_warm = _run_all(cache_dir)
    return {
        "jobs": jobs,
        "serial_cold_s": round(serial_cold, 2),
        "jobs_cold_s": round(jobs_cold, 2),
        "jobs_warm_s": round(jobs_warm, 2),
        "serial_warm_s": round(serial_warm, 2),
        "speedup_jobs_warm": round(serial_cold / jobs_warm, 2),
        "speedup_serial_warm": round(serial_cold / serial_warm, 2),
    }


def bench_spec_cache() -> dict:
    """Cold vs warm ``psi-eval indexed --all`` in a throwaway cache dir.

    Cold executes every workload under both the faithful and indexed
    run specs and stores each under its spec-fingerprinted key; warm
    must be served entirely from disk (both specs), so the ratio
    tracks how much of the indexed report's cost the spec-keyed run
    cache absorbs.
    """
    with tempfile.TemporaryDirectory(prefix="psi-bench-spec-") as cache_dir:
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                   PSI_CACHE_DIR=cache_dir)

        def run_once() -> float:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "repro.eval.cli",
                            "indexed", "--all"],
                           check=True, cwd=REPO, env=env,
                           stdout=subprocess.DEVNULL)
            return time.perf_counter() - t0

        cold = run_once()
        warm = run_once()
    return {
        "cold_s": round(cold, 2),
        "warm_s": round(warm, 2),
        "speedup": round(cold / warm, 2) if warm else 0.0,
    }


def bench_obs(workload_name: str = "window-1", repeats: int = 5) -> dict:
    """Observability overhead: same workload, obs disabled vs enabled.

    Uses the best of ``repeats`` in-process runs each way, alternating
    disabled and enabled runs so a drift in host speed hits both sides
    alike.  The disabled path's cost is checked by the
    ``serial_cold_s`` regression assertion in :func:`main`.
    """
    from repro import obs
    from repro.tools.collect import collect
    from repro.workloads import get

    workload = get(workload_name)

    def run_once() -> float:
        t0 = time.perf_counter()
        collect(workload.source, workload.goal,
                all_solutions=workload.all_solutions,
                record_trace=False,
                setup_goals=workload.setup_goals)
        return time.perf_counter() - t0

    run_once()                       # warm-up: imports, code objects
    disabled = enabled = float("inf")
    for _ in range(repeats):
        disabled = min(disabled, run_once())
        with obs.observed():
            enabled = min(enabled, run_once())
    obs.reset()
    return {
        "workload": workload_name,
        "disabled_s": round(disabled, 3),
        "enabled_s": round(enabled, 3),
        "enabled_overhead_pct": round(100.0 * (enabled - disabled) / disabled, 1),
    }


def bench_throughput(workload_name: str = "qsort", repeats: int = 5) -> dict:
    """Interpreter throughput: microinstruction steps emitted per second.

    Unlike the wall-clock stages this is a *rate*, so it is comparable
    across PRs even when the workload set changes: the step count is a
    property of the modelled machine (pinned by the golden-digest
    tests), so steps/s moves only when the hot path's real cost per
    emitted step moves.  Measured obs-off and obs-on (best of
    ``repeats``), on a cheap workload so the CI perf-smoke job stays
    fast.
    """
    from repro import obs
    from repro.tools.collect import collect
    from repro.workloads import get

    workload = get(workload_name)

    def run_once() -> tuple[float, int]:
        t0 = time.perf_counter()
        run = collect(workload.source, workload.goal,
                      all_solutions=workload.all_solutions,
                      record_trace=False,
                      setup_goals=workload.setup_goals)
        return time.perf_counter() - t0, run.stats.total_steps

    run_once()                       # warm-up: imports, code objects
    disabled_s, steps = min(run_once() for _ in range(repeats))
    with obs.observed():
        enabled_s, _ = min(run_once() for _ in range(repeats))
    obs.reset()
    return {
        "workload": workload_name,
        "steps": steps,
        "disabled_steps_per_sec": round(steps / disabled_s),
        "enabled_steps_per_sec": round(steps / enabled_s),
    }


def bench_fused(workload_name: str = "qsort", repeats: int = 5) -> dict:
    """Superinstruction dispatch on vs off, same workload, best-of-N.

    The two runs must bill the exact same modelled step count (the
    equivalence contract); the ratio of their wall-clocks is the
    realised fusion speedup on the interpreter hot path.
    """
    from repro.core.machine import MachineConfig
    from repro.tools.collect import collect
    from repro.workloads import get

    workload = get(workload_name)

    def run_once(config) -> tuple[float, int]:
        t0 = time.perf_counter()
        run = collect(workload.source, workload.goal,
                      all_solutions=workload.all_solutions,
                      record_trace=False, with_cache=False,
                      machine_config=config,
                      setup_goals=workload.setup_goals)
        return time.perf_counter() - t0, run.stats.total_steps

    fused_config = MachineConfig()
    unfused_config = MachineConfig(fused=False)
    run_once(fused_config)           # warm-up: imports, code objects
    fused_s, fused_steps = min(run_once(fused_config)
                               for _ in range(repeats))
    unfused_s, unfused_steps = min(run_once(unfused_config)
                                   for _ in range(repeats))
    if fused_steps != unfused_steps:
        raise AssertionError(
            f"fused dispatch changed the modelled step count "
            f"({fused_steps} vs {unfused_steps})")
    return {
        "workload": workload_name,
        "steps": fused_steps,
        "fused_s": round(fused_s, 3),
        "unfused_s": round(unfused_s, 3),
        "speedup": round(unfused_s / fused_s, 2),
    }


def bench_indexed() -> dict:
    """Clause-indexed vs faithful PSI over the backtracking-heavy subset.

    Both configurations run through :func:`repro.eval.indexed
    .compare_workload` (faithful side cache-served, indexed side
    uncached); the answer multisets must match on every workload, and
    the *modelled step* geomean speedup is the gated number — steps are
    deterministic, so the floor cannot flake on a loaded CI runner the
    way wall-clock would.  Modelled-time speedup is recorded alongside
    (it folds in the cache simulation).
    """
    from repro.eval.indexed import (
        BACKTRACKING_HEAVY,
        compare_workload,
        geomean,
    )

    rows = [compare_workload(name) for name in BACKTRACKING_HEAVY]
    diverged = [row.name for row in rows if not row.answers_equal]
    if diverged:
        raise AssertionError("indexed configuration changed answers on: "
                             + ", ".join(diverged))
    return {
        "workloads": {
            row.name: {
                "faithful_steps": row.faithful_steps,
                "indexed_steps": row.indexed_steps,
                "step_speedup": round(row.step_speedup, 3),
                "choicepoints_avoided": row.choicepoints_avoided,
            } for row in rows
        },
        "geomean_step_speedup": round(
            geomean([row.step_speedup for row in rows]), 3),
        "geomean_time_speedup": round(
            geomean([row.time_speedup for row in rows]), 3),
    }


def bench_debug_replay(workload_name: str = "nreverse",
                       seeks: int = 32) -> dict:
    """Checkpointed seek vs cold replay, over one recorded trace.

    Seeks to ``seeks`` microsteps spread across the trace.  A warm
    seek restores the nearest checkpoint and replays at most one
    stride; a cold seek replays from microstep 0 every time.  The
    ratio is the payoff of the checkpoint structure — it should grow
    with trace length (cold is O(n) per seek, warm is O(stride)).
    """
    from repro.eval.runner import run_spec
    from repro.obs.timetravel import TraceExplorer

    run = run_spec(workload_name, "faithful", record_trace=True)

    t0 = time.perf_counter()
    explorer = TraceExplorer(run.trace)
    build_s = time.perf_counter() - t0

    n = explorer.n_steps
    targets = sorted({(i * n) // seeks for i in range(1, seeks + 1)})

    t0 = time.perf_counter()
    for step in targets:
        explorer.state_at(step)
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for step in targets:
        explorer.cold_state_at(step)
    cold_s = time.perf_counter() - t0

    return {
        "workload": workload_name,
        "trace_entries": n,
        "stride": explorer.stride,
        "checkpoints": len(explorer.checkpoint_steps),
        "seeks": len(targets),
        "build_s": round(build_s, 3),
        "warm_seek_s": round(warm_s, 3),
        "cold_seek_s": round(cold_s, 3),
        "speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="process count for the parallel stage (default 4)")
    parser.add_argument("--replay-only", action="store_true",
                        help="skip the (slow) psi-eval all stage")
    parser.add_argument("--throughput-only", action="store_true",
                        help="run only the steps/s stage and its floor "
                             "check — the CI perf-smoke mode; does not "
                             "rewrite the snapshot file")
    parser.add_argument("--output", default=str(REPO / "BENCH_eval.json"),
                        help="where to write the results JSON")
    parser.add_argument("--max-regress", type=float, default=2.0, metavar="PCT",
                        help="fail if serial_cold_s regressed more than this "
                             "percent vs the previous results file (default 2)")
    parser.add_argument("--min-fused-speedup", type=float, default=1.1,
                        metavar="X",
                        help="fail if the fused dispatch runs less than this "
                             "many times faster than the per-op loop "
                             "(default 1.1)")
    parser.add_argument("--min-indexed-speedup", type=float, default=1.15,
                        metavar="X",
                        help="fail if the clause-indexed configuration's "
                             "geomean modelled-step speedup over the "
                             "faithful one, on the backtracking-heavy "
                             "workload subset, falls below this floor "
                             "(default 1.15)")
    parser.add_argument("--max-obs-overhead", type=float, default=30.0,
                        metavar="PCT",
                        help="fail if the obs-enabled interpreter overhead "
                             "exceeds this percent of the disabled run "
                             "(default 30) — the enabled-cost budget beside "
                             "the disabled path's regression gate")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append the results to the run-history "
                             "store (results/history/)")
    args = parser.parse_args(argv)

    previous = None
    previous_path = pathlib.Path(args.output)
    if previous_path.exists():
        try:
            previous = json.loads(previous_path.read_text())
        except (OSError, ValueError):
            previous = None

    results = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }

    failures = []

    print("throughput stage (interpreter steps/s, obs off vs on)...")
    results["throughput"] = bench_throughput()
    tp = results["throughput"]
    print(f"  disabled {tp['disabled_steps_per_sec']:,} steps/s  "
          f"enabled {tp['enabled_steps_per_sec']:,} steps/s  "
          f"({tp['steps']:,} steps, workload {tp['workload']})")
    prev_tp = ((previous or {}).get("throughput") or {}) \
        .get("disabled_steps_per_sec")
    if prev_tp:
        delta = 100.0 * (tp["disabled_steps_per_sec"] - prev_tp) / prev_tp
        tp["vs_previous_pct"] = round(delta, 1)
        print(f"  disabled steps/s vs previous: {delta:+.1f}% "
              f"({prev_tp:,} -> {tp['disabled_steps_per_sec']:,})")
        if delta < -args.max_regress:
            failures.append(
                f"disabled throughput dropped {delta:+.1f}% below the "
                f"recorded floor (limit -{args.max_regress}%) — the "
                f"emission hot path slowed down")

    print("fused dispatch stage (superinstructions on vs off)...")
    results["fused_vs_unfused"] = bench_fused()
    fv = results["fused_vs_unfused"]
    print(f"  fused {fv['fused_s']}s  unfused {fv['unfused_s']}s  "
          f"speedup {fv['speedup']}x  ({fv['steps']:,} steps, "
          f"workload {fv['workload']})")
    if fv["speedup"] < args.min_fused_speedup:
        failures.append(
            f"fused dispatch speedup {fv['speedup']}x fell below the "
            f"floor ({args.min_fused_speedup}x) — the superinstruction "
            f"hot path eroded")

    print("indexed_vs_faithful stage (clause-indexed PSI configuration)...")
    results["indexed_vs_faithful"] = bench_indexed()
    iv = results["indexed_vs_faithful"]
    print(f"  geomean step speedup {iv['geomean_step_speedup']}x  "
          f"modelled-time {iv['geomean_time_speedup']}x  "
          f"({len(iv['workloads'])} backtracking-heavy workloads)")
    if iv["geomean_step_speedup"] < args.min_indexed_speedup:
        failures.append(
            f"indexed-vs-faithful geomean step speedup "
            f"{iv['geomean_step_speedup']}x fell below the floor "
            f"({args.min_indexed_speedup}x) — clause selection stopped "
            f"narrowing the scan")

    if args.throughput_only:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    print("replay stage (Figure 1 + ablations, 15 configurations)...")
    results["replay"] = bench_replay()
    print(f"  per-config {results['replay']['per_config_s']}s  "
          f"single-pass {results['replay']['single_pass_s']}s  "
          f"speedup {results['replay']['speedup']}x")

    print("debug_replay stage (checkpointed seek vs cold replay)...")
    results["debug_replay"] = bench_debug_replay()
    dr = results["debug_replay"]
    print(f"  build {dr['build_s']}s  warm seeks {dr['warm_seek_s']}s  "
          f"cold seeks {dr['cold_seek_s']}s  speedup {dr['speedup']}x  "
          f"({dr['trace_entries']:,} entries, stride {dr['stride']}, "
          f"{dr['seeks']} seeks)")

    print("obs stage (observability disabled vs enabled)...")
    results["obs"] = bench_obs()
    print(f"  disabled {results['obs']['disabled_s']}s  "
          f"enabled {results['obs']['enabled_s']}s  "
          f"(enabled overhead {results['obs']['enabled_overhead_pct']}%)")

    overhead = results["obs"]["enabled_overhead_pct"]
    if overhead > args.max_obs_overhead:
        failures.append(f"obs enabled overhead {overhead:+.1f}% exceeds the "
                        f"budget ({args.max_obs_overhead}%)")
    if not args.replay_only:
        print(f"psi-eval all (serial / --jobs {args.jobs} cold / warm)...")
        results["eval_all"] = bench_eval_all(args.jobs)
        ea = results["eval_all"]
        print(f"  serial cold {ea['serial_cold_s']}s  "
              f"jobs cold {ea['jobs_cold_s']}s  "
              f"jobs warm {ea['jobs_warm_s']}s  "
              f"(warm speedup {ea['speedup_jobs_warm']}x)")
        prev_cold = ((previous or {}).get("eval_all") or {}).get("serial_cold_s")
        if prev_cold:
            delta = 100.0 * (ea["serial_cold_s"] - prev_cold) / prev_cold
            ea["vs_previous_serial_cold_pct"] = round(delta, 1)
            print(f"  serial cold vs previous: {delta:+.1f}% "
                  f"({prev_cold}s -> {ea['serial_cold_s']}s)")
            if delta > args.max_regress:
                failures.append(
                    f"serial_cold_s regressed {delta:+.1f}% "
                    f"(limit {args.max_regress}%) — the disabled "
                    f"observability path must stay free")

        print("spec_cache stage (psi-eval indexed --all, cold vs warm)...")
        results["spec_cache"] = bench_spec_cache()
        sc = results["spec_cache"]
        print(f"  cold {sc['cold_s']}s  warm {sc['warm_s']}s  "
              f"speedup {sc['speedup']}x")

    # The "serve" stage is owned by scripts/load_gen.py, which merges
    # into this file; carry it over so a bench rerun doesn't clobber it.
    if previous and "serve" in previous:
        results["serve"] = previous["serve"]

    output = pathlib.Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}")

    if not args.no_history:
        # BENCH_eval.json stays the latest-snapshot view; the history
        # store keeps the trend (`psi-eval history show`).
        from repro.eval.history import HistoryStore
        store = HistoryStore()
        store.append("bench", {"bench": {
            key: results[key]
            for key in ("throughput", "fused_vs_unfused",
                        "indexed_vs_faithful", "replay",
                        "debug_replay", "obs", "eval_all", "spec_cache")
            if key in results}})
        print(f"appended bench entry to {store.path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
