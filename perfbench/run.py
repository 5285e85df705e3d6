"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the request list once untraced and once
traced, then prints the per-layer ledger and writes every span to
``perfbench/.out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import statistics
import sys
import time

import harness
from workloads import WORKLOADS, Context, probe

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(valid: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["PSI_CACHE_DIR"] = str(workdir / "unused-cache")
    clock = harness.Clock()
    tracer = harness.Tracer(enabled=bool(args.trace))
    ctx = Context(ROOT, workdir, clock, tracer)
    workload = WORKLOADS[args.workload](ctx)
    try:
        result = run(args, workload, ctx)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print("host: " + json.dumps(clock.fingerprint()))
    harness.emit(result)
    return 0


def run(args, workload, ctx) -> dict:
    clock, tracer = ctx.clock, ctx.tracer
    requests = workload.requests(args.seed, args.seconds)

    setup_s = []
    with harness.instrument(tracer) if tracer.enabled else \
            contextlib.nullcontext():
        for _ in range(workload.setups):
            before = clock.calibrate(3)
            start = time.perf_counter()
            workload.setup()
            raw = time.perf_counter() - start
            setup_s.append(clock.scale(raw, before, clock.calibrate(3)))

    traced = tracer.enabled
    tracer.enabled = False
    measured = workload.run_pass(requests, 0)
    failed = measured.failed
    attempted = len(requests)
    rss = workload.peak_rss_mb()

    if not traced:
        failed += len(workload.check())
        latencies = measured.latencies
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "wall_s": _metric(measured.wall, "s"),
            "req_per_s": _metric(attempted / measured.wall, "1/s"),
            "p50_ms": _metric(harness.percentile(latencies, 50) * 1e3, "ms"),
            "p90_ms": _metric(harness.percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
        print(f"raw: wall_s {measured.raw_wall:.4f}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    # Traced run: the same request list again, with every layer wrapped.
    tracer.discard_cache_events()
    tracer.enabled = True
    with harness.instrument(tracer):
        tracer.set_phase("request")
        traced_pass = workload.run_pass(requests, len(requests))
        tracer.set_phase("check")
        failed += traced_pass.failed + len(workload.check())
        attempted += len(requests)
        for name in harness.missing_probes(tracer):
            tracer.set_phase(f"probe:{name}")
            probe(name, ctx)
        metrics = per_layer(tracer, clock, measured, traced_pass, workload)
    out = harness.HERE / ".out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed,
                       "host": clock.fingerprint(),
                       "metrics": metrics})
    print(f"spans: {out}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def per_layer(tracer, clock, measured, traced, workload) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from the traced run."""
    f = clock.factor
    m = {}

    def phases(layer):
        return harness.layer_group(tracer, layer)

    def ledger(layer):
        group = phases(layer)
        return harness.ledger(tracer, "main" if group == harness.OWN
                              else group[0])

    def self_s(layer):
        return harness.self_time(tracer, layer, phases(layer))

    def durations(layer):
        return harness.inclusive(tracer, layer, phases(layer))

    def counts(layer, of):
        return harness.counts(tracer, layer, phases(of))

    consult = counts("consult", "consult.psi")
    m["consult.psi_ms"] = _metric(self_s("consult.psi") * f * 1e3, "ms")
    m["consult.wam_ms"] = _metric(self_s("consult.wam") * f * 1e3, "ms")
    m["consult.clauses"] = _metric(consult["clauses"], "count")

    trace_s = ledger("trace")["trace_s"]
    interp = counts("interp", "interp")
    busy = max(self_s("interp") - trace_s, 0.0) * f
    m["interp.busy_s"] = _metric(busy, "s")
    m["interp.msteps"] = _metric(interp["steps"] / 1e6, "Mstep")
    m["interp.msteps_per_s"] = _metric(
        interp["steps"] / 1e6 / busy if busy else 0.0, "Mstep/s")

    trace = counts("trace", "trace")
    m["trace.busy_s"] = _metric(trace_s * f, "s")
    m["trace.entries"] = _metric(trace["entries"], "count")
    m["trace.mb"] = _metric(trace["bytes"] / 1e6, "MB")

    cache = counts("cache", "cache")
    m["cache.replay_s"] = _metric(self_s("cache") * f, "s")
    m["cache.accesses"] = _metric(cache["accesses"], "count")
    m["cache.hit_ratio"] = _metric(
        100.0 * cache["hits"] / cache["accesses"] if cache["accesses"]
        else 0.0, "%")

    pmms = counts("pmms", "pmms")
    pmms_s = self_s("pmms") * f
    m["pmms.busy_s"] = _metric(pmms_s, "s")
    m["pmms.configs"] = _metric(pmms["configs"], "count")
    m["pmms.entry_configs"] = _metric(pmms["entry_configs"], "count")
    m["pmms.mentries_per_s"] = _metric(
        pmms["entry_configs"] / 1e6 / pmms_s if pmms_s else 0.0, "M/s")

    wam = counts("wam", "wam")
    wam_s = self_s("wam") * f
    m["wam.busy_s"] = _metric(wam_s, "s")
    m["wam.instructions"] = _metric(wam["instructions"], "count")
    m["wam.minstr_per_s"] = _metric(
        wam["instructions"] / 1e6 / wam_s if wam_s else 0.0, "M/s")

    run_cache = counts("run_cache", "run_cache.load")
    m["run_cache.load_s"] = _metric(self_s("run_cache.load") * f, "s")
    m["run_cache.store_s"] = _metric(self_s("run_cache.store") * f, "s")
    m["run_cache.hits"] = _metric(run_cache["hits"], "count")
    m["run_cache.misses"] = _metric(run_cache["misses"], "count")
    m["run_cache.lock_waits"] = _metric(run_cache["lock_waits"], "count")
    m["run_cache.mb_read"] = _metric(run_cache["bytes_read"] / 1e6, "MB")
    m["run_cache.disk_mb"] = _metric(run_cache["disk_bytes"] / 1e6, "MB")

    runner = harness.counts(tracer, "runner", harness.OWN)
    m["runner.memory_hits"] = _metric(runner["memory_hits"], "count")
    m["runner.trace_upgrades"] = _metric(runner["trace_upgrades"], "count")

    for name in harness.ARTIFACTS:
        layer = f"regen.{name}"
        m[f"{layer}_s"] = _metric(sum(durations(layer)) * f, "s")

    serve = counts("serve", "serve.replay")
    solve_rtt = durations("serve.solve")
    replay_rtt = durations("serve.replay")
    server_ms = (serve["server_ms_sum"] / serve["server_ms_count"]
                 if serve["server_ms_count"] else 0.0)
    rtt_ms = 1e3 * sum(solve_rtt + replay_rtt) / max(
        1, len(solve_rtt + replay_rtt))
    m["serve.solve_rtt_ms"] = _metric(
        1e3 * f * sum(solve_rtt) / max(1, len(solve_rtt)), "ms")
    m["serve.replay_rtt_ms"] = _metric(
        1e3 * f * sum(replay_rtt) / max(1, len(replay_rtt)), "ms")
    m["serve.server_ms"] = _metric(server_ms * f, "ms")
    m["serve.transport_ms"] = _metric((rtt_ms - server_ms) * f, "ms")
    m["serve.configs_requested"] = _metric(serve["configs_requested"],
                                           "count")
    m["serve.configs_simulated"] = _metric(serve["configs_simulated"],
                                           "count")
    m["serve.dedup_ratio"] = _metric(
        serve["configs_requested"] / serve["configs_simulated"]
        if serve["configs_simulated"] else 1.0, "ratio")
    m["serve.same_program_share"] = _metric(
        same_program_share(getattr(workload, "replies", [])), "ratio")

    obs = counts("obs", "obs.collect")
    obs_ledger = ledger("obs.collect")
    m["obs.collect_s"] = _metric(sum(durations("obs.collect")) * f, "s")
    m["obs.overhead_pct"] = _metric(
        100.0 * (obs_ledger["obs_s"] - obs_ledger["plain_s"])
        / obs_ledger["plain_s"] if obs_ledger["plain_s"] else 0.0, "%")
    m["obs.events"] = _metric(obs["events"], "count")
    m["obs.export_s"] = _metric(self_s("obs.export") * f, "s")
    m["obs.export_mb"] = _metric(
        counts("obs", "obs.export")["export_bytes"] / 1e6, "MB")

    m["host.calib_ms"] = _metric(clock.median_ms, "ms")
    m["host.raw_wall_s"] = _metric(measured.raw_wall, "s")
    m["host.cpus"] = _metric(os.cpu_count(), "count")
    m["bench.unaccounted_pct"] = _metric(harness.unaccounted_pct(tracer), "%")
    m["bench.trace_overhead_pct"] = _metric(
        100.0 * (traced.wall - measured.wall) / measured.wall, "%")
    return m


def same_program_share(records) -> float:
    """Share of replays whose interval overlaps another replay of the
    same program (the traffic a replay batcher could coalesce)."""
    replays = [(request[1], began, ended) for request, _, began, ended
               in records if request[0] == "replay"]
    if not replays:
        return 0.0
    overlapping = sum(
        any(other is not mine and other[0] == mine[0]
            and other[1] < mine[2] and mine[1] < other[2]
            for other in replays)
        for mine in replays)
    return overlapping / len(replays)


if __name__ == "__main__":
    sys.exit(main())
