"""The benchmark's four workloads.

Every workload is a closed loop: a client sends its next request only
after the previous one (per connection) has completed.  The request
list is a pure function of ``(seed, seconds)``: a fixed multiset of
requests, sized from ``seconds`` at the reference host's speed, in a
seeded order.  Different seeds therefore permute the same work, which
keeps the totals comparable across seeds.

The benchmark only calls public entry points:
``run_spec(name, "faithful" | "baseline")``, the table/figure
``generate``/``render`` pairs, ``repro.eval.cli.main`` and the serve
protocol's ``solve`` (with its ``spec`` field) and ``replay`` ops.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from harness import ARTIFACTS, peak_rss_mb, tree_peak_rss_mb

#: The program every probe uses: small (25k microsteps), shared by both
#: engines, and one of the programs the ablations replay.
PROBE_PROGRAM = "bup-2"


class RequestFailed(Exception):
    """A request whose output check failed."""


def _answers(run) -> list[str]:
    return sorted(repr(answer) for answer in run.answers)


class Context:
    """What every workload gets: paths, the clock and the tracer."""

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path,
                 clock, tracer) -> None:
        self.root = root
        self.src = root / "src"
        self.workdir = workdir
        self.clock = clock
        self.tracer = tracer

    def fresh_dir(self, name: str) -> pathlib.Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def child_env(self, **extra) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.src), **extra)


class Workload:
    """Base class: sequential closed loop, one request at a time."""

    name = ""
    #: How many times set-up runs in one benchmark run (median reported).
    setups = 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def requests(self, seed: int, seconds: float) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def steps(self, request) -> list:
        """The request as a list of calls, timed and calibrated one by
        one (a long request is split so the kernel can run in between).
        A call raises on a wrong or failed result."""
        raise NotImplementedError

    def check(self) -> set[int]:
        """Output checks too costly to make per request; returns the
        indices (into this run's request records) that failed."""
        return set()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        """Stop anything :meth:`setup` started."""

    def run_pass(self, requests: list, offset: int) -> "Pass":
        """Run every request once, the calibration kernel between them."""
        clock, tracer = self.ctx.clock, self.ctx.tracer
        result = Pass()
        before = clock.calibrate()
        for i, request in enumerate(requests):
            raw_total = scaled = 0.0
            for step in self.steps(request):
                began = time.perf_counter()
                try:
                    with tracer.span("request", request=str(offset + i)):
                        step()
                    ok = True
                except Exception as exc:        # counted, reported, survived
                    print(f"request {offset + i} {request!r} failed: "
                          f"{exc!r}", file=sys.stderr)
                    ok = False
                raw = time.perf_counter() - began
                after = clock.calibrate()
                raw_total += raw
                scaled += clock.scale(raw, before, after)
                before = after
                if not ok:
                    result.failed += 1
                    break
            result.add(raw_total, scaled)
        return result


class Pass:
    """Timings of one pass over the request list.

    ``latencies`` are reference-host seconds; ``wall`` is their sum for
    a sequential pass, or the sum of calibrated chunk times for a
    concurrent one; ``raw_wall`` is the same without calibration.  No
    figure includes the calibration kernel's own time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall = 0.0
        self.raw_wall = 0.0
        self.failed = 0

    def add(self, raw: float, scaled: float) -> None:
        self.latencies.append(scaled)
        self.wall += scaled
        self.raw_wall += raw


def _weighted(table: dict[str, int], rounds: int, seed: int) -> list[str]:
    names = [name for name, reps in table.items() for _ in range(reps)]
    names *= rounds
    random.Random(seed).shuffle(names)
    return names


def _rounds(seconds: float, base_s: float) -> int:
    return max(1, round(seconds / base_s))


def _setup_subprocess(ctx: Context, code: str) -> None:
    """Time-to-ready of a fresh interpreter: import plus first request."""
    subprocess.run([sys.executable, "-c", code], cwd=ctx.workdir,
                   env=ctx.child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


# -- cold-solve ---------------------------------------------------------------

class ColdSolve(Workload):
    """Each request runs one program on both engines with every cache
    tier off (disk cache disabled, per-process memo cleared) and checks
    that the PSI and WAM answer multisets agree.  Repetition is
    weighted so small programs recur.  A request's two runs are one
    request so that the median falls on requests of 50 ms or more."""

    name = "cold-solve"
    #: program -> repetitions per round (about 3.8 s per round on the
    #: reference host).  The two largest programs fill the top 10%, so
    #: ``p90_ms`` falls inside a cluster of similar requests.
    PROGRAMS = {
        "lcp-1": 1, "lcp-2": 1, "lcp-3": 1, "bup-2": 1,
        "bup-1": 3, "slow-reverse": 3, "qsort": 3, "nreverse": 3,
        "tree": 3, "bup-3": 3, "reverse-function": 3,
        "queens-one": 3, "lcp-eval": 3,
    }
    ROUND_S = 3.8

    def requests(self, seed, seconds):
        return _weighted(self.PROGRAMS, _rounds(seconds, self.ROUND_S), seed)

    def setup(self):
        from repro.eval import runner

        _setup_subprocess(self.ctx, (
            "from repro.eval import runner\n"
            "runner.set_disk_cache(False)\n"
            "runner.run_spec('lcp-1', 'faithful')\n"
            "runner.run_spec('lcp-1', 'baseline')\n"))
        runner.set_disk_cache(False)
        for step in self.steps("lcp-1"):
            step()

    def steps(self, name):
        from repro.eval import runner

        runs = []

        def faithful():
            runner.clear_cache()
            runs.append(runner.run_spec(name, "faithful"))

        def baseline():
            if _answers(runs[0]) != _answers(runner.run_spec(name,
                                                             "baseline")):
                raise RequestFailed(f"{name}: PSI and WAM answers differ")

        return [faithful, baseline]


# -- warm-regen ---------------------------------------------------------------

def _artifacts() -> dict:
    """Artifact name -> its ``repro.eval`` module (``generate``/``render``)."""
    import importlib

    return {name: importlib.import_module(f"repro.eval.{name}")
            for name in ARTIFACTS}


def report_sections(path: pathlib.Path) -> dict[str, str]:
    """Split ``results/eval_report.txt`` into its ``== name ==`` sections,
    each exactly as the report generator wrote it (header, body, blank
    line)."""
    text = path.read_text()
    starts = [m.start() for m in re.finditer(r"^== \S+ ==$", text, re.M)]
    sections = {}
    for begin, end in zip(starts, starts[1:] + [len(text)]):
        chunk = text[begin:end]
        sections[chunk[3:chunk.index(" ==")]] = chunk
    return sections


class WarmRegen(Workload):
    """Set-up fills a fresh run-cache directory with the faithful runs
    the artifacts read (ROADMAP's "populating" state).  Each request is
    one regeneration pass over the eight artifacts on a fresh memo, and
    each artifact's section must equal ``results/eval_report.txt``."""

    name = "warm-regen"
    setups = 2
    PASS_S = 4.2

    def __init__(self, ctx):
        super().__init__(ctx)
        self.expected = report_sections(ctx.root / "results" /
                                        "eval_report.txt")

    @staticmethod
    def programs() -> list[str]:
        from repro.workloads import hardware_eval_workloads

        return [w.name for w in hardware_eval_workloads()] + [PROBE_PROGRAM]

    def requests(self, seed, seconds):
        rng = random.Random(seed)
        passes = []
        for _ in range(max(2, round(seconds / self.PASS_S))):
            order = list(ARTIFACTS)
            rng.shuffle(order)
            passes.append(tuple(order))
        return passes

    def setup(self):
        from repro.eval import runner
        from repro.eval.run_cache import RunCache

        cache_dir = self.ctx.fresh_dir("run-cache")
        os.environ["PSI_CACHE_DIR"] = str(cache_dir)
        runner.set_disk_cache(True)
        runner.clear_cache()
        for name in self.programs():
            runner.run_spec(name, "faithful")
        runner.clear_cache()
        self.ctx.tracer.count("run_cache", "disk_bytes",
                              RunCache().size_bytes())

    def steps(self, order):
        return [functools.partial(self._regenerate, name, first=i == 0)
                for i, name in enumerate(order)]

    def _regenerate(self, name: str, first: bool) -> None:
        from repro.eval import runner

        if first:
            runner.clear_cache()
        module = _artifacts()[name]
        with self.ctx.tracer.span(f"regen.{name}"):
            text = module.render(module.generate())
        if f"== {name} ==\n{text}\n\n" != self.expected.get(name):
            raise RequestFailed(f"{name} differs from the report")


# -- serve-replay -------------------------------------------------------------

def _replay_configs() -> list[dict]:
    """Figure 1's 11 capacities, then the 4 ablation configurations."""
    from repro.tools.pmms import FIGURE1_CAPACITIES

    configs = [{"capacity_words": c, "ways": min(2, max(1, c // 4))}
               for c in FIGURE1_CAPACITIES]
    configs += [{"capacity_words": 8192, "ways": 2},
                {"capacity_words": 4096, "ways": 1},
                {"policy": "store-in"}, {"policy": "store-through"}]
    return configs


class Server:
    """One ``psi-eval serve`` subprocess."""

    def __init__(self, ctx: Context, cache_dir: pathlib.Path,
                 workers: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval.cli", "serve",
             "--port", "0", "--workers", str(workers)],
            cwd=ctx.workdir, env=ctx.child_env(PSI_CACHE_DIR=str(cache_dir)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on [^:\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(port=self.port, timeout=120).connect()

    def stop(self) -> None:
        """Drain gracefully; kill if the server does not exit in time."""
        if self.proc.poll() is None:
            with contextlib.suppress(Exception):
                with self.client() as client:
                    client.request("drain")
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


class ServeReplay(Workload):
    """A ``psi-eval serve`` server on a populated cache directory, driven
    by two connections from one client process.  75% of requests are
    PMMS replays of 1-3 configurations (Figure 1 capacities and the
    ablation configurations), the rest are solves under ``faithful`` and
    ``baseline``.  Both connections pause together every ``CHUNK``
    requests while the calibration kernel runs."""

    name = "serve-replay"
    setups = 2
    #: Programs of 24k-190k trace entries: replaying one configuration
    #: takes 9-70 ms on the reference host, so 12 s hold 336 requests.
    PROGRAMS = ("lcp-eval", "queens-one", "bup-3", "reverse-function",
                "tree", "nreverse", "qsort")
    #: Per program and block: two replays each of 1, 2 and 3
    #: configurations and one solve under each spec (about 2 s per block).
    BLOCK_S = 2.0
    CHUNK = 20

    def __init__(self, ctx):
        super().__init__(ctx)
        self.server: Server | None = None
        self.replies: list = []
        self.workers = min(2, os.cpu_count() or 1)
        self.entries: dict[str, int] = {}
        self._clients: list = []
        self._pool: ThreadPoolExecutor | None = None

    def requests(self, seed, seconds):
        """Configurations are taken in rotation, so every seed gets the
        same work; the seed orders the requests."""
        configs = [json.dumps(c) for c in _replay_configs()]
        requests = []
        turn = 0
        for _ in range(_rounds(seconds, self.BLOCK_S)):
            for name in self.PROGRAMS:
                for n in (1, 2, 3, 1, 2, 3):
                    picked = [configs[(turn + k) % len(configs)]
                              for k in range(n)]
                    turn += n
                    requests.append(("replay", name, tuple(picked)))
                requests.append(("solve", name, "faithful"))
                requests.append(("solve", name, "baseline"))
        random.Random(seed).shuffle(requests)
        return requests

    def setup(self):
        from repro.eval import runner

        self.close()
        cache_dir = self.ctx.fresh_dir("run-cache")
        os.environ["PSI_CACHE_DIR"] = str(cache_dir)
        runner.set_disk_cache(True)
        runner.clear_cache()
        self.entries = {name: len(runner.run_spec(name, "faithful").trace)
                        for name in self.PROGRAMS}
        self.server = Server(self.ctx, cache_dir, self.workers)
        self._clients = [self.server.client() for _ in range(2)]
        for client in self._clients:
            client.request("ping")
        self._pool = ThreadPoolExecutor(2)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for client in self._clients:
            client.close()
        self._clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self):
        return tree_peak_rss_mb(self.server.proc.pid)

    def _send(self, client, request, rid):
        kind, name, detail = request
        began = time.perf_counter()
        with self.ctx.tracer.span("request", request=rid):
            with self.ctx.tracer.span(f"serve.{kind}"):
                if kind == "replay":
                    result = client.request(
                        "replay", workload=name, spec="faithful",
                        configs=[json.loads(c) for c in detail])
                else:
                    result = client.request("solve", workload=name,
                                            spec=detail)
        self.replies.append((request, result, began, time.perf_counter()))

    def _run_half(self, client, half):
        out = []
        for rid, request in half:
            began = time.perf_counter()
            try:
                self._send(client, request, rid)
                ok = True
            except Exception as exc:            # counted, reported, survived
                print(f"request {rid} {request!r} failed: {exc!r}",
                      file=sys.stderr)
                ok = False
            out.append((time.perf_counter() - began, ok))
        return out

    def run_pass(self, requests, offset):
        clock, tracer = self.ctx.clock, self.ctx.tracer
        before_metrics = self._server_metrics() if tracer.enabled else None
        result = Pass()
        indexed = [(str(offset + i), r) for i, r in enumerate(requests)]
        before = clock.calibrate()
        for at in range(0, len(indexed), self.CHUNK):
            began = time.perf_counter()
            halves = [self._pool.submit(self._run_half, client, half)
                      for client, half in zip(
                          self._clients,
                          self._balanced(indexed[at:at + self.CHUNK]))]
            outcomes = [outcome for half in halves
                        for outcome in half.result()]
            raw = time.perf_counter() - began
            after = clock.calibrate()
            for latency, ok in outcomes:
                result.latencies.append(clock.scale(latency, before, after))
                result.failed += not ok
            result.wall += clock.scale(raw, before, after)
            result.raw_wall += raw
            before = after
        if tracer.enabled:
            record_server_metrics(tracer, before_metrics,
                                  self._server_metrics())
        return result

    def _balanced(self, chunk) -> list[list]:
        """Split a chunk between the two connections, in order, so each
        gets about the same replay work (trace entries x configurations).
        Both wait for each other at the chunk's end; an uneven split
        would add that wait to the measured time."""
        halves, loads = [[], []], [0, 0]
        for rid, (kind, name, detail) in chunk:
            k = loads.index(min(loads))
            halves[k].append((rid, (kind, name, detail)))
            loads[k] += self.entries[name] * (len(detail)
                                              if kind == "replay" else 0.1)
        return halves

    def check(self):
        """Every replayed (program, config) against an in-process
        ``simulate_many``; every solve against in-process answers."""
        from repro.eval.runner import run_spec
        from repro.serve.protocol import (cache_config_from_json,
                                          cache_stats_to_json)
        from repro.tools.pmms import simulate_many

        wanted: dict[str, dict[str, None]] = {}
        for (kind, name, detail), _, _, _ in self.replies:
            if kind == "replay":
                wanted.setdefault(name, {}).update(dict.fromkeys(detail))
        truth = {}
        for name, configs in wanted.items():
            run = run_spec(name, "faithful")
            stats = simulate_many(run.trace, [cache_config_from_json(
                json.loads(c)) for c in configs])
            for config, stat in zip(configs, stats):
                truth[name, config] = json.loads(json.dumps(
                    cache_stats_to_json(stat)))
        answers = {}
        for name in self.PROGRAMS:
            psi, wam = run_spec(name, "faithful"), run_spec(name, "baseline")
            expected = [list(map(list, a)) for a in psi.answers]
            answers[name] = json.loads(json.dumps(expected))
            if _answers(psi) != _answers(wam):
                answers[name] = None
        bad = set()
        for i, ((kind, name, detail), result, _, _) in enumerate(self.replies):
            if kind == "replay":
                ok = all(truth[name, config] == got for config, got
                         in zip(detail, result["stats"]))
                ok = ok and len(result["stats"]) == len(detail)
            else:
                ok = (result["succeeded"] and answers[name] is not None
                      and sorted(map(repr, result["answers"]))
                      == sorted(map(repr, answers[name])))
            if not ok:
                bad.add(i)
        return bad

    def _server_metrics(self) -> dict:
        with self.server.client() as client:
            return client.request("metrics")["server"]


# -- profile-obs --------------------------------------------------------------

class ProfileObs(Workload):
    """Each request is ``psi-eval profile P --out DIR`` in process,
    through ``repro.eval.cli.main``.  Programs of up to 480k microsteps,
    weighted so small ones recur (longer profiles are calibrated only at
    their ends); the profile's microstep total must equal the faithful
    run's ``steps``."""

    name = "profile-obs"
    PROGRAMS = {
        "lcp-1": 1, "lcp-2": 1, "lcp-3": 1, "bup-1": 1, "bup-2": 1,
        "slow-reverse": 4, "qsort": 4, "nreverse": 4, "tree": 4,
        "bup-3": 4, "reverse-function": 4, "queens-one": 1,
    }
    ROUND_S = 5.8

    def __init__(self, ctx):
        super().__init__(ctx)
        self.records: list[tuple[str, int]] = []
        self.out = ctx.workdir / "profile"

    def requests(self, seed, seconds):
        return _weighted(self.PROGRAMS, _rounds(seconds, self.ROUND_S), seed)

    def setup(self):
        from repro.eval import runner

        out = self.ctx.fresh_dir("profile-setup")
        _setup_subprocess(self.ctx, (
            "from repro.eval import cli\n"
            f"cli.main(['profile', 'lcp-1', '--out', {str(out)!r}])\n"))
        runner.set_disk_cache(False)
        profile("lcp-1", out, self.ctx.tracer)

    def steps(self, name):
        return [lambda: self.records.append(
            (name, profile(name, self.out, self.ctx.tracer)))]

    def check(self):
        from repro.eval.runner import clear_cache, run_spec

        clear_cache()
        steps = {name: run_spec(name, "faithful").steps
                 for name in dict.fromkeys(n for n, _ in self.records)}
        return {i for i, (name, total) in enumerate(self.records)
                if total != steps[name]}


def profile(name: str, out: pathlib.Path, tracer) -> int:
    """Run ``psi-eval profile`` in process; return its microstep total."""
    from repro.eval import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(["profile", name, "--out", str(out)])
    match = re.search(r"^(\d+) microsteps,", buffer.getvalue(), re.M)
    if status != 0 or match is None:
        raise RequestFailed(f"profile {name} exited {status}")
    tracer.count("obs", "export_bytes", sum(
        f.stat().st_size for f in out.glob(f"{name}.*")))
    return int(match.group(1))


WORKLOADS = {w.name: w for w in (ColdSolve, WarmRegen, ServeReplay,
                                 ProfileObs)}


# -- probes -------------------------------------------------------------------

def probe(name: str, ctx: Context) -> None:
    """Run probe ``name`` (see ``harness.PROBE_OF``) on :data:`PROBE_PROGRAM`.

    A traced run reports every per-layer metric; a layer the workload
    never calls is timed here instead, so its row holds a real
    measurement rather than a zero.
    """
    from repro.eval import runner

    program = PROBE_PROGRAM
    disk = runner.disk_cache_enabled()
    runner.set_disk_cache(False)
    runner.clear_cache()
    try:
        if name == "psi":
            runner.run_spec(program, "faithful")
        elif name == "wam":
            runner.run_spec(program, "baseline")
        elif name == "pmms":
            from repro.memsys import CacheConfig
            from repro.tools import pmms

            pmms.simulate_many(runner.run_spec(program, "faithful").trace,
                               [CacheConfig()])
        elif name == "run_cache":
            from repro.eval.run_cache import RunCache

            cache = RunCache(ctx.fresh_dir("probe-cache"))
            run = runner.run_spec(program, "faithful")
            cache.store("probe", run.to_summary())
            cache.load("probe")
        elif name.startswith("regen."):
            _probe_regen(name[len("regen."):], ctx)
        elif name == "serve":
            _probe_serve(ctx)
        elif name == "obs":
            profile(program, ctx.fresh_dir("probe-profile"), ctx.tracer)
        else:
            raise ValueError(f"no probe named {name!r}")
    finally:
        runner.set_disk_cache(disk)


def _probe_regen(artifact: str, ctx: Context) -> None:
    """One artifact, on the probe program where it takes a program."""
    module = _artifacts()[artifact]
    if artifact in ("table2", "table3", "table4", "table5", "table7"):
        args = ({"bup": PROBE_PROGRAM},)
    elif artifact in ("table6", "figure1"):
        args = (PROBE_PROGRAM,)
    else:
        args = ()
    with ctx.tracer.span(f"regen.{artifact}"):
        module.render(module.generate(*args))


def _probe_serve(ctx: Context) -> None:
    server = Server(ctx, ctx.fresh_dir("probe-serve-cache"), 1)
    try:
        with server.client() as client:
            for spec in ("faithful", "baseline"):
                with ctx.tracer.span("serve.solve"):
                    client.request("solve", workload=PROBE_PROGRAM, spec=spec)
            with ctx.tracer.span("serve.replay"):
                client.request("replay", workload=PROBE_PROGRAM,
                               spec="faithful", configs=[{}])
            metrics = client.request("metrics")["server"]
        record_server_metrics(ctx.tracer, {}, metrics)
    finally:
        server.stop()


def record_server_metrics(tracer, before: dict, after: dict) -> None:
    """Count the server's replay and latency metrics between snapshots."""
    def value(snapshot, name, key="value"):
        return snapshot.get(name, {}).get(key, 0)

    for name, key in (("serve.replay.configs_requested", "configs_requested"),
                      ("serve.replay.configs_simulated", "configs_simulated")):
        tracer.count("serve", key, value(after, name) - value(before, name))
    for key in ("sum", "count"):
        tracer.count("serve", f"server_ms_{key}",
                     value(after, "serve.latency_ms", key)
                     - value(before, "serve.latency_ms", key))
