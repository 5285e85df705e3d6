"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest perfbench/tests -q

Checks that request lists are pure functions of the seed, that two
traced runs with the same seed give identical exact counters, that the
report splitter reproduces ``results/eval_report.txt``, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

#: Per-layer counts that must repeat bit-for-bit for a given seed.
EXACT = ("consult.clauses", "interp.msteps", "trace.entries",
         "cache.accesses", "cache.hit_ratio", "pmms.configs",
         "pmms.entry_configs", "wam.instructions", "run_cache.hits",
         "run_cache.misses", "runner.memory_hits", "runner.trace_upgrades",
         "obs.events")


def _context(tmp_path):
    return workloads.Context(ROOT, tmp_path, harness.Clock(),
                             harness.Tracer(enabled=False))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_request_list_is_a_pure_function_of_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name](_context(tmp_path))
    first = workload.requests(7, 12)
    assert first == workload.requests(7, 12)
    other = workload.requests(8, 12)
    assert other != first
    # Another seed permutes the same work (a warm-regen request is itself
    # an artifact order).
    if name == "warm-regen":
        first = [tuple(sorted(order)) for order in first]
        other = [tuple(sorted(order)) for order in other]
    assert sorted(other) == sorted(first)


def test_request_list_scales_with_seconds(tmp_path):
    workload = workloads.ColdSolve(_context(tmp_path))
    assert len(workload.requests(1, 24)) == 2 * len(workload.requests(1, 12))


def _traced(capsys, workload: str, seed: int) -> dict:
    assert bench_run.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("name, programs", [
    ("cold-solve", {"lcp-1": 1, "bup-2": 2}),
    ("profile-obs", {"lcp-1": 1, "bup-1": 2}),
])
def test_exact_counters_repeat_for_one_seed(name, programs, capsys,
                                            monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS[name], "PROGRAMS", programs)
    first = _traced(capsys, name, 5)
    second = _traced(capsys, name, 5)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    for metric in EXACT:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["interp.msteps"]["value"] > 0
    assert first["metrics"]["cache.accesses"]["value"] > 0


def test_report_sections_reassemble_the_report():
    path = ROOT / "results" / "eval_report.txt"
    sections = workloads.report_sections(path)
    assert set(harness.ARTIFACTS) < set(sections)
    assert "".join(sections.values()) == path.read_text()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out",
                                                  "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert "correct" not in result.stdout
