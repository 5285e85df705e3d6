"""Golden digests of an observed run's exact observability output.

An observed run bills through the same fused dispatch as a plain one
and attributes steps at predicate boundaries, so everything derived
from the exact microstep clock must stay bit-for-bit what the
reference implementation produced:

* the ``(predicate × module)`` profile (``profile.to_dict()``);
* the ``calls`` track (predicate slices) and the ``stacks`` track
  (stack reclaim counters), both stamped with the exact clock;
* every per-run metric except the two whose definition is windowed
  over the trace (``psi.trace.events`` and the
  ``psi.cache.window_hit_ratio`` histogram).

The ``micro`` and ``cache`` tracks are sampled data with a documented
definition (``docs/OBSERVABILITY.md``) and are not pinned here.
Regenerate with ``python -m tests.obs.test_obs_goldens`` only for a
deliberate modelling change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.obs.session import ObservedStatsCollector
from repro.tools.collect import collect
from repro.workloads import get
from repro.workloads.registry import all_workloads

#: Metrics whose content follows the trace-windowed definitions.
WINDOWED_METRICS = ("psi.trace.events", "psi.cache.window_hit_ratio")

GOLDEN = {
    "nreverse": {
        "total_steps": 87569,
        "profile_sha256": "e4b334ac0d3669691ac1148d5439186a4c9cb575900833510143dc7d25ced2db",
        "calls_sha256": "150d66d2074b17c8c1fdc0cdbcf5201ce097dc0fe932a3cf475a44447f61b5ec",
        "stacks_sha256": "4c7cbc1a75a4402459c33195d827f32f71e7e07856d7fa7bcf85d3ef0843bae6",
        "metrics_sha256": "d70509d7c8f97c0f8d03724e51dae393565df9928ea0db99f3341cd69a2d0fe7"
    },
    "qsort": {
        "total_steps": 87248,
        "profile_sha256": "fbf53c17de52f2a15f3f4c9d0c621544c24e82378409e167e13275fef5dcd6d7",
        "calls_sha256": "f22aeb1563c77a665348bb4098a22be7bf2bb5e49447c25a1fe097b745c67d75",
        "stacks_sha256": "1ac98f191f0211314802df815020d38b6066294cca36416913f5b477bf7508ca",
        "metrics_sha256": "f2232e47c48f295e4eccaa758103be500b38ea2f09425b011a72646c079195fc"
    },
    "queens-one": {
        "total_steps": 479686,
        "profile_sha256": "a98bb96bb926511ca1118bd6b57befe120c7d8cd40bab5c74acf3a91dc7e577f",
        "calls_sha256": "90dcab22d84ffbb1a4b00bb489278fba727356771a217e4ef375e068ca80abfe",
        "stacks_sha256": "0e9481a484cd474bebd07c4de042555241aed5b9b45114c431ca8894065ff400",
        "metrics_sha256": "eb2fa704bcebd2d5b83be81f294d3741385952dabd5f2927542225b404a5f71f"
    }
}

#: One combined digest per registered workload (the slow sweep).
REGISTRY_GOLDEN = {
    "bup-1": "380c8d29ed92365b6e4f8b6ee624dc4f05251376edc7fb312c9969c9c37bcd23",
    "bup-2": "c3bce11422a9bdede0adfdfd107a0f7e2c5c5fdf90b6e0eae20ea94489dba030",
    "bup-3": "6e1a9ebbf6eac6263a7c6599a5e453744a7059f58d100e819229c58ddde913dc",
    "bup-eval": "b0523cf37e60f2991473d986d6604b5445e80811f813e9724762bd0e4f1f76e1",
    "harmonizer-1": "35f0b79444aa7ca0b50a577dc283e3b9f3415a371e1ee6f003fedcaefd5aeafd",
    "harmonizer-2": "44ef76d4e7d499e41b62c394dddea134672bc32277406e9dd994e80835e4642a",
    "harmonizer-3": "316c42f5a41672b0df7ab4271138cea876493d06ea50753631005b7dd3a934d0",
    "lcp-1": "e928f980f1ab066cbe8b716ef4d2696a2febfdb0dcfeb38599195f5dd9177ea4",
    "lcp-2": "e596f51b9afeee3415186954424e2b65e06b66bacc00ac1419b1e10df4a149c7",
    "lcp-3": "39339fb12af692fbdd4d616befd51cbf2afbf81fd845f4ddfc12e95941e5f124",
    "lcp-eval": "37e7b3169103df9aa41875c572d1b7a97697deda4635610bf80644833d34a29a",
    "lisp-fib": "f144788831c245e7698c9562a1822616652127458302d7107e14e6731102345e",
    "lisp-nreverse": "d06484316fdf360788d4c878c35d8227ca9f048a3251ebdac8b28e3bb753efbd",
    "lisp-tarai": "a19e4ad8905914bb0487dfb9c8a81535e2bd854b3fb14d4cede7a90621c6b8d7",
    "nreverse": "901a491011e7de3f79fe629efea23b4c143f9643bbb1c3e7358893dd5e39ab64",
    "puzzle8": "72cd2fa208e533672c421a97fd05cc16d42841ee4075de6d4f429425354f23b7",
    "qsort": "34706f16db31000922820a7a620c49a8315b7f1126f40a5e138a2889e8e0a2f2",
    "queens-all": "f1f44734f7826a567cad838a8a6f8d69ed9b16fd2fcd8538d81a6791a02979d7",
    "queens-one": "7f63af0442eef7b24abb15573dd4d9d50083f9db2f2e4d9fe61cddb719b23914",
    "reverse-function": "a47d4fca57a77ef4385458c7ab697e5afa1e1827391bdc9a892a1ab7180fc0dd",
    "slow-reverse": "831492cbb9371f32569c7b7eda7c67314aaf20cb29aa5636d1f801d3ada81c92",
    "tree": "feeeb831e5677eddf8a842473f79421f45cf34efa286320719815272e00ea5ac",
    "window-1": "d266445b5f0ab8d41cb5c9ec3b8e4b094e11db44ae2b7daf2b22b6f67f507c22",
    "window-2": "83f661a50b87b81db662434f2fddc6dc3fa977cba57ef596ecbc2285f1133b9f",
    "window-3": "9a7183d98928e740d591cf7852d223217c8dfef08f034ae18b9502a009c1dfba"
}


def observe(name: str):
    """Collect ``name`` observed, the way ``psi-eval profile`` does."""
    workload = get(name)
    with obs.observed():
        run = collect(workload.source, workload.goal,
                      all_solutions=workload.all_solutions,
                      record_trace=False,
                      setup_goals=workload.setup_goals)
    obs.reset()
    return run


def _sha(payload) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def digests(run) -> dict:
    observation = run.observation
    tracer = observation.tracer
    metrics = {name: value
               for name, value in observation.metrics_snapshot.items()
               if name not in WINDOWED_METRICS}
    return {
        "total_steps": observation.total_steps,
        "profile_sha256": _sha(observation.profile.to_dict()),
        "calls_sha256": _sha([e.to_dict() for e in tracer.events("calls")]),
        "stacks_sha256": _sha([e.to_dict()
                               for e in tracer.events("stacks")]),
        "metrics_sha256": _sha(metrics),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_observed_output_matches_golden(name):
    run = observe(name)
    assert run.observation.profile.total_steps == run.stats.total_steps
    assert digests(run) == GOLDEN[name]


def test_observed_run_dispatches_fused():
    """A silent fallback to the per-op loop would pass every digest."""
    workload = get("nreverse")
    with obs.observed():
        run = collect(workload.source, workload.goal,
                      all_solutions=workload.all_solutions,
                      record_trace=False,
                      setup_goals=workload.setup_goals)
        assert type(run.stats) is ObservedStatsCollector
        assert run.machine._fused_on
    obs.reset()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_registry_observed_output_matches_golden(name):
    assert _sha(digests(observe(name))) == REGISTRY_GOLDEN[name]


def _regenerate() -> None:  # pragma: no cover - maintenance helper
    print("GOLDEN = " + json.dumps(
        {name: digests(observe(name)) for name in sorted(GOLDEN)}, indent=4))
    print("REGISTRY_GOLDEN = " + json.dumps(
        {name: _sha(digests(observe(name)))
         for name in sorted(all_workloads())}, indent=4))


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
