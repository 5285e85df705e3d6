"""Measurement tools: the COLLECT / MAP / PMMS equivalents (§4.1)."""

from repro.tools.collect import CollectedRun, RunSummary, collect
from repro.tools.map import (
    BranchRow,
    WFRow,
    branch_analysis,
    module_analysis,
    routine_histogram,
    wf_analysis,
)
from repro.tools.pmms import (
    FIGURE1_CAPACITIES,
    ComparisonResult,
    SweepPoint,
    capacity_sweep,
    compare_associativity,
    compare_write_policy,
    improvement_from_stats,
    performance_improvement,
    replay_run,
    simulate,
    simulate_many,
)

__all__ = [
    "collect", "CollectedRun", "RunSummary",
    "branch_analysis", "wf_analysis", "module_analysis", "routine_histogram",
    "BranchRow", "WFRow",
    "simulate", "simulate_many", "replay_run", "capacity_sweep",
    "performance_improvement",
    "improvement_from_stats",
    "compare_associativity", "compare_write_policy",
    "SweepPoint", "ComparisonResult", "FIGURE1_CAPACITIES",
]
