"""§4.2 ablations: associativity and write policy.

* One 4KW set vs two 4KW sets, on WINDOW / 8 PUZZLE / BUP — the paper
  found the single-set cache only ~3% lower.
* Store-in vs store-through on WINDOW — the paper found store-in ~8%
  higher.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval import paper_data
from repro.eval.report import format_table
from repro.eval.runner import run_spec
from repro.tools.pmms import (
    ComparisonResult,
    associativity_pair,
    compare_pairs,
    write_policy_pair,
)

ASSOCIATIVITY_PROGRAMS = {"window": "window-1", "puzzle8": "puzzle8",
                          "bup": "bup-2"}
POLICY_PROGRAM = "window-1"


@dataclass(frozen=True)
class AblationResults:
    associativity: dict[str, ComparisonResult]
    write_policy: ComparisonResult


def generate() -> AblationResults:
    associativity = {}
    policy = None
    for paper_name, workload in ASSOCIATIVITY_PROGRAMS.items():
        run = run_spec(workload, record_trace=True)
        pairs = [associativity_pair()]
        if workload == POLICY_PROGRAM:
            pairs.append(write_policy_pair())
        # One replay per program, of the configurations the run's own
        # cache (the production one) did not already cover.
        associativity[paper_name], *rest = compare_pairs(run, run.steps, pairs)
        if rest:
            (policy,) = rest
    return AblationResults(associativity, policy)


def render(results: AblationResults) -> str:
    rows = []
    for name, comparison in results.associativity.items():
        rows.append((name, round(comparison.improvement_a, 1),
                     round(comparison.improvement_b, 1),
                     round(comparison.relative_loss_percent, 1)))
    assoc = format_table(
        ["program", "two 4KW sets (imp %)", "one 4KW set (imp %)",
         "loss of one set %"],
        rows,
        title="Ablation: set associativity "
              f"(paper: one set only ~{paper_data.ONE_SET_LOSS_PERCENT:.0f}% lower)")
    policy = results.write_policy
    gain = policy.relative_loss_percent
    policy_text = (
        "Ablation: write policy (program WINDOW)\n"
        f"store-in improvement:      {policy.improvement_a:.1f}%\n"
        f"store-through improvement: {policy.improvement_b:.1f}%\n"
        f"store-in advantage:        {gain:.1f}% "
        f"(paper: ~{paper_data.STORE_IN_GAIN_PERCENT:.0f}%)")
    return f"{assoc}\n\n{policy_text}"
