"""Table 5: cache hit ratios of each memory area.

The collected memory trace of each hardware-evaluation program is
replayed through the PMMS cache simulator in the PSI production
configuration (8KW, 2-way, 4-word blocks, store-in, write-stack)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory import Area
from repro.eval import paper_data
from repro.eval.report import format_table
from repro.eval.runner import run_spec
from repro.eval.table3 import HARDWARE_PROGRAMS
from repro.eval.table4 import AREA_ORDER
from repro.memsys import CacheConfig
from repro.tools.pmms import replay_run


@dataclass(frozen=True)
class Table5Row:
    program: str
    ratios: dict           # Area -> hit %
    total: float
    paper: tuple | None


def generate(programs: dict[str, str] | None = None,
             config: CacheConfig | None = None) -> list[Table5Row]:
    rows = []
    for paper_name, workload_name in (programs or HARDWARE_PROGRAMS).items():
        run = run_spec(workload_name, record_trace=True)
        (stats,) = replay_run(run, [config or CacheConfig()])
        rows.append(Table5Row(
            program=paper_name,
            ratios={area: stats.area_hit_ratio(area) for area in AREA_ORDER},
            total=stats.hit_ratio,
            paper=paper_data.TABLE5.get(paper_name),
        ))
    return rows


def render(rows: list[Table5Row]) -> str:
    body = []
    for row in rows:
        body.append([row.program]
                    + [round(row.ratios[a], 1) for a in AREA_ORDER]
                    + [round(row.total, 1)])
        if row.paper:
            body.append(["  (paper)"] + list(row.paper))
    return format_table(
        ["program", "heap", "global stk", "local stk", "control stk",
         "trail stk", "total"],
        body,
        title="Table 5: cache hit ratios of each memory area (%)")
