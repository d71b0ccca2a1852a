"""Figure 6 — average memory usage.

The paper measures total-minus-MemAvailable and finds no significant
difference between runtimes or strategies, but notes the PolyBench
suite *appears* to use far more memory on x86-64 than Armv8 because
transparent huge pages back the Wasm reservations at much coarser
granularity there (§4.3).  The series below reproduce both shapes:
strategy-insensitivity within an ISA and the cross-ISA THP gap.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import scaling_rows, scaling_specs
from repro.reporting import render_table

ISAS = ("x86_64", "armv8")
ISA = "x86_64"
FULL = True
STEM = "fig6-{isa}"

THREAD_STEPS = (16,)


def _mean_mib(cells, threads: int) -> float:
    at = cells(threads)
    return sum(m.mem_avg_bytes for m in at) / len(at) / (1 << 20)


def specs(isa: str, size: str, quick: bool) -> list:
    return scaling_specs(isa, size, quick, THREAD_STEPS)


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    return scaling_rows(
        swept, isa, quick, THREAD_STEPS, "mem_avg_mib", _mean_mib
    )


def render(rows: List[dict]) -> str:
    blocks = []
    for suite in sorted({r["suite"] for r in rows}):
        subset = [r for r in rows if r["suite"] == suite]
        blocks.append(
            render_table(
                ["runtime", "strategy", "avg MiB"],
                [(r["runtime"], r["strategy"], r["mem_avg_mib"]) for r in subset],
                title=f"Fig. 6 ({subset[0]['isa']}, {suite}) — average memory usage",
            )
        )
    return "\n\n".join(blocks)
