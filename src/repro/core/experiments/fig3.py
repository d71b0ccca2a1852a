"""Figure 3 — performance scaling with 1, 4 and 16 threads.

The paper runs multiple benchmark copies pinned to separate cores
(SPEC-Rate style) and plots how per-copy performance degrades as the
machine fills.  The headline effect: the ``mprotect`` strategy scales
poorly on short-running PolyBench benchmarks because every
resize/teardown serialises on the exclusive ``mmap_lock``; V8 also
struggles at 16 threads because its helper threads and GC compete with
the pinned workers.

Series: per (runtime, strategy), geomean over benchmarks of
``median_iteration(T) / median_iteration(1)`` for T in {1, 4, 16}.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import scaling_rows, scaling_specs
from repro.reporting import render_table
from repro.stats import geomean

ISAS = ("x86_64", "armv8")
ISA = "x86_64"
FULL = True
STEM = "fig3-{isa}"

THREAD_STEPS = (1, 4, 16)


def specs(isa: str, size: str, quick: bool) -> list:
    return scaling_specs(isa, size, quick, THREAD_STEPS)


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    return scaling_rows(
        swept, isa, quick, THREAD_STEPS, "slowdown_vs_1t",
        lambda cells, t: geomean(
            m.median_iteration / one.median_iteration
            for m, one in zip(cells(t), cells(1))
        ),
    )


def render(rows: List[dict]) -> str:
    blocks = []
    for suite in sorted({r["suite"] for r in rows}):
        suite_rows = [r for r in rows if r["suite"] == suite]
        combos = sorted({(r["runtime"], r["strategy"]) for r in suite_rows})
        table_rows = []
        for runtime, strategy in combos:
            cells = [runtime, strategy]
            for threads in THREAD_STEPS:
                match = [
                    r for r in suite_rows
                    if r["runtime"] == runtime
                    and r["strategy"] == strategy
                    and r["threads"] == threads
                ]
                cells.append(match[0]["slowdown_vs_1t"] if match else "-")
            table_rows.append(cells)
        blocks.append(
            render_table(
                ["runtime", "strategy"] + [f"t={t}" for t in THREAD_STEPS],
                table_rows,
                title=f"Fig. 3 ({suite}) — per-copy slowdown vs 1 thread",
            )
        )
    return "\n\n".join(blocks)
