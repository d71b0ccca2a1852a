"""Figure 5 — context switches per second.

The paper's findings: bounds-checking strategy barely moves the
context-switch rate *except* for the contended ``mprotect``
configuration (threads sleeping on mmap_lock), and V8 at 16 worker
threads switches an order of magnitude more than anything else because
its helper threads oversubscribe the fully-pinned machine.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import scaling_rows, scaling_specs
from repro.reporting import render_table
from repro.stats import geomean

ISAS = ("x86_64", "armv8")
ISA = "x86_64"
FULL = True
STEM = "fig5-{isa}"

THREAD_STEPS = (1, 16)


def specs(isa: str, size: str, quick: bool) -> list:
    return scaling_specs(isa, size, quick, THREAD_STEPS)


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    return scaling_rows(
        swept, isa, quick, THREAD_STEPS, "ctx_per_sec",
        lambda cells, t: geomean(
            max(m.utilisation.context_switches_per_sec, 1.0) for m in cells(t)
        ),
    )


def render(rows: List[dict]) -> str:
    blocks = []
    for suite in sorted({r["suite"] for r in rows}):
        for threads in sorted({r["threads"] for r in rows}):
            subset = [
                r for r in rows if r["suite"] == suite and r["threads"] == threads
            ]
            if not subset:
                continue
            blocks.append(
                render_table(
                    ["runtime", "strategy", "ctx/s"],
                    [
                        (r["runtime"], r["strategy"], r["ctx_per_sec"])
                        for r in subset
                    ],
                    title=f"Fig. 5 ({suite}, {threads} thread(s)) — context switches/s",
                )
            )
    return "\n\n".join(blocks)
