"""Figure 4 — average CPU utilisation during benchmark execution.

The paper samples /proc/stat (their Equation 1, rescaled so 100 % is
one fully-busy core) for single-threaded and 16-threaded runs on
x86-64 and Armv8.  Key shapes: all runtimes saturate their cores
except V8 (helper threads push 1-thread utilisation *above* 100 %,
while GC pauses pull 16-thread utilisation below 1600 %), and the
``mprotect`` strategy fails to saturate the machine at 16 threads on
the short-running PolyBench kernels.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import scaling_rows, scaling_specs
from repro.reporting import render_table
from repro.stats import geomean

ISAS = ("x86_64", "armv8")
ISA = "x86_64"
FULL = True
STEM = "fig4-{isa}"

THREAD_STEPS = (1, 16)


def specs(isa: str, size: str, quick: bool) -> list:
    return scaling_specs(isa, size, quick, THREAD_STEPS)


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    return scaling_rows(
        swept, isa, quick, THREAD_STEPS, "utilisation_percent",
        lambda cells, t: geomean(
            m.utilisation.utilisation_percent for m in cells(t)
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
                    ["runtime", "strategy", "utilisation %"],
                    [
                        (r["runtime"], r["strategy"], r["utilisation_percent"])
                        for r in subset
                    ],
                    title=(
                        f"Fig. 4 ({suite}, {threads} thread(s)) — "
                        f"average CPU utilisation (100 % = one core)"
                    ),
                )
            )
    return "\n\n".join(blocks)
