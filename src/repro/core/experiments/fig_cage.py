"""fig-cage — hardware-assisted bounds strategies under thread scaling.

Beyond the paper's five-strategy axis, this experiment puts the two
hardware-assisted extensions next to them on Armv8 (the only modelled
ISA with the MTE tagging extension):

* ``mte`` — CAGE-style Arm MTE tag checking: the bounds check rides
  the load/store pipe (one TAGCHECK op per access) and ``memory.grow``
  retags the new 16-byte granules in userspace, with **no** mprotect
  calls and no mmap_lock traffic;
* ``wasm64`` — the eWAPA 64-bit-memory regime: no guard region can
  cover a 64-bit index space, so explicit per-access checks are
  mandatory and BCE's pooled affine guard is illegal.

The headline shape this reproduces: at one thread ``mte`` sits between
the fault-based strategies and the explicit-check strategies (a tag
check is cheaper than a compare+branch), and under thread scaling it
stays flat where ``mprotect`` collapses — retagging is per-thread
userspace work, so the mmap_lock convoy the paper blames for the
mprotect cliff (§4.2) never forms.  ``wasm64`` tracks ``trap``/``clamp``:
it pays explicit-check costs plus the checks BCE could no longer pool.
"""

from __future__ import annotations

from typing import List

from repro import api
from repro.core.experiments.common import strategies_for
from repro.reporting import render_table
from repro.runtime.strategies import STRATEGY_ORDER
from repro.stats import geomean

ISAS = ("armv8", "x86_64")
ISA = "armv8"
FULL = False
STEM = "fig-cage-{isa}"

#: Short-iteration, memory-touching kernels — the ones the paper shows
#: are contention-sensitive, so the mprotect-vs-mte scaling gap is
#: visible rather than amortised away.
WORKLOADS = ("trisolv", "atax", "jacobi-2d")

#: One runtime keeps the grid readable; wavm is the paper's
#: best-performing compiled runtime and supports every strategy.
RUNTIME = "wavm"

THREAD_STEPS = (1, 4, 16)


def specs(isa: str, size: str, quick: bool) -> list:
    return [
        api.SweepSpec(
            WORKLOADS,
            runtimes=(RUNTIME,),
            strategies=tuple(strategies_for(RUNTIME, isa)),
            isas=(isa,),
            threads=THREAD_STEPS,
            size=size,
        )
    ]


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    rows: List[dict] = []
    for strategy in strategies_for(RUNTIME, isa):
        for workload in WORKLOADS:
            base = swept.cell(workload, RUNTIME, strategy, isa).median_iteration
            for threads in THREAD_STEPS:
                m = swept.cell(workload, RUNTIME, strategy, isa, threads)
                rows.append(
                    {
                        "isa": isa,
                        "runtime": RUNTIME,
                        "workload": workload,
                        "strategy": strategy,
                        "threads": threads,
                        "median_ms": m.median_iteration * 1e3,
                        "slowdown_vs_1t": m.median_iteration / base,
                        "utilisation_percent":
                            m.utilisation.utilisation_percent,
                        "mmap_write_wait_ms": m.mmap_write_wait * 1e3,
                        "mprotect_calls":
                            m.kernel_stats.get("mprotect_calls", 0),
                        "checks_emitted":
                            m.bounds_checks.get("emitted", 0),
                        "checks_elided":
                            m.bounds_checks.get("elided", 0),
                    }
                )
    return rows


def render(rows: List[dict]) -> str:
    blocks = []
    for threads in sorted({r["threads"] for r in rows}):
        subset = [r for r in rows if r["threads"] == threads]
        blocks.append(
            render_table(
                ["workload", "strategy", "median ms", "x vs 1t",
                 "util %", "mmap wait ms"],
                [
                    (r["workload"], r["strategy"], r["median_ms"],
                     r["slowdown_vs_1t"], r["utilisation_percent"],
                     r["mmap_write_wait_ms"])
                    for r in subset
                ],
                title=(
                    f"fig-cage ({subset[0]['isa']}, {threads} thread(s)) — "
                    "hardware-assisted bounds strategies"
                ),
            )
        )
    # The headline: per-strategy scaling factor, geomean across
    # workloads, worst thread count vs one thread.
    top = max(r["threads"] for r in rows)
    summary = []
    for strategy in STRATEGY_ORDER:
        finals = [
            r["slowdown_vs_1t"]
            for r in rows
            if r["strategy"] == strategy and r["threads"] == top
        ]
        if finals:
            summary.append((strategy, geomean(finals)))
    blocks.append(
        render_table(
            ["strategy", f"geomean slowdown @{top}t"],
            summary,
            title="fig-cage — thread-scaling collapse (1.0 = flat)",
        )
    )
    return "\n\n".join(blocks)
