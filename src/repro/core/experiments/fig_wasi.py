"""fig-wasi — the syscall-bound scenario axis across bounds strategies.

The paper's evaluation (and fig1–fig6 here) is compute-bound: every
byte the benchmark touches sits in its own linear memory, so the
bounds-check strategy is the whole story.  WASI-family workloads add
the second axis real deployments live on: a steady stream of kernel
crossings (fd reads/writes, clock, randomness, polls) whose cost is
*strategy-independent* — a syscall's user→kernel transition prices the
same whether loads are clamped, trapped or tag-checked.

Two observables per cell:

* the familiar strategy deltas, now diluted by the syscall tax — the
  ``syscall_share`` column makes the dilution explicit (share of the
  median iteration spent crossing the kernel);
* per-syscall log2 latency histograms from one traced run per
  workload (:mod:`repro.trace.histogram`, eBPF style), committed with
  the rows so the latency distribution is inspectable without rerunning.

Strategy rows cover all seven (paper's five + mte/wasm64), which is
why the default ISA is armv8 — the only modelled core with MTE.
"""

from __future__ import annotations

from typing import Dict, List

from repro import api
from repro.core.experiments.common import strategies_for
from repro.core.harness import run_benchmark
from repro.reporting import render_table
from repro.trace.histogram import (
    histograms_to_json,
    latency_histograms,
    render_histograms,
)
from repro.trace.tracer import tracing

ISAS = ("armv8", "x86_64")
ISA = "armv8"
FULL = False
STEM = "fig-wasi-{isa}"

WORKLOADS = ("wasi-grep", "wasi-checksum", "wasi-montecarlo", "wasi-logappend")

RUNTIME = "wavm"

THREAD_STEPS = (1, 4)

#: Strategy used for the traced histogram runs; the per-call latency
#: model has no strategy term, so any one works — "none" keeps the
#: trace free of mprotect noise.
_TRACE_STRATEGY = "none"


def specs(isa: str, size: str, quick: bool) -> list:
    return [
        api.SweepSpec(
            WORKLOADS,
            runtimes=(RUNTIME,),
            strategies=tuple(strategies_for(RUNTIME, isa)),
            isas=(isa,),
            threads=THREAD_STEPS,
            size=size,
            scenario="wasi",
        )
    ]


def derive(swept, isa: str, size: str, quick: bool) -> dict:
    rows: List[dict] = []
    for workload in WORKLOADS:
        for strategy in strategies_for(RUNTIME, isa):
            for threads in THREAD_STEPS:
                m = swept.cell(workload, RUNTIME, strategy, isa, threads)
                syscall_calls = sum(
                    int(entry["calls"]) for entry in m.syscall_stats.values()
                )
                rows.append(
                    {
                        "isa": isa,
                        "runtime": RUNTIME,
                        "workload": workload,
                        "strategy": strategy,
                        "threads": threads,
                        "median_ms": m.median_iteration * 1e3,
                        "syscall_ms": m.syscall_seconds * 1e3,
                        "syscall_share": m.syscall_seconds / m.median_iteration,
                        "syscall_calls": syscall_calls,
                        "wasi_calls": m.kernel_stats.get("wasi_calls", 0),
                        "wasi_bytes": m.kernel_stats.get("wasi_bytes", 0),
                        "utilisation_percent": m.utilisation.utilisation_percent,
                        "mmap_write_wait_ms": m.mmap_write_wait * 1e3,
                    }
                )

    # One traced run per workload feeds the latency histograms; the
    # per-call latency model carries no strategy term, so a single
    # strategy's trace speaks for the whole grid.
    histograms: Dict[str, dict] = {}
    for workload in WORKLOADS:
        with tracing() as sink:
            run_benchmark(
                workload, RUNTIME, _TRACE_STRATEGY, isa,
                threads=1, size=size, iterations=2, warmup=1,
            )
        histograms[workload] = histograms_to_json(
            latency_histograms(sink.events)
        )
    return {"rows": rows, "histograms": histograms}


def render(payload: dict) -> str:
    rows = payload["rows"]
    blocks = []
    for threads in sorted({r["threads"] for r in rows}):
        subset = [r for r in rows if r["threads"] == threads]
        blocks.append(
            render_table(
                ["workload", "strategy", "median ms", "syscall ms",
                 "syscall share", "wasi calls", "util %"],
                [
                    (r["workload"], r["strategy"], r["median_ms"],
                     r["syscall_ms"], r["syscall_share"],
                     r["wasi_calls"], r["utilisation_percent"])
                    for r in subset
                ],
                title=(
                    f"fig-wasi ({subset[0]['isa']}, {threads} thread(s)) — "
                    "syscall-bound scenarios across bounds strategies"
                ),
            )
        )
    for workload, table in payload["histograms"].items():
        restored = {
            name: {
                "calls": entry["calls"],
                "bytes": entry["bytes"],
                "seconds": entry["seconds"],
                "buckets": {
                    int(bucket): count
                    for bucket, count in entry["buckets"].items()
                },
            }
            for name, entry in table.items()
        }
        blocks.append(
            f"{workload} — per-syscall latency (log2 ns buckets):\n"
            + render_histograms(restored)
        )
    return "\n\n".join(blocks)
