"""Figure 2 — geomean execution time vs native Clang, per ISA.

For each ISA the paper plots, per runtime × bounds-checking strategy,
the geometric mean of per-benchmark median-time ratios against the
native Clang baseline (Fleming & Wallace), with PolyBench and SPEC
kept separate.  RISC-V (Fig. 2c) has only Native, Wasm3 and V8, and
only PolyBench (§3.4).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.experiments.common import (
    BASELINE,
    config_specs,
    configs_for_isa,
    median_by_workload,
    suite_names,
)
from repro.reporting import render_bars
from repro.stats import geomean_of_ratios

ISAS = ("x86_64", "armv8", "riscv64", "all")
ISA = "all"
FULL = True
STEM = "fig2-{isa}"

#: Suites per ISA: the 1 GiB RISC-V board cannot run SPEC (§3.4).
SUITES_BY_ISA = {
    "x86_64": ("polybench", "spec"),
    "armv8": ("polybench", "spec"),
    "riscv64": ("polybench",),
}


def _isas(isa: str) -> List[str]:
    return list(SUITES_BY_ISA) if isa == "all" else [isa]


def _suites(isa: str, quick: bool) -> Dict[str, List[str]]:
    return {suite: suite_names(suite, quick) for suite in SUITES_BY_ISA[isa]}


def specs(isa: str, size: str, quick: bool) -> list:
    return [
        spec
        for one in _isas(isa)
        for spec in config_specs(
            [name for names in _suites(one, quick).values() for name in names],
            [(BASELINE, "none")] + configs_for_isa(one), one, size,
        )
    ]


def derive(swept, isa: str, size: str, quick: bool) -> Dict[str, List[dict]]:
    """ISA → its rows, for each ISA of ``--isa``."""
    payload: Dict[str, List[dict]] = {}
    for one in _isas(isa):
        rows = payload[one] = []
        for suite, workloads in _suites(one, quick).items():
            baseline = median_by_workload(swept, workloads, BASELINE, "none", one)
            for runtime, strategy in configs_for_isa(one):
                measured = median_by_workload(
                    swept, workloads, runtime, strategy, one
                )
                rows.append(
                    {
                        "isa": one,
                        "suite": suite,
                        "runtime": runtime,
                        "strategy": strategy,
                        "geomean_vs_native": geomean_of_ratios(measured, baseline),
                    }
                )
    return payload


def render(payload: Dict[str, List[dict]]) -> str:
    blocks = []
    for isa, rows in payload.items():
        for suite in SUITES_BY_ISA[isa]:
            suite_rows = [r for r in rows if r["suite"] == suite]
            labels = [f"{r['runtime']}/{r['strategy']}" for r in suite_rows]
            values = [r["geomean_vs_native"] for r in suite_rows]
            blocks.append(
                render_bars(
                    labels,
                    values,
                    title=f"Fig. 2 ({isa}, {suite}) — geomean time vs native Clang",
                    unit="x",
                    reference=1.0,
                )
            )
    return "\n\n".join(blocks)
