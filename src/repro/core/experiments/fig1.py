"""Figure 1 — cost of bounds checking in V8-TurboFan on x86-64.

The paper's motivating figure runs PolyBench and the SPEC subset on V8
with and without bounds checking, normalised to native execution, and
observes that roughly half of PolyBench is unaffected while
memory-dense kernels pay substantially (gemm worst).

We regenerate the series per benchmark:

* ``v8-none / native``      — V8 with checks disabled;
* ``v8-mprotect / native``  — V8's default virtual-memory checks;
* ``v8-trap / native``      — V8 with explicit software checks
  (included because "bounds checking enabled" for several benchmarks
  in the paper's V8 build behaves like explicit checking);
* ``bounds overhead %``     — (default − none)/none.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import config_specs, suite_names
from repro.reporting import render_table

ISAS = ()
ISA = "x86_64"
FULL = True
STEM = "fig1"

#: The measured (runtime, strategy) configurations: the native
#: baseline, then V8 without checks, with its default and with explicit
#: checks.
CONFIGS = (
    ("native-clang", "none"),
    ("v8", "none"),
    ("v8", "mprotect"),
    ("v8", "trap"),
)


def _workloads(quick: bool) -> List[str]:
    return suite_names("polybench", quick) + suite_names("spec", quick)


def specs(isa: str, size: str, quick: bool) -> list:
    return config_specs(_workloads(quick), CONFIGS, isa, size)


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    rows = []
    for name in _workloads(quick):
        native, v8_none, v8_default, v8_trap = (
            swept.cell(name, runtime, strategy, isa).median_iteration
            for runtime, strategy in CONFIGS
        )
        rows.append(
            {
                "benchmark": name,
                "v8_none_vs_native": v8_none / native,
                "v8_default_vs_native": v8_default / native,
                "v8_trap_vs_native": v8_trap / native,
                "default_overhead_pct": 100.0 * (v8_default / v8_none - 1.0),
                "trap_overhead_pct": 100.0 * (v8_trap / v8_none - 1.0),
            }
        )
    return rows


def render(rows: List[dict]) -> str:
    return render_table(
        ["benchmark", "v8-none/nat", "v8-default/nat", "v8-trap/nat",
         "default ovh %", "trap ovh %"],
        [
            (
                r["benchmark"],
                r["v8_none_vs_native"],
                r["v8_default_vs_native"],
                r["v8_trap_vs_native"],
                r["default_overhead_pct"],
                r["trap_overhead_pct"],
            )
            for r in rows
        ],
        title="Fig. 1 — V8-TurboFan bounds-checking cost on x86-64 "
              "(execution time vs native Clang)",
    )
