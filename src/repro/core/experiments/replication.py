"""Section 4.4 — replicating previous results.

The paper cross-checks its measurements against three earlier studies;
this experiment regenerates the same comparisons from our models:

* **Titzer [29] / paper §4.4** — Wasm3 is 6-11x slower than
  V8-TurboFan on PolyBench, depending on ISA;
* **Rossberg et al. [25]** — on V8, "seven benchmarks within 10 % of
  native and nearly all of them within 2x of native";
* **Jangda et al. [12]** — SPEC on V8 is ~1.55x native (the paper
  itself measures 1.69x on x86-64 and 1.76x on Armv8).
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import (
    config_specs,
    median_by_workload,
    suite_names,
)
from repro.reporting import render_table
from repro.stats import geomean_of_ratios

ISAS = ()
ISA = None
FULL = True
STEM = "replication"

NATIVE = ("native-clang", "none")
V8 = ("v8", "mprotect")
WASM3 = ("wasm3", "trap")
WAVM = ("wavm", "mprotect")


def specs(isa: str, size: str, quick: bool) -> list:
    pbc = suite_names("polybench", quick)
    spec = suite_names("spec", quick)
    return [
        *config_specs(pbc, (NATIVE, V8, WASM3, WAVM), "x86_64", size),
        *config_specs(pbc, (V8, WASM3), "armv8", size),
        *config_specs(pbc, (V8, WASM3), "riscv64", size),
        *config_specs(spec, (NATIVE, V8), "x86_64", size),
        *config_specs(spec, (NATIVE, V8), "armv8", size),
    ]


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    pbc = suite_names("polybench", quick)
    spec = suite_names("spec", quick)
    rows: List[dict] = []

    # Wasm3 vs V8-TurboFan on PolyBench, per ISA (default strategies).
    for isa in ("x86_64", "armv8", "riscv64"):
        v8 = median_by_workload(swept, pbc, *V8, isa)
        wasm3 = median_by_workload(swept, pbc, *WASM3, isa)
        rows.append(
            {
                "claim": f"wasm3-vs-v8-{isa}",
                "paper": "6x-11x (depending on ISA)",
                "measured": round(geomean_of_ratios(wasm3, v8), 2),
            }
        )

    # Rossberg: per-benchmark V8 vs native on PolyBench (x86-64).
    native = median_by_workload(swept, pbc, *NATIVE, "x86_64")
    v8 = median_by_workload(swept, pbc, *V8, "x86_64")
    ratios = {name: v8[name] / native[name] for name in pbc}
    within_10pct = sum(1 for r in ratios.values() if r <= 1.10)
    within_2x = sum(1 for r in ratios.values() if r <= 2.0)
    rows.append(
        {
            "claim": "rossberg-within-10pct",
            "paper": "7 benchmarks within 10% of native",
            "measured": f"{within_10pct}/{len(ratios)} benchmarks",
        }
    )
    rows.append(
        {
            "claim": "rossberg-within-2x",
            "paper": "nearly all within 2x of native",
            "measured": f"{within_2x}/{len(ratios)} benchmarks",
        }
    )

    # Jangda: SPEC V8 slowdown vs native, x86-64 and Armv8.
    for isa, paper_value in (("x86_64", "1.69x"), ("armv8", "1.76x")):
        native = median_by_workload(swept, spec, *NATIVE, isa)
        v8 = median_by_workload(swept, spec, *V8, isa)
        rows.append(
            {
                "claim": f"jangda-spec-v8-{isa}",
                "paper": paper_value + " (paper's own measurement)",
                "measured": f"{geomean_of_ratios(v8, native):.2f}x",
            }
        )

    # Headline §1.3: WAVM overhead on x86-64.
    pbc_native = median_by_workload(swept, pbc, *NATIVE, "x86_64")
    wavm = median_by_workload(swept, pbc, *WAVM, "x86_64")
    rows.append(
        {
            "claim": "wavm-overhead-x86",
            "paper": "8-20% average overhead vs native",
            "measured": f"{(geomean_of_ratios(wavm, pbc_native) - 1) * 100:.0f}%",
        }
    )
    return rows


def render(rows: List[dict]) -> str:
    return render_table(
        ["claim", "paper", "measured (this reproduction)"],
        [(r["claim"], r["paper"], r["measured"]) for r in rows],
        title="§4.4 replication of previous results",
    )
