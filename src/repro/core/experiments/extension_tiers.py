"""Extension — the translation-time / code-size / speed triangle.

§2.2 of the paper lays out the interpreter→JIT→AOT spectrum and §5
cites Titzer [29] for "execution time, translation time and space
statistics" across engine tiers.  This extension tabulates that
trade-off for our runtime models, adding the V8 *Liftoff* baseline
tier (which Titzer compares and the paper's related work names):

* **translation time** — modelled seconds to compile the PolyBench
  modules (LLVM slowest, Cranelift ~10× faster, Liftoff near-instant,
  Wasm3's transpile effectively free);
* **code size** — static machine ops emitted (interpreters: none);
* **execution time** — geomean vs native Clang, as in Fig. 2.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import (
    BASELINE,
    config_specs,
    median_by_workload,
    suite_names,
)
from repro.core.profiles import profile_for
from repro.isa import isa_named
from repro.reporting import render_table
from repro.runtime import strategy_named
from repro.runtimes import runtime_named
from repro.stats import geomean_of_ratios

ISAS = ()
ISA = "x86_64"
FULL = True
STEM = "extension-tiers"

TIERS = ["wasm3", "v8-liftoff", "v8", "wasmtime", "wavm"]


def _configs() -> List[tuple]:
    return [(name, runtime_named(name).default_strategy) for name in TIERS]


def specs(isa: str, size: str, quick: bool) -> list:
    return config_specs(
        suite_names("polybench", quick),
        [(BASELINE, "none")] + _configs(), isa, size,
    )


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    workloads = suite_names("polybench", quick)
    model = isa_named(isa)
    baseline = median_by_workload(swept, workloads, BASELINE, "none", isa)
    rows: List[dict] = []
    for runtime_name, strategy_name in _configs():
        runtime = runtime_named(runtime_name)
        strategy = strategy_named(strategy_name)
        compile_seconds = 0.0
        code_ops = 0
        for name in workloads:
            module, _ = profile_for(name, size)
            compile_seconds += runtime.compile_seconds(module)
            code_ops += runtime.code_size_ops(module, model, strategy)
        measured = median_by_workload(
            swept, workloads, runtime_name, strategy_name, isa
        )
        rows.append(
            {
                "runtime": runtime_name,
                "compile_ms": compile_seconds * 1e3,
                "code_ops": code_ops,
                "geomean_vs_native": geomean_of_ratios(measured, baseline),
            }
        )
    return rows


def render(rows: List[dict]) -> str:
    return render_table(
        ["runtime", "translation ms (suite)", "machine ops", "exec vs native"],
        [
            (r["runtime"], r["compile_ms"], r["code_ops"], r["geomean_vs_native"])
            for r in rows
        ],
        title="Extension — tier trade-off (PolyBench modules, x86-64)",
    )
