"""Figure BCE — what bounds-check elimination buys each compiler.

The optimising runtimes do not pay for every static bounds check the
wasm module implies: TurboFan and WAVM's LLVM pipeline eliminate
dominated checks, hoist loop-invariant guards and widen per-iteration
checks into a single guard per induction variable; Cranelift only
eliminates dominated checks (§2.1's spectrum of check-removal
aggressiveness).  This experiment quantifies that by measuring the
inline-check strategies (``clamp``/``trap``) with the pass on and off,
both halves in one grid (``bce`` is a field of each sweep spec):

* ``median_ms`` / ``median_ms_nobce``  — measured cost with the
  compiler's BCE configuration vs with the pass off;
* ``bce_saving_pct``  — how much of the configuration's execution
  time the pass removes;
* ``checks_emitted`` / ``checks_elided``  — dynamic per-iteration
  check counters with the pass on (``elided`` counts checks the
  compiler proved redundant at the executed block counts).

Strategies without inline checks are unaffected by construction — the
diffcheck ``bce`` phase asserts they are byte-identical.
"""

from __future__ import annotations

from typing import List

from repro.core.experiments.common import config_specs, configs_for_isa, suite_names
from repro.reporting import render_table

ISAS = ("x86_64", "armv8")
ISA = "x86_64"
FULL = True
STEM = "fig-bce-{isa}"

#: Compiling runtimes only: wasm3 interprets (checks stay in the
#: dispatch loop) and the native baselines have nothing to elide.
RUNTIMES = ("wavm", "wasmtime", "v8")
STRATEGIES = ("clamp", "trap")


def specs(isa: str, size: str, quick: bool) -> list:
    workloads = suite_names("polybench", quick)
    configs = configs_for_isa(isa, RUNTIMES, STRATEGIES)
    return config_specs(workloads, configs, isa, size) + config_specs(
        workloads, configs, isa, size, bce=False
    )


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    rows: List[dict] = []
    for runtime, strategy in configs_for_isa(isa, RUNTIMES, STRATEGIES):
        for name in suite_names("polybench", quick):
            on = swept.cell(name, runtime, strategy, isa)
            off = swept.cell(name, runtime, strategy, isa, bce=False)
            saving = 1.0 - on.median_iteration / off.median_iteration
            rows.append(
                {
                    "benchmark": name,
                    "runtime": runtime,
                    "strategy": strategy,
                    "isa": isa,
                    "median_ms": on.median_iteration * 1e3,
                    "median_ms_nobce": off.median_iteration * 1e3,
                    "bce_saving_pct": 100.0 * saving,
                    "checks_emitted": on.bounds_checks.get("emitted", 0),
                    "checks_elided": on.bounds_checks.get("elided", 0),
                    "checks_emitted_nobce": off.bounds_checks.get("emitted", 0),
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    blocks = []
    for runtime in RUNTIMES:
        for strategy in STRATEGIES:
            subset = [
                r for r in rows
                if r["runtime"] == runtime and r["strategy"] == strategy
            ]
            if not subset:
                continue
            blocks.append(
                render_table(
                    ["benchmark", "with BCE ms", "without ms", "saving %",
                     "emitted", "elided"],
                    [
                        (
                            r["benchmark"],
                            r["median_ms"],
                            r["median_ms_nobce"],
                            r["bce_saving_pct"],
                            r["checks_emitted"],
                            r["checks_elided"],
                        )
                        for r in subset
                    ],
                    title=(
                        f"Fig. BCE ({subset[0]['isa']}, {runtime}/{strategy}) — "
                        "bounds-check elimination effect"
                    ),
                )
            )
    return "\n\n".join(blocks)
