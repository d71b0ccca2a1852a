"""Figure 2 — geomean execution time vs native Clang, per ISA.

For each ISA the paper plots, per runtime × bounds-checking strategy,
the geometric mean of per-benchmark median-time ratios against the
native Clang baseline (Fleming & Wallace), with PolyBench and SPEC
kept separate.  RISC-V (Fig. 2c) has only Native, Wasm3 and V8, and
only PolyBench (§3.4).
"""

from __future__ import annotations

import argparse
from typing import Dict, List

from repro import api
from repro.core import cliopts
from repro.core.experiments.common import (
    BASELINE,
    config_specs,
    configs_for_isa,
    median_by_workload,
    save_results,
    suite_names,
)
from repro.reporting import render_bars
from repro.stats import geomean_of_ratios

#: Suites per ISA: the 1 GiB RISC-V board cannot run SPEC (§3.4).
SUITES_BY_ISA = {
    "x86_64": ("polybench", "spec"),
    "armv8": ("polybench", "spec"),
    "riscv64": ("polybench",),
}


def run(
    isa: str, size: str = "small", quick: bool = True, verbose: bool = False
) -> List[dict]:
    suites = {suite: suite_names(suite, quick) for suite in SUITES_BY_ISA[isa]}
    configs = configs_for_isa(isa)
    swept = api.measure(
        *config_specs(
            [name for names in suites.values() for name in names],
            [(BASELINE, "none")] + configs, isa, size,
        ),
        strict=True, verbose=verbose,
    )
    rows: List[dict] = []
    for suite, workloads in suites.items():
        baseline = median_by_workload(swept, workloads, BASELINE, "none", isa)
        for runtime, strategy in configs:
            measured = median_by_workload(swept, workloads, runtime, strategy, isa)
            rows.append(
                {
                    "isa": isa,
                    "suite": suite,
                    "runtime": runtime,
                    "strategy": strategy,
                    "geomean_vs_native": geomean_of_ratios(measured, baseline),
                }
            )
    return rows


def render(rows: List[dict], isa: str) -> str:
    blocks = []
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


def main(argv=None) -> Dict[str, List[dict]]:
    parser = argparse.ArgumentParser(
        description=__doc__, parents=[cliopts.sweep_parent()]
    )
    parser.add_argument(
        "--isa", default="all", choices=["x86_64", "armv8", "riscv64", "all"]
    )
    parser.add_argument("--size", default="small", choices=["mini", "small", "medium"])
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    cliopts.configure_sweep(args)
    isas = list(SUITES_BY_ISA) if args.isa == "all" else [args.isa]
    all_rows: Dict[str, List[dict]] = {}
    for isa in isas:
        rows = run(isa, size=args.size, quick=not args.full, verbose=args.verbose)
        all_rows[isa] = rows
        print(render(rows, isa))
        print()
    path = save_results("fig2", all_rows)
    print(f"saved {path}")
    return all_rows


if __name__ == "__main__":
    main()
