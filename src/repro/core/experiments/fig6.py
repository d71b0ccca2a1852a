"""Figure 6 — average memory usage.

The paper measures total-minus-MemAvailable and finds no significant
difference between runtimes or strategies, but notes the PolyBench
suite *appears* to use far more memory on x86-64 than Armv8 because
transparent huge pages back the Wasm reservations at much coarser
granularity there (§4.3).  The series below reproduce both shapes:
strategy-insensitivity within an ISA and the cross-ISA THP gap.
"""

from __future__ import annotations

import argparse
from typing import List

from repro import api
from repro.core import cliopts
from repro.core.experiments.common import (
    config_specs,
    configs_for_isa,
    save_results,
    suite_names,
)
from repro.reporting import render_table


def run(
    isa: str = "x86_64",
    size: str = "small",
    quick: bool = True,
    suites: tuple = ("polybench", "spec"),
    threads: int = 16,
    verbose: bool = False,
) -> List[dict]:
    suite_sets = {suite: suite_names(suite, quick) for suite in suites}
    configs = configs_for_isa(isa)
    swept = api.measure(
        *config_specs(
            [name for names in suite_sets.values() for name in names],
            configs, isa, size, (threads,),
        ),
        strict=True, verbose=verbose,
    )
    rows: List[dict] = []
    for suite, workloads in suite_sets.items():
        for runtime, strategy in configs:
            average = sum(
                swept.cell(name, runtime, strategy, isa, threads).mem_avg_bytes
                for name in workloads
            ) / len(workloads)
            rows.append(
                {
                    "isa": isa,
                    "suite": suite,
                    "runtime": runtime,
                    "strategy": strategy,
                    "threads": threads,
                    "mem_avg_mib": average / (1 << 20),
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    blocks = []
    for suite in sorted({r["suite"] for r in rows}):
        subset = [r for r in rows if r["suite"] == suite]
        blocks.append(
            render_table(
                ["runtime", "strategy", "avg MiB"],
                [(r["runtime"], r["strategy"], r["mem_avg_mib"]) for r in subset],
                title=f"Fig. 6 ({subset[0]['isa']}, {suite}) — average memory usage",
            )
        )
    return "\n\n".join(blocks)


def main(argv=None) -> List[dict]:
    parser = argparse.ArgumentParser(
        description=__doc__, parents=[cliopts.sweep_parent()]
    )
    parser.add_argument("--isa", default="x86_64", choices=["x86_64", "armv8"])
    parser.add_argument("--size", default="small", choices=["mini", "small", "medium"])
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    cliopts.configure_sweep(args)
    rows = run(isa=args.isa, size=args.size, quick=not args.full, verbose=args.verbose)
    print(render(rows))
    path = save_results(f"fig6-{args.isa}", rows)
    print(f"\nsaved {path}")
    return rows


if __name__ == "__main__":
    main()
