"""Figure 3 — performance scaling with 1, 4 and 16 threads.

The paper runs multiple benchmark copies pinned to separate cores
(SPEC-Rate style) and plots how per-copy performance degrades as the
machine fills.  The headline effect: the ``mprotect`` strategy scales
poorly on short-running PolyBench benchmarks because every
resize/teardown serialises on the exclusive ``mmap_lock``; V8 also
struggles at 16 threads because its helper threads and GC compete with
the pinned workers.

Series: per (runtime, strategy), geomean over benchmarks of
``median_iteration(T) / median_iteration(1)`` for T in {1, 4, 16}.
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
from repro.stats import geomean

THREAD_STEPS = (1, 4, 16)


def run(
    isa: str = "x86_64",
    size: str = "small",
    quick: bool = True,
    suites: tuple = ("polybench", "spec"),
    verbose: bool = False,
) -> List[dict]:
    suite_sets = {suite: suite_names(suite, quick) for suite in suites}
    configs = configs_for_isa(isa)
    swept = api.measure(
        *config_specs(
            [name for names in suite_sets.values() for name in names],
            configs, isa, size, THREAD_STEPS,
        ),
        strict=True, verbose=verbose,
    )
    rows: List[dict] = []
    for suite, workloads in suite_sets.items():
        for runtime, strategy in configs:
            for threads in THREAD_STEPS:
                slowdown = geomean(
                    swept.cell(name, runtime, strategy, isa, threads).median_iteration
                    / swept.cell(name, runtime, strategy, isa).median_iteration
                    for name in workloads
                )
                rows.append(
                    {
                        "isa": isa,
                        "suite": suite,
                        "runtime": runtime,
                        "strategy": strategy,
                        "threads": threads,
                        "slowdown_vs_1t": slowdown,
                    }
                )
    return rows


def render(rows: List[dict]) -> str:
    blocks = []
    for suite in sorted({r["suite"] for r in rows}):
        suite_rows = [r for r in rows if r["suite"] == suite]
        combos = sorted({(r["runtime"], r["strategy"]) for r in suite_rows})
        table_rows = []
        for runtime, strategy in combos:
            cells = [runtime, strategy]
            for threads in THREAD_STEPS:
                match = [
                    r for r in suite_rows
                    if r["runtime"] == runtime
                    and r["strategy"] == strategy
                    and r["threads"] == threads
                ]
                cells.append(match[0]["slowdown_vs_1t"] if match else "-")
            table_rows.append(cells)
        blocks.append(
            render_table(
                ["runtime", "strategy"] + [f"t={t}" for t in THREAD_STEPS],
                table_rows,
                title=f"Fig. 3 ({suite}) — per-copy slowdown vs 1 thread",
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
    path = save_results(f"fig3-{args.isa}", rows)
    print(f"\nsaved {path}")
    return rows


if __name__ == "__main__":
    main()
