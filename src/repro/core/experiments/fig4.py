"""Figure 4 — average CPU utilisation during benchmark execution.

The paper samples /proc/stat (their Equation 1, rescaled so 100 % is
one fully-busy core) for single-threaded and 16-threaded runs on
x86-64 and Armv8.  Key shapes: all runtimes saturate their cores
except V8 (helper threads push 1-thread utilisation *above* 100 %,
while GC pauses pull 16-thread utilisation below 1600 %), and the
``mprotect`` strategy fails to saturate the machine at 16 threads on
the short-running PolyBench kernels.
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


def run(
    isa: str = "x86_64",
    size: str = "small",
    quick: bool = True,
    suites: tuple = ("polybench", "spec"),
    thread_steps: tuple = (1, 16),
    verbose: bool = False,
) -> List[dict]:
    suite_sets = {suite: suite_names(suite, quick) for suite in suites}
    configs = configs_for_isa(isa)
    swept = api.measure(
        *config_specs(
            [name for names in suite_sets.values() for name in names],
            configs, isa, size, thread_steps,
        ),
        strict=True, verbose=verbose,
    )
    rows: List[dict] = []
    for suite, workloads in suite_sets.items():
        for runtime, strategy in configs:
            for threads in thread_steps:
                cells = [
                    swept.cell(name, runtime, strategy, isa, threads)
                    for name in workloads
                ]
                utilisation = geomean(
                    m.utilisation.utilisation_percent for m in cells
                )
                rows.append(
                    {
                        "isa": isa,
                        "suite": suite,
                        "runtime": runtime,
                        "strategy": strategy,
                        "threads": threads,
                        "utilisation_percent": utilisation,
                    }
                )
    return rows


def render(rows: List[dict]) -> str:
    blocks = []
    for suite in sorted({r["suite"] for r in rows}):
        for threads in sorted({r["threads"] for r in rows}):
            subset = [
                r for r in rows if r["suite"] == suite and r["threads"] == threads
            ]
            if not subset:
                continue
            blocks.append(
                render_table(
                    ["runtime", "strategy", "utilisation %"],
                    [
                        (r["runtime"], r["strategy"], r["utilisation_percent"])
                        for r in subset
                    ],
                    title=(
                        f"Fig. 4 ({suite}, {threads} thread(s)) — "
                        f"average CPU utilisation (100 % = one core)"
                    ),
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
    path = save_results(f"fig4-{args.isa}", rows)
    print(f"\nsaved {path}")
    return rows


if __name__ == "__main__":
    main()
