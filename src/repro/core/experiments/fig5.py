"""Figure 5 — context switches per second.

The paper's findings: bounds-checking strategy barely moves the
context-switch rate *except* for the contended ``mprotect``
configuration (threads sleeping on mmap_lock), and V8 at 16 worker
threads switches an order of magnitude more than anything else because
its helper threads oversubscribe the fully-pinned machine.
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
                rate = geomean(
                    max(m.utilisation.context_switches_per_sec, 1.0) for m in cells
                )
                rows.append(
                    {
                        "isa": isa,
                        "suite": suite,
                        "runtime": runtime,
                        "strategy": strategy,
                        "threads": threads,
                        "ctx_per_sec": rate,
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
                    ["runtime", "strategy", "ctx/s"],
                    [
                        (r["runtime"], r["strategy"], r["ctx_per_sec"])
                        for r in subset
                    ],
                    title=f"Fig. 5 ({suite}, {threads} thread(s)) — context switches/s",
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
    path = save_results(f"fig5-{args.isa}", rows)
    print(f"\nsaved {path}")
    return rows


if __name__ == "__main__":
    main()
