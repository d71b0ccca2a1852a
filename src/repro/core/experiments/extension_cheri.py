"""Extension — projecting CHERI capability-based bounds checking.

§2.3 of the paper singles out CHERI as "an upcoming, promising
approach ... providing capability-checked memory accesses", but could
not evaluate it for lack of hardware.  This extension experiment adds
a sixth, *projected* strategy to the comparison matrix using the
published characteristics of CHERI implementations (Woodruff et al.
[34]; the CHERI-RISC-V/Morello literature):

* bounds/permission checks happen in the capability load/store pipe —
  **no extra instructions** and no detectable per-check latency;
* pointers become 128-bit capabilities: pointer-dense data doubles in
  size, which we model as a small per-access penalty proportional to
  the workload's access mix (capability cache-footprint tax);
* memory management needs no guard reservation, no mprotect dance and
  no userfaultfd: grow is a capability re-derivation (cheap, no
  exclusive kernel lock), so multithreaded scaling matches `uffd`.

The experiment prints the Fig. 2-style single-thread comparison with
`cheri` added, plus the 16-thread utilisation check.
"""

from __future__ import annotations

import argparse
from typing import List

from repro import api
from repro.core import cliopts
from repro.core.experiments.common import (
    BASELINE,
    median_by_workload,
    save_results,
    suite_names,
)
from repro.reporting import render_table
from repro.runtime import strategies as strategies_mod
from repro.runtime.strategies import BoundsStrategy
from repro.stats import geomean_of_ratios

#: The projected strategy: no inline checks, uffd-like memory
#: management (atomic grow, shared-lock reset, anonymous faults).
CHERI = BoundsStrategy(
    name="cheri",
    inline_check="",
    grow_mechanism="atomic",
    fault_mechanism="anon",
    reset_mechanism="madvise",
    signal_on_oob=True,  # a capability violation is a synchronous trap
)


def install() -> None:
    """Register the projected strategy (idempotent)."""
    strategies_mod.STRATEGIES.setdefault("cheri", CHERI)
    for runtime_name in ("wavm", "wasmtime", "v8"):
        from repro.runtimes import runtime_named

        model = runtime_named(runtime_name)
        if "cheri" not in model.strategies:
            model.strategies = tuple(model.strategies) + ("cheri",)


def run(size: str = "small", quick: bool = True, verbose: bool = False) -> List[dict]:
    install()
    workloads = suite_names("polybench", quick)
    strategies = ("none", "trap", "mprotect", "uffd", "cheri")
    swept = api.measure(
        api.SweepSpec(
            workloads, runtimes=(BASELINE,), strategies=("none",),
            isas=("x86_64",), size=size,
        ),
        api.SweepSpec(
            workloads, runtimes=("wavm",), strategies=strategies,
            isas=("x86_64",), size=size,
        ),
        api.SweepSpec(
            ("trisolv",), runtimes=("wavm",), strategies=strategies,
            isas=("x86_64",), threads=(16,), size=size,
        ),
        strict=True, verbose=verbose,
    )
    baseline = median_by_workload(swept, workloads, BASELINE, "none", "x86_64")
    rows: List[dict] = []
    for strategy in strategies:
        measured = median_by_workload(swept, workloads, "wavm", strategy, "x86_64")
        contended = swept.cell("trisolv", "wavm", strategy, "x86_64", 16)
        rows.append(
            {
                "strategy": strategy,
                "geomean_vs_native_1t": geomean_of_ratios(measured, baseline),
                "trisolv_util_16t": contended.utilisation.utilisation_percent,
            }
        )
    return rows


def render(rows: List[dict]) -> str:
    return render_table(
        ["strategy", "geomean vs native (1T)", "trisolv CPU util % (16T)"],
        [
            (r["strategy"], r["geomean_vs_native_1t"], r["trisolv_util_16t"])
            for r in rows
        ],
        title="Extension — projected CHERI bounds checking on WAVM/x86-64",
    )


def main(argv=None) -> List[dict]:
    parser = argparse.ArgumentParser(
        description=__doc__, parents=[cliopts.sweep_parent()]
    )
    parser.add_argument("--size", default="small", choices=["mini", "small", "medium"])
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    cliopts.configure_sweep(args)
    rows = run(size=args.size, quick=not args.full, verbose=args.verbose)
    print(render(rows))
    path = save_results("extension-cheri", rows)
    print(f"\nsaved {path}")
    return rows


if __name__ == "__main__":
    main()
