"""Extension — projecting CHERI capability-based bounds checking.

§2.3 of the paper singles out CHERI as "an upcoming, promising
approach ... providing capability-checked memory accesses", but could
not evaluate it for lack of hardware.  This extension experiment adds
a sixth, *projected* strategy to the comparison matrix using the
published characteristics of CHERI implementations (Woodruff et al.
[34]; the CHERI-RISC-V/Morello literature):

* bounds/permission checks happen in the capability load/store pipe —
  **no extra instructions** and no detectable per-check latency;
* pointers become 128-bit capabilities, so pointer-dense data doubles
  in size; the projection prices no per-access tax for that, so its
  single-thread cost equals ``none``;
* memory management needs no guard reservation, no mprotect dance and
  no userfaultfd: grow is a capability re-derivation (cheap, no
  exclusive kernel lock), so multithreaded scaling matches `uffd`.

The strategy itself is ``cheri`` in :mod:`repro.runtime.strategies`.
The experiment prints the Fig. 2-style single-thread comparison with
`cheri` added, plus the 16-thread utilisation check.
"""

from __future__ import annotations

from typing import List

from repro import api
from repro.core.experiments.common import (
    BASELINE,
    median_by_workload,
    suite_names,
)
from repro.reporting import render_table
from repro.stats import geomean_of_ratios

ISAS = ()
ISA = "x86_64"
FULL = True
STEM = "extension-cheri"

STRATEGIES = ("none", "trap", "mprotect", "uffd", "cheri")


def specs(isa: str, size: str, quick: bool) -> list:
    workloads = suite_names("polybench", quick)
    return [
        api.SweepSpec(
            workloads, runtimes=(BASELINE,), strategies=("none",),
            isas=(isa,), size=size,
        ),
        api.SweepSpec(
            workloads, runtimes=("wavm",), strategies=STRATEGIES,
            isas=(isa,), size=size,
        ),
        api.SweepSpec(
            ("trisolv",), runtimes=("wavm",), strategies=STRATEGIES,
            isas=(isa,), threads=(16,), size=size,
        ),
    ]


def derive(swept, isa: str, size: str, quick: bool) -> List[dict]:
    workloads = suite_names("polybench", quick)
    baseline = median_by_workload(swept, workloads, BASELINE, "none", isa)
    rows: List[dict] = []
    for strategy in STRATEGIES:
        measured = median_by_workload(swept, workloads, "wavm", strategy, isa)
        contended = swept.cell("trisolv", "wavm", strategy, isa, 16)
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
