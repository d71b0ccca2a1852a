"""Differential check: bounds-check elimination is *cost-only*.

The BCE pass (:mod:`repro.compiler.bce`) may only remove work, never
change what a program computes or touches.  This phase runs the
selected workloads with the pass off (``run_benchmark(bce=False)``)
and compares against the default (pass enabled) run.  It calls the
harness directly, uncached: measurement keys do not cover compiler
source, so a cached run could hide a change to the pass.

* **identical off the inline path** — for strategies with no inline
  check sequence (``none``/``mprotect``/``uffd``) the pass is stripped
  before compilation, so the entire serialised measurement must be
  byte-identical with BCE on and off;
* **monotone on the inline path** — for the strategies that emit
  per-access check code (``clamp``/``trap``/``mte``/``wasm64``) the
  modelled compute time with BCE on is less than or equal to the time
  with it off (eliding checks cannot add cycles);
* **footprint preserved** — eliding a check never changes which pages
  a run populates;
* **counter conservation** — every dynamic check is accounted for:
  with BCE off nothing is elided, and the checks executed with BCE off
  are covered by (executed + elided) with it on.  The right-hand side
  may exceed the left because widened loop guards *add* a handful of
  preheader executions while eliding per-iteration checks.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.engine import measurement_to_json
from repro.core.harness import RunMeasurement, cell_problem, run_benchmark
from repro.diffcheck.report import DiffReport
from repro.runtime.strategies import STRATEGY_ORDER, strategy_named

CHECK_IDENTICAL = "bce.cost-only-identical"
CHECK_MONOTONE = "bce.inline-cost-monotone"
CHECK_PAGES = "bce.memory-pages-preserved"
CHECK_COUNTERS = "bce.counter-conservation"

#: Runtimes whose compilers run the pass (wasm3 interprets; the native
#: baselines have no bounds checks to elide).
_RUNTIMES = ("wavm", "wasmtime", "v8")

#: Slack for comparing deterministic modelled compute times.
_REL_TOL = 1e-9


def inline_cost_monotone(on: float, off: float) -> bool:
    """Eliding checks cannot add modelled time (``on`` = BCE enabled)."""
    return on <= off * (1 + _REL_TOL)


COUNTERS_RULE = "elided(off) == 0 and emitted(off) <= emitted(on) + elided(on)"


def counters_conserved(on: Mapping[str, int], off: Mapping[str, int]) -> bool:
    """Every dynamic check with BCE off is emitted or elided with it on."""
    return off.get("elided", 0) == 0 and off.get("emitted", 0) <= (
        on.get("emitted", 0) + on.get("elided", 0)
    )


def _measure(
    workload: str, runtime: str, strategy: str, isa: str, size: str, bce: bool
) -> RunMeasurement:
    return run_benchmark(
        workload, runtime, strategy, isa, threads=1, size=size, iterations=2,
        bce=bce,
    )


def check_bce(
    workloads: Sequence[str],
    size: str,
    isa: str,
    report: DiffReport,
) -> None:
    """Compare every configuration with BCE enabled vs disabled."""
    for workload in workloads:
        for runtime in _RUNTIMES:
            for strategy in STRATEGY_ORDER:
                if cell_problem(runtime, strategy, isa) is not None:
                    continue
                on = _measure(workload, runtime, strategy, isa, size, True)
                off = _measure(workload, runtime, strategy, isa, size, False)
                _compare(workload, runtime, strategy, isa, on, off, report)


def _compare(
    workload: str,
    runtime: str,
    strategy: str,
    isa: str,
    on: RunMeasurement,
    off: RunMeasurement,
    report: DiffReport,
) -> None:
    subject = {
        "workload": workload, "runtime": runtime,
        "strategy": strategy, "isa": isa,
    }
    # Classify by the strategy's declared code shape, not a name list:
    # mte and wasm64 also emit per-access checks BCE can elide.
    inline = bool(strategy_named(strategy).inline_check)

    if not inline:
        on_blob = measurement_to_json(on)
        off_blob = measurement_to_json(off)
        report.check(
            CHECK_IDENTICAL,
            on_blob == off_blob,
            subject,
            "measurement changed despite no inline checks to elide",
            expected=off_blob if on_blob != off_blob else None,
            actual=on_blob if on_blob != off_blob else None,
        )
    else:
        report.check(
            CHECK_MONOTONE,
            inline_cost_monotone(on.compute_seconds, off.compute_seconds),
            subject,
            "BCE increased modelled compute time",
            expected=f"<= {off.compute_seconds!r}",
            actual=on.compute_seconds,
        )

    report.check(
        CHECK_PAGES,
        on.kernel_stats.get("pages_populated")
        == off.kernel_stats.get("pages_populated"),
        subject,
        "BCE changed the populated-page count",
        expected=off.kernel_stats.get("pages_populated"),
        actual=on.kernel_stats.get("pages_populated"),
    )

    report.check(
        CHECK_COUNTERS,
        counters_conserved(on.bounds_checks, off.bounds_checks),
        subject,
        "dynamic check counters do not conserve across the toggle",
        expected=COUNTERS_RULE,
        actual={"on": on.bounds_checks, "off": off.bounds_checks},
    )
