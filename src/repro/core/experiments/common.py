"""Shared plumbing for the figure experiments, and the code that runs them.

Each module of this package declares its figure and nothing else:

* ``specs(isa, size, quick)`` — the sweep specs of its grid;
* ``derive(swept, isa, size, quick)`` — its payload, the rows saved as
  JSON, read from the measured cells with ``swept.cell``;
* ``render(payload)`` — the printed figure, from the payload alone;
* ``STEM`` — the results-file stem (``{isa}`` is filled in);
* ``ISAS`` — its ``--isa`` choices (empty: no ``--isa``), and ``ISA``
  the default (or the one ISA it measures; None if its rows span
  several);
* ``FULL`` — whether it takes ``--full``, i.e. whether it defaults to
  the quick workload subsets (``quick`` is then False).

:func:`run_figure` and :func:`run_all` parse the flags, measure every
figure's grid in one strict :func:`repro.api.measure` call, then
derive, print and save each figure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro import api
from repro.core import cliopts
from repro.core.engine import SweepFailure
from repro.core.harness import cell_problem
from repro.runtime.strategies import PAPER_STRATEGY_ORDER, STRATEGY_ORDER
from repro.workloads import suite_workloads

#: Representative subsets for the system-level (multi-thread) figures:
#: they span long/short iterations, float/integer kernels, and the
#: memory-intensity range — chosen so the contention effects the paper
#: reports on "short-running benchmarks" are represented.
PBC_QUICK = [
    "gemm", "2mm", "atax", "trisolv", "jacobi-2d",
    "cholesky", "floyd-warshall", "deriche",
]
SPEC_QUICK = ["505.mcf", "519.lbm", "557.xz"]

#: Runtime rows in the paper's presentation order (Fig. 2).
RUNTIME_ORDER = ["native-gcc", "wavm", "wasmtime", "v8", "wasm3"]
BASELINE = "native-clang"

#: The suites of the thread-scaling figures (fig3–fig6), in row order.
SCALING_SUITES = ("polybench", "spec")


def suite_names(suite: str, quick: bool) -> List[str]:
    if quick:
        return list(PBC_QUICK if suite == "polybench" else SPEC_QUICK)
    return [w.name for w in suite_workloads(suite)]


def configs_for_isa(
    isa: str,
    runtimes: Sequence[str] = RUNTIME_ORDER,
    strategies: Sequence[str] = PAPER_STRATEGY_ORDER,
) -> List[tuple]:
    """(runtime, strategy) combinations available on an ISA (§3.2/3.4).

    By default the paper's five strategies only: fig2–fig6 reproduce
    the published grids, so the hardware-assisted extensions (mte,
    wasm64) stay out of them — fig-cage covers those.
    """
    return [
        (runtime, strategy)
        for runtime in runtimes
        for strategy in strategies
        if cell_problem(runtime, strategy, isa) is None
    ]


def strategies_for(runtime: str, isa: str) -> List[str]:
    """Every strategy of ``STRATEGY_ORDER`` that ``runtime`` runs on
    ``isa`` (fig-cage, fig-wasi: no mte on x86_64)."""
    return [s for _, s in configs_for_isa(isa, (runtime,), STRATEGY_ORDER)]


def config_specs(
    workloads: Sequence[str],
    configs: Sequence[tuple],
    isa: str,
    size: str,
    threads: Sequence[int] = (1,),
    bce: bool = True,
) -> List[api.SweepSpec]:
    """One spec per (runtime, strategy) pair of ``configs``.

    Figures measure a list of pairs, not the product of their runtimes
    and strategies, so each pair is its own spec.
    """
    return [
        api.SweepSpec(
            workloads, runtimes=(runtime,), strategies=(strategy,),
            isas=(isa,), threads=tuple(threads), size=size, bce=bce,
        )
        for runtime, strategy in configs
    ]


def median_by_workload(
    swept, workloads, runtime: str, strategy: str, isa: str
) -> Dict[str, float]:
    """Workload → median single-thread iteration seconds of one configuration."""
    return {
        name: swept.cell(name, runtime, strategy, isa).median_iteration
        for name in workloads
    }


def scaling_specs(
    isa: str, size: str, quick: bool, threads: Sequence[int]
) -> List[api.SweepSpec]:
    """fig3–fig6's grid: both suites × every configuration × ``threads``."""
    workloads = [
        name for suite in SCALING_SUITES for name in suite_names(suite, quick)
    ]
    return config_specs(workloads, configs_for_isa(isa), isa, size, threads)


def scaling_rows(
    swept,
    isa: str,
    quick: bool,
    threads: Sequence[int],
    column: str,
    value: Callable[[Callable[[int], list], int], float],
) -> List[dict]:
    """fig3–fig6's rows: one per suite × configuration × thread count.

    ``column`` holds ``value(cells, t)``, where ``cells(n)`` lists the
    suite's cells of the row's configuration at ``n`` threads.
    """
    rows: List[dict] = []
    for suite in SCALING_SUITES:
        workloads = suite_names(suite, quick)
        for runtime, strategy in configs_for_isa(isa):
            def cells(n: int) -> list:
                return [
                    swept.cell(name, runtime, strategy, isa, n)
                    for name in workloads
                ]

            for t in threads:
                rows.append(
                    {
                        "isa": isa,
                        "suite": suite,
                        "runtime": runtime,
                        "strategy": strategy,
                        "threads": t,
                        column: value(cells, t),
                    }
                )
    return rows


def results_dir() -> Path:
    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_results(name: str, payload: object) -> Path:
    path = results_dir() / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


# --------------------------------------------------------------------------
# Running figures: parse the flags, measure, print and save.

def exit_status(name: str, call: Callable[[], object]) -> int:
    """Run ``call()``, mapping every failure to a non-zero exit status.

    An exception prints ``<name>: error: <message>`` and gives 1 (set
    ``REPRO_DEBUG`` to re-raise it with its traceback); a SystemExit
    (argparse) keeps its code; an int result is the status.
    """
    try:
        result = call()
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except Exception as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 1
    return result if isinstance(result, int) else 0


def _parser(figure=None) -> argparse.ArgumentParser:
    """The flags of one figure's subcommand, or of ``all`` (no figure)."""
    parser = argparse.ArgumentParser(
        description=figure.__doc__ if figure else (
            "Every figure, measured as one grid; --full reaches the "
            "figures that take it."
        ),
        parents=[cliopts.sweep_parent()],
    )
    if figure is not None and figure.ISAS:
        parser.add_argument("--isa", default=figure.ISA, choices=figure.ISAS)
    parser.add_argument("--size", default="small", choices=["mini", "small", "medium"])
    if figure is None or figure.FULL:
        parser.add_argument(
            "--full", action="store_true",
            help="every workload of each suite, not the quick subset",
        )
    parser.add_argument("--verbose", action="store_true")
    parser.set_defaults(isa=figure.ISA if figure else None, full=False)
    return parser


def run_figure(name: str, figure, argv=None) -> int:
    """``leaps-bench <name>``: one figure at the flags it takes."""
    args = _parser(figure).parse_args(argv)
    settings = dict(isa=args.isa, size=args.size, quick=not args.full)
    return _drive([(name, figure, settings)], args)


def run_all(figures: Dict[str, object], argv=None) -> int:
    """``leaps-bench all``: every figure at its default ``--isa``."""
    args = _parser().parse_args(argv)
    plans = [
        (
            name,
            figure,
            dict(isa=figure.ISA, size=args.size,
                 quick=not (args.full and figure.FULL)),
        )
        for name, figure in figures.items()
    ]
    return _drive(plans, args, banner=True)


def _drive(plans, args, banner: bool = False) -> int:
    """Measure every plan's grid in one engine run, then derive, print
    and save each figure; the worst exit status wins.

    A failed cell fails only the figures that read it: the others
    still print and save.
    """
    cliopts.configure_sweep(args)
    specs = [
        spec
        for _, figure, settings in plans
        for spec in figure.specs(**settings)
    ]
    try:
        swept = api.measure(*specs, strict=True, verbose=args.verbose)
    except SweepFailure as failure:
        swept = api.SweepMeasurements(
            [request for spec in specs for request in spec.requests()],
            failure.results,
        )
    worst = 0
    for name, figure, settings in plans:
        if banner:
            print(f"\n=== {name} ===\n")
        worst = max(
            worst,
            exit_status(name, lambda: _publish(figure, swept, settings)),
        )
    return worst


def _publish(figure, swept, settings: dict) -> None:
    payload = figure.derive(swept, **settings)
    print(figure.render(payload))
    path = save_results(figure.STEM.format(isa=settings["isa"]), payload)
    print(f"\nsaved {path}")
