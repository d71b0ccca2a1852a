"""``leaps-bench`` — the experiment command-line interface.

Usage::

    leaps-bench fig1 [--size small] [--full]
    leaps-bench fig2 [--isa x86_64|armv8|riscv64|all] ...
    leaps-bench fig3|fig4|fig5|fig6 [--isa x86_64|armv8] ...
    leaps-bench fig-bce [--isa x86_64|armv8]   # bounds-check elimination effect
    leaps-bench fig-cage [--isa armv8|x86_64]  # extension: mte/wasm64 vs the paper's five
    leaps-bench fig-wasi [--isa armv8|x86_64]  # extension: syscall-bound WASI scenarios
    leaps-bench replication ...
    leaps-bench cheri        # extension: projected CHERI strategy
    leaps-bench tiers        # extension: compile-time/code-size/speed
    leaps-bench all          # every figure at its default --isa, one grid
    leaps-bench trace record|summarize|export ...   # event tracing
    leaps-bench diffcheck ...    # differential-correctness harness

Every figure takes ``--size mini|small|medium`` and ``--verbose``;
those that default to a quick workload subset (all but fig-cage and
fig-wasi) take ``--full`` for every workload, and ``all`` passes it
on to them.  Every experiment also accepts the shared sweep knobs
(:mod:`repro.core.cliopts`)::

    --jobs N          # run the sweep across N worker processes
    --no-cache        # read/write neither measurement nor profile cache
    --cache-dir DIR   # cache base directory (default: .cache/)

A figure measures its whole grid in one engine run, and ``all``
measures the union of every figure's grid in one.  Measurements are
cached content-addressed under ``.cache/measurements`` (keyed on
module digest + calibration constants, and the BCE flag when off), so
figures sharing a grid — fig3's thread sweep feeds fig4/fig5/fig6 —
and re-runs are near-free.  ``--jobs N`` output is bit-identical to a
serial run.

Results are printed as the figures' rows/series and saved under
``results/`` as JSON.
"""

from __future__ import annotations

import sys

from repro.core.experiments import (
    extension_cheri,
    extension_tiers,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig_bce,
    fig_cage,
    fig_wasi,
    replication,
)
from repro.core.experiments.common import exit_status, run_all, run_figure
from repro.diffcheck import cli as diffcheck_cli
from repro.trace import cli as trace_cli

#: Subcommand → the module that declares its figure.
_EXPERIMENTS = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig-bce": fig_bce,
    "fig-cage": fig_cage,
    "fig-wasi": fig_wasi,
    "replication": replication,
    "cheri": extension_cheri,
    "tiers": extension_tiers,
}

#: Non-experiment tools: excluded from ``all`` (they observe runs
#: rather than produce figure data).
_TOOLS = {
    "trace": trace_cli.main,
    "diffcheck": diffcheck_cli.main,
}


def main(argv=None) -> int:
    """Run one subcommand; every failure is a non-zero exit status
    (set ``REPRO_DEBUG`` to re-raise with the full traceback)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "all":
        return exit_status(command, lambda: run_all(_EXPERIMENTS, rest))
    if command in _EXPERIMENTS:
        figure = _EXPERIMENTS[command]
        return exit_status(command, lambda: run_figure(command, figure, rest))
    if command in _TOOLS:
        return exit_status(command, lambda: _TOOLS[command](rest))
    print(f"unknown experiment {command!r}; choose from "
          f"{', '.join(list(_EXPERIMENTS) + list(_TOOLS))} or 'all'",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
