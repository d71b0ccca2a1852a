"""``leaps-bench`` — the experiment command-line interface.

Usage::

    leaps-bench fig1 [--size small] [--full]
    leaps-bench fig2 [--isa x86_64|armv8|riscv64|all] ...
    leaps-bench fig3|fig4|fig5|fig6 [--isa x86_64|armv8] ...
    leaps-bench fig-bce      # bounds-check elimination effect
    leaps-bench fig-cage     # extension: mte/wasm64 vs the paper's five
    leaps-bench fig-wasi     # extension: syscall-bound WASI scenarios
    leaps-bench replication ...
    leaps-bench cheri        # extension: projected CHERI strategy
    leaps-bench tiers        # extension: compile-time/code-size/speed
    leaps-bench all          # every figure, quick subsets
    leaps-bench trace record|summarize|export ...   # event tracing
    leaps-bench diffcheck ...    # differential-correctness harness

Every experiment additionally accepts the shared sweep knobs
(:mod:`repro.core.cliopts`)::

    --jobs N          # run the sweep across N worker processes
    --no-cache        # ignore and do not write the measurement cache
    --cache-dir DIR   # cache base directory (default: .cache/)
    --no-bce          # disable the compiler's bounds-check elimination

Measurements are cached content-addressed under ``.cache/measurements``
(keyed on module digest + calibration constants), so figures sharing a
grid — fig3's thread sweep feeds fig4/fig5/fig6 — and re-runs are
near-free.  ``--jobs N`` output is bit-identical to a serial run.

Results are printed as the figures' rows/series and saved under
``results/`` as JSON.
"""

from __future__ import annotations

import os
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
from repro.diffcheck import cli as diffcheck_cli
from repro.trace import cli as trace_cli

_EXPERIMENTS = {
    "fig1": fig1.main,
    "fig2": fig2.main,
    "fig3": fig3.main,
    "fig4": fig4.main,
    "fig5": fig5.main,
    "fig6": fig6.main,
    "fig-bce": fig_bce.main,
    "fig-cage": fig_cage.main,
    "fig-wasi": fig_wasi.main,
    "replication": replication.main,
    "cheri": extension_cheri.main,
    "tiers": extension_tiers.main,
}

#: Non-experiment tools: dispatched like experiments but excluded from
#: ``all`` (they observe runs rather than produce figure data).
_TOOLS = {
    "trace": trace_cli.main,
    "diffcheck": diffcheck_cli.main,
}


def _run_entry(name, entry, rest) -> int:
    """Run one subcommand, mapping every failure to a non-zero exit.

    The experiment mains return row payloads (or an int for the
    tools); before this wrapper an exception escaped as a traceback
    whose exit status argparse/SystemExit conventions could mask, and
    ``all`` treated a crashed figure as success.  Set ``REPRO_DEBUG``
    to re-raise with the full traceback instead.
    """
    try:
        result = entry(rest)
    except SystemExit as exc:  # argparse errors carry their own code
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 1
    return result if isinstance(result, int) else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "all":
        worst = 0
        for name, entry in _EXPERIMENTS.items():
            print(f"\n=== {name} ===\n")
            worst = max(worst, _run_entry(name, entry, rest))
        return worst
    entry = _EXPERIMENTS.get(command) or _TOOLS.get(command)
    if entry is None:
        print(f"unknown experiment {command!r}; choose from "
              f"{', '.join(list(_EXPERIMENTS) + list(_TOOLS))} or 'all'",
              file=sys.stderr)
        return 2
    return _run_entry(command, entry, rest)


if __name__ == "__main__":
    raise SystemExit(main())
