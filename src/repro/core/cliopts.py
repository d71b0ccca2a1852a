"""Shared CLI flags for everything that runs measurement sweeps.

Every experiment and the diffcheck harness take the same engine knobs
(``--jobs/--no-cache/--cache-dir``).  They used to re-declare them
individually (so defaults and help text could drift); now they all
attach this module's argparse *parent*::

    parser = argparse.ArgumentParser(parents=[cliopts.sweep_parent()])
    ...
    args = parser.parse_args(argv)
    engine = cliopts.configure_sweep(args)

:func:`configure_sweep` applies the parsed knobs to the process-wide
measurement engine and returns it.  Bounds-check elimination is not a
knob: it is a field of each sweep spec, and fig-bce measures both
settings in one grid.
"""

from __future__ import annotations

import argparse


def _jobs_arg(value: str):
    """``--jobs`` accepts an int or "auto" (argparse type callback)."""
    if value == "auto":
        return "auto"
    return int(value)


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared sweep flags to an existing parser."""
    group = parser.add_argument_group("measurement engine")
    group.add_argument(
        "--jobs", type=_jobs_arg, default="auto", metavar="N",
        help="worker processes for the sweep, or 'auto' to size to the "
        "machine with a serial fallback for single-CPU hosts "
        "(default: auto)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="recompute: read and write neither the measurement nor the "
        "profile cache",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache base directory (default: .cache/)",
    )


def sweep_parent() -> argparse.ArgumentParser:
    """A fresh parent parser carrying the shared sweep flags.

    Built per call (argparse parents share action objects, so a module
    singleton would couple every consumer's parser state).
    """
    parent = argparse.ArgumentParser(add_help=False)
    add_sweep_args(parent)
    return parent


def configure_sweep(args: argparse.Namespace):
    """Apply parsed sweep flags process-wide; returns the engine."""
    from repro.core.engine import configure

    return configure(
        jobs=args.jobs, cache=not args.no_cache, cache_dir=args.cache_dir
    )
