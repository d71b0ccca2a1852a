"""One benchmark sample: set up the engine, then a cold pass and warm passes.

``run.py`` starts this script as a fresh process for every sample, so
each sample pays interpreter start-up, ``import repro`` and engine
set-up, profiles into an empty cache directory, and has a peak RSS of
its own::

    python3 sweepbench/passes.py --workload polybench-grid --seed 1 \\
        --cache-dir DIR --t0 MONOTONIC [--warm-reps K] [--warm-budget S] \\
        [--trace-out FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until ``configure`` returns.
The report is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Span name of the benchmark's own call into the facade; its self time
#: is the engine's cache I/O and bookkeeping.
MEASURE_SPAN = "repro.api.measure"


def clear_repro_environment() -> None:
    """Drop every ambient ``REPRO_*`` knob, so the defaults are measured."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def cell_digest(measurement) -> str:
    """Digest of every field the engine caches for one cell."""
    from repro.core.engine import measurement_to_json

    canonical = json.dumps(measurement_to_json(measurement), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_pass(specs, tracer=None) -> list:
    """Measure every grid through the facade; (request, result) pairs.

    A grid whose cells raised still yields every row: the engine runs
    the whole grid before raising, and the failure carries the rows.
    """
    from repro import api
    from repro.core.engine import SweepFailure

    rows = []
    for spec in specs:
        with tracer.span(MEASURE_SPAN, "engine") if tracer else nullcontext():
            try:
                swept = api.measure(spec)
                rows.extend(zip(swept.requests, swept.results))
            except SweepFailure as failure:
                rows.extend(zip(spec.requests(), failure.results))
    return rows


def forget_process_state() -> None:
    """Drop the in-process memos a fresh ``leaps-bench`` run starts without."""
    from repro.core import engine, profiles
    from repro.runtimes.registry import RUNTIMES

    profiles.clear_profile_cache()
    engine.reset_default_engine()
    engine._calibration_memo.clear()
    for model in RUNTIMES.values():
        model._cache.clear()
        model._cycles_cache.clear()
        model._check_cache.clear()


def speed_probe(rounds: int = 9, count: int = 150_000) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed now.

    It touches no program code, so no change to ``repro`` can move it.
    """
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(count):
            acc = (acc + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def tail_quantile(count: int) -> float:
    """The highest quantile with at least ten samples beyond it (≤ p99)."""
    if count < 20:
        return 1.0
    return min(0.99, 1.0 - 10.0 / count)


def nearest_rank(values, quantile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def measure_workload(specs, cache_dir: Path, warm_reps: int,
                     warm_budget_s: float = 0.0, tracer=None) -> dict:
    """A cold pass into ``cache_dir``, then the warm passes.

    Warm passes repeat until there are ``warm_reps`` of them and they
    took ``warm_budget_s`` together, so a pass of a few milliseconds is
    still timed many times.  The engine must already be configured on
    ``cache_dir``.  Each warm pass starts from a fresh engine with every
    in-process memo cleared, so it reads only the disk cache the cold
    pass filled.
    """
    from repro.core import engine

    probe_s = speed_probe()
    wall_start = time.perf_counter()
    cold = run_pass(specs, tracer)
    cold_s = time.perf_counter() - wall_start
    cache_bytes = tree_bytes(cache_dir)
    warm_s, warm_rows = [], []
    while len(warm_s) < warm_reps or sum(warm_s) < warm_budget_s:
        forget_process_state()
        engine.configure(jobs=1, cache_dir=cache_dir)
        started = time.perf_counter()
        warm_rows.append(run_pass(specs, tracer))
        warm_s.append(time.perf_counter() - started)
    wall_s = time.perf_counter() - wall_start

    cells, errors, warm_failures = {}, [], []
    for request, result in cold:
        label = request.label()
        if label in cells:
            raise ValueError(f"grid repeats the cell {label}")
        cells[label] = cell_digest(result.measurement) if result.ok else None
        if not result.ok:
            errors.append(result.error.label())
    for rows in warm_rows:
        for request, result in rows:
            label = request.label()
            if not result.ok:
                warm_failures.append(f"warm {result.error.label()}")
            elif not result.cache_hit:
                warm_failures.append(f"warm {label}: recomputed, not read from the cache")
            elif cell_digest(result.measurement) != cells.get(label):
                warm_failures.append(f"warm {label}: differs from its cold row")
    report = {
        # The host's speed just before the cold pass.
        "probe_s": probe_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        # Cold cell label -> result digest (None where the cell raised).
        "cells": cells,
        "errors": errors,
        "warm_cells": sum(len(rows) for rows in warm_rows),
        "warm_failures": warm_failures,
    }
    if tracer is not None:
        report["layers"] = layer_report(
            tracer, cold, warm_rows, cache_bytes, wall_s
        )
    return report


def layer_report(tracer, cold, warm_rows, cache_bytes: int, wall_s: float) -> dict:
    """Per-layer metrics: the tracer's own plus those read off the rows."""
    metrics = tracer.metrics()
    rows = cold + [row for rows in warm_rows for row in rows]
    hits = sum(1 for _, result in rows if result.ok and result.cache_hit)
    cell_ms = [result.elapsed * 1e3 for _, result in cold]
    metrics.update({
        "engine.io_s": (
            tracer.total(MEASURE_SPAN)
            - sum(result.elapsed for _, result in rows)
            - metrics["engine.key_s"]
        ),
        "engine.hits": hits,
        "engine.misses": len(rows) - hits,
        "engine.cache_bytes": cache_bytes,
        "engine.cells": len(cell_ms),
        "engine.cell_ms_p50": statistics.median(cell_ms),
        "engine.cell_ms_tail": nearest_rank(cell_ms, tail_quantile(len(cell_ms))),
        # fsum: exact, so the total does not depend on the seed's order.
        "sim.simulated_s": math.fsum(
            result.measurement.wall_seconds for _, result in cold if result.ok
        ),
        "trace.wall_s": wall_s,
        "unattributed_s": wall_s - sum(tracer.layer_self().values()),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--warm-reps", type=int, default=1)
    parser.add_argument("--warm-budget", type=float, default=0.0,
                        help="least seconds of warm passes (default 0)")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    clear_repro_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        # Never measure some other installed copy of the program.
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    from repro import api  # noqa: F401  (the facade is part of set-up)
    from repro.core import engine

    engine.configure(jobs=1, cache_dir=args.cache_dir)
    setup_s = time.monotonic() - args.t0

    import grids
    from repro.runtime.predecode import interpreter_build_digest

    specs = grids.specs(args.workload, args.seed)
    tracer = None
    if args.trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        report = measure_workload(
            specs, args.cache_dir, args.warm_reps, args.warm_budget, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(args.trace_out)
    report.update({
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "interpreter_build": interpreter_build_digest()[:16],
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
