#!/usr/bin/env python3
"""Sweep-pipeline benchmark: cold/warm wall clock and a traced layer split.

    python3 sweepbench/run.py --workload polybench-grid --seed 1 \\
        --seconds 30 --trace 0

Runs one workload (a fixed set of sweep grids, see ``grids.py``) through
``repro.api.measure``, serially, into fresh empty cache directories.
Every sample is a new process (``passes.py``) that imports ``repro``,
configures the engine, measures the grids cold, then warm from the disk
cache it just filled.  Samples repeat until ``--seconds`` is spent (at
least three); the metrics are medians over samples, ``setup_s`` and
``cold_s`` scaled to a reference host speed (see :func:`end_to_end`).

``--trace 0`` prints the end-to-end metrics (host clock):
``setup_s``, ``cold_s``, ``warm_s`` and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics of the traced ones, plus the tracing overhead; the
spans of the last traced sample are written to
``.bench_work/spans-<workload>.json``.

Every cell's simulated result is checked against ``reference.json``;
``--write-reference`` regenerates that file from the current program.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the interpreter build, Python version and CPU count.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import grids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

#: Fewest untraced samples a ``--trace 0`` run reports a median of.
MIN_SAMPLES = 3
#: Warm passes per untraced sample: at least this many, and together at
#: least this long (a warm pass can take only milliseconds).
WARM_REPS = 3
WARM_BUDGET_S = 0.5
#: No sample starts once the run would end later than this.
HARD_LIMIT_S = 150.0
#: The speed probe's median time on a quiet 2-CPU Xeon (Sapphire Rapids)
#: VM under Python 3.11: host-speed-scaled times read as on that host.
REFERENCE_PROBE_S = 0.011

#: Per-layer counts that must repeat exactly across traced samples.
EXACT = (
    "workloads.builds", "runtime.profiles", "runtime.wasm_instrs",
    "compiler.compiles", "compiler.static_ops", "runtimes.cycles_calls",
    "runtimes.cycles_hit_ratio", "sim.runs", "sim.events", "sim.simulated_s",
    "oskernel.populate_calls", "oskernel.pages_populated",
    "oskernel.zap_calls", "oskernel.pages_zapped",
    "engine.hits", "engine.misses", "engine.cells", "engine.cache_bytes",
)


class SampleFailed(RuntimeError):
    """A sample process exited abnormally or overran the time limit."""


def sample(workload: str, seed: int, run_dir: Path, deadline: float,
           trace_out: Optional[Path] = None) -> dict:
    """Run one sample process in a fresh directory; its JSON report.

    A traced sample makes a single warm pass: its spans, not its warm
    time, are what it is for.
    """
    child_dir = Path(tempfile.mkdtemp(dir=run_dir))
    command = [
        sys.executable, str(HERE / "passes.py"),
        "--workload", workload, "--seed", str(seed),
        "--cache-dir", str(child_dir / "cache"),
    ]
    if trace_out is None:
        command += ["--warm-reps", str(WARM_REPS),
                    "--warm-budget", str(WARM_BUDGET_S)]
    else:
        command += ["--trace-out", str(trace_out)]
    try:
        started = time.monotonic()
        proc = subprocess.run(
            command + ["--t0", repr(started)],
            cwd=child_dir, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"sample overran the time limit: {exc}") from None
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"sample process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path):
    """Untraced (and, with ``trace``, traced) samples until time is spent."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S + 20.0
    untraced, traced = [], []
    while True:
        untraced.append(sample(workload, seed, run_dir, deadline))
        if trace:
            traced.append(sample(
                workload, seed, run_dir, deadline,
                trace_out=WORK / f"spans-{workload}.json",
            ))
        elapsed = time.monotonic() - started
        next_end = elapsed * (len(untraced) + 1) / len(untraced)
        enough = len(untraced) >= (1 if trace else MIN_SAMPLES)
        if (enough and next_end > seconds) or next_end > HARD_LIMIT_S:
            return untraced, traced


def check(workload: str, reports: list, reference: dict):
    """(attempted, failure messages) over every sample's cells."""
    expected = reference.get(workload, {})
    attempted, failures = 0, []
    for report in reports:
        cells = report["cells"]
        labels = sorted(set(cells) | set(expected))
        attempted += len(labels) + report["warm_cells"]
        failures += report["errors"] + report["warm_failures"]
        for label in labels:
            if label not in cells:
                failures.append(f"{label}: missing from the grid")
            elif cells[label] is not None and cells[label] != expected.get(label):
                failures.append(f"{label}: differs from the reference")
    return attempted, failures


def declared_units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for group in ("end_to_end", "per_layer")
        for metric in declared[group]
    }


def end_to_end(untraced: list) -> dict:
    """Medians over samples; ``warm_s`` is the best of every warm pass.

    ``setup_s`` and ``cold_s`` are in reference-host seconds: the medians
    of the wall times, scaled by ``REFERENCE_PROBE_S`` over the median
    speed probe of the run.  A shared host's speed drifts by up to 2x
    over minutes and moves every sample of a run alike; the probe, a
    fixed loop timed in each sample just before its cold pass, moves with
    it.  A warm pass takes milliseconds on some workloads, where host
    noise only ever adds time: the best of hundreds of passes repeats
    better across runs than their median (as ``timeit`` reasons), and
    better than its scaled median.
    """
    median = statistics.median
    speed = REFERENCE_PROBE_S / median(r["probe_s"] for r in untraced)
    return {
        "setup_s": median(r["setup_s"] for r in untraced) * speed,
        "cold_s": median(r["cold_s"] for r in untraced) * speed,
        "warm_s": min(s for r in untraced for s in r["warm_s"]),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
    }


def wall_clock(untraced: list) -> dict:
    """The unscaled medians, for the context line."""
    median = statistics.median
    return {
        "setup_wall_s": median(r["setup_s"] for r in untraced),
        "cold_wall_s": median(r["cold_s"] for r in untraced),
        "probe_s": median(r["probe_s"] for r in untraced),
    }


def per_layer(untraced: list, traced: list, failures: list) -> dict:
    """Medians over traced samples; exact counts must agree across them."""
    median = statistics.median
    metrics = {
        name: median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    for name in EXACT:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            failures.append(f"{name}: differs between traced samples {sorted(values)}")
    metrics["trace.overhead_ratio"] = (
        median(r["cold_s"] for r in traced) / median(r["cold_s"] for r in untraced)
    )
    return metrics


def write_reference(run_dir: Path) -> None:
    """Regenerate reference.json: one sample per workload, seed 0."""
    reference = {}
    for workload in grids.GRIDS:
        report = sample(workload, 0, run_dir, time.monotonic() + 900.0)
        problems = report["errors"] + report["warm_failures"]
        if problems:
            raise SampleFailed(f"{workload}: " + "; ".join(problems[:5]))
        reference[workload] = dict(sorted(report["cells"].items()))
        print(f"{workload}: {len(reference[workload])} cells", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(grids.GRIDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running sample and the run's working directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        if args.write_reference:
            write_reference(run_dir)
            return 0
        reference = json.loads(REFERENCE.read_text())
        untraced, traced = collect(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir
        )
    except SampleFailed as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failures = check(args.workload, untraced + traced, reference)
    if args.trace:
        metrics = per_layer(untraced, traced, failures)
    else:
        metrics = end_to_end(untraced)
    units = declared_units()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    first = untraced[0]
    print(json.dumps({"context": {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(untraced),
        "traced_samples": len(traced),
        "cells": len(first["cells"]),
        "fail_ratio": len(failures) / attempted,
        **wall_clock(untraced),
        "interpreter_build": first["interpreter_build"],
        "python": first["python"],
        "cpus": first["cpus"],
    }}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
