#!/usr/bin/env python
"""Interpreter tier benchmark and performance-regression gate.

Measures the wall-clock cost of one ``bench`` invocation per workload
(mini-size PolyBench) under all three execution tiers:

* ``legacy`` — the pre-rewrite one-closure-per-op interpreter, kept
  verbatim as the honest baseline;
* ``fused``  — the pre-decoded fast path: per-op closures, and loop
  handlers running whole call-free loop nests
  (``interpreter._gen_nest``);
* ``opt``    — fused dispatch plus tier 2, which compiles each whole
  call-free function in its shape at its first call
  (``interpreter._gen_function``, NumPy batching from
  :mod:`repro.runtime.vectorize`).

Each timing takes ``--repeats`` (default 5) invocations on a
pre-constructed interpreter, so module decode/validation/plan costs are
excluded and only dispatch throughput is measured.  The *median* of the
five is reported for information; the gated metric is the *best* of
the five — on shared CI machines the minimum estimates the noise-free
floor, while the median still carries scheduler interference.

Noise policy
------------
Raw milliseconds are not comparable across machines, so the committed
baseline (``BENCH_interp.json``) stores *normalized throughput*: wasm
instructions per second divided by the iterations/second of a fixed
pure-Python calibration loop.  Each repeat times the calibration loop
and the invocation back to back in one round (milliseconds apart), so
host slowdowns hit both sides of the ratio.  Normalized throughput is
*recorded* per workload but *not gated*: on shared CI hosts its run-to-
run jitter exceeds any useful threshold.  The gated statistics are the
median-across-workloads fused/legacy and opt/legacy speedups, where
both sides execute the same instruction stream in the same rounds —
empirically stable to a few percent when individual workloads swing
+/-15%.  The gate (``--check``) fails when:

* the median fused/legacy speedup drops below ``--min-speedup``
  (default 3.0, the acceptance floor; a machine-independent ratio),
* the median opt/legacy speedup drops below ``--min-speedup-opt``
  (default 10.0), or
* either median regresses more than ``--threshold`` (default 15%)
  below the committed baseline's ``median_speedup`` /
  ``median_speedup_opt``.

Gate failures name the violating tier and per-workload ratios so a CI
log alone identifies the regression.

To absorb transient spikes the gate re-measures once before failing.
Update the baseline with ``--update-baseline`` after an intentional
interpreter change, and say why in the commit message.

Baseline policy
---------------
On a shared 2-CPU VM one tree's opt/legacy ratio spread 17.6-22.9x
from run to run, so a baseline taken from one run near the top of that
spread fails later ``--check`` runs with no code change.
``--update-baseline`` therefore measures three full runs and writes,
for each of the two gated ratios, the median of the three; every run is
recorded under ``"runs"``, so the spread behind a baseline stays in the
file.  Regenerating until a wanted number appears is picking among
noisy baselines: measure once, keep what it writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.profiles import module_for  # noqa: E402
from repro.runtime.interpreter import Interpreter  # noqa: E402
from repro.runtime.predecode import interpreter_build_digest  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_interp.json"
#: Full runs behind a baseline (see "Baseline policy").
BASELINE_RUNS = 3
WORKLOADS = ("gemm", "2mm", "atax", "trisolv", "jacobi-2d")
SIZE = "mini"
_CALIBRATION_ITERS = 200_000


def _calibration_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc + i) & 0xFFFFFFFF
    return acc


def _interp_for(module, tier: str):
    interp = Interpreter(
        module,
        collect_profile=False,
        track_pages=False,
        validate=False,
        tier=tier,
    )
    interp.invoke("bench")  # warm-up: compiles (and tiers up) every function
    return interp


def _measure_rounds(module, repeats: int):
    """Per-round (calibration_s, legacy_s, fused_s, opt_s) tuples.

    All timings of a round run back to back so transient host
    interference is correlated across them.
    """
    interps = [_interp_for(module, tier) for tier in ("legacy", "fused", "opt")]
    rounds = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_loop(_CALIBRATION_ITERS)
        timings = [time.perf_counter() - start]
        for interp in interps:
            start = time.perf_counter()
            interp.invoke("bench")
            timings.append(time.perf_counter() - start)
        rounds.append(tuple(timings))
    return rounds


def _total_instrs(module) -> int:
    interp = Interpreter(module, collect_profile=True, track_pages=True)
    interp.invoke("bench")
    return interp.take_profile("bench", SIZE).total_instrs


def run_benchmark(repeats: int) -> dict:
    rows = {}
    for name in WORKLOADS:
        module, _ = module_for(name, SIZE)
        total_instrs = _total_instrs(module)
        rounds = _measure_rounds(module, repeats)
        legacy_s = min(r[1] for r in rounds)
        fused_s = min(r[2] for r in rounds)
        opt_s = min(r[3] for r in rounds)
        normalized = statistics.median(
            (total_instrs / f) / (_CALIBRATION_ITERS / c)
            for c, _, f, _ in rounds
        )
        rows[name] = {
            "total_instrs": total_instrs,
            "legacy_ms": round(legacy_s * 1e3, 3),
            "fused_ms": round(fused_s * 1e3, 3),
            "opt_ms": round(opt_s * 1e3, 3),
            "legacy_median_ms": round(
                statistics.median(r[1] for r in rounds) * 1e3, 3
            ),
            "fused_median_ms": round(
                statistics.median(r[2] for r in rounds) * 1e3, 3
            ),
            "opt_median_ms": round(
                statistics.median(r[3] for r in rounds) * 1e3, 3
            ),
            "speedup": round(legacy_s / fused_s, 3),
            "speedup_opt": round(legacy_s / opt_s, 3),
            "fused_instr_per_s": round(total_instrs / fused_s),
            "opt_instr_per_s": round(total_instrs / opt_s),
            "fused_normalized": round(normalized, 4),
        }
    speedups = sorted(row["speedup"] for row in rows.values())
    speedups_opt = sorted(row["speedup_opt"] for row in rows.values())
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "interpreter_build": interpreter_build_digest()[:16],
        "size": SIZE,
        "repeats": repeats,
        "noise_policy": (
            "best-of-%d invoke-only timings (medians reported alongside); "
            "throughput normalized by a pure-Python calibration loop "
            "measured adjacent to each workload; gate re-measures once "
            "before failing" % repeats
        ),
        "workloads": rows,
        "median_speedup": speedups[len(speedups) // 2],
        "median_speedup_opt": speedups_opt[len(speedups_opt) // 2],
    }


def measure_baseline(repeats: int) -> dict:
    """:data:`BASELINE_RUNS` runs: the median of each gated ratio, and
    every run's rows."""
    runs = []
    for _ in range(BASELINE_RUNS):
        runs.append(run_benchmark(repeats))
        print_report(runs[-1])
    baseline = {
        key: runs[0][key]
        for key in ("timestamp", "machine", "interpreter_build", "size", "repeats")
    }
    baseline["noise_policy"] = (
        runs[0]["noise_policy"]
        + "; each gated ratio is the median of %d runs" % BASELINE_RUNS
    )
    for key in ("median_speedup", "median_speedup_opt"):
        baseline[key] = statistics.median(run[key] for run in runs)
    baseline["runs"] = [
        {key: run[key] for key in
         ("timestamp", "median_speedup", "median_speedup_opt", "workloads")}
        for run in runs
    ]
    return baseline


def print_report(report: dict) -> None:
    print(f"interpreter build {report['interpreter_build']}  "
          f"size={report['size']}  repeats={report['repeats']}")
    header = f"{'workload':12s} {'legacy ms':>10s} {'fused ms':>10s} " \
             f"{'opt ms':>10s} {'fused x':>8s} {'opt x':>8s} {'norm.tput':>10s}"
    print(header)
    for name, row in report["workloads"].items():
        print(
            f"{name:12s} {row['legacy_ms']:10.2f} {row['fused_ms']:10.2f} "
            f"{row['opt_ms']:10.2f} {row['speedup']:7.2f}x "
            f"{row['speedup_opt']:7.2f}x {row['fused_normalized']:10.4f}"
        )
    print(f"median speedup: fused {report['median_speedup']:.2f}x, "
          f"opt {report['median_speedup_opt']:.2f}x")


def _per_workload(report: dict, key: str) -> str:
    ratios = sorted(
        (row[key], name) for name, row in report["workloads"].items()
    )
    return ", ".join(f"{name} {ratio:.2f}x" for ratio, name in ratios)


def check(report: dict, threshold: float, min_speedup: float,
          min_speedup_opt: float) -> list:
    """Gate failures (empty list = pass) for one measured report.

    Each failure message names the violating tier, the measured ratio,
    and the per-workload breakdown so CI logs are diagnosable alone.
    """
    failures = []
    gates = [
        ("fused", "median_speedup", "speedup", min_speedup),
        ("opt", "median_speedup_opt", "speedup_opt", min_speedup_opt),
    ]
    for tier, median_key, row_key, floor_ratio in gates:
        measured = report[median_key]
        if measured < floor_ratio:
            failures.append(
                f"tier {tier}: median {tier}/legacy speedup {measured:.2f}x "
                f"is below the {floor_ratio:.1f}x floor "
                f"(per workload: {_per_workload(report, row_key)})"
            )
    if not BASELINE_PATH.exists():
        failures.append(f"missing baseline {BASELINE_PATH.name}")
        return failures
    baseline = json.loads(BASELINE_PATH.read_text())
    for tier, median_key, row_key, _ in gates:
        base = baseline.get(median_key)
        if base is None:
            failures.append(
                f"tier {tier}: baseline {BASELINE_PATH.name} has no "
                f"{median_key}; regenerate it with --update-baseline"
            )
            continue
        measured = report[median_key]
        if measured < base * (1.0 - threshold):
            drop = 1.0 - measured / base
            failures.append(
                f"tier {tier}: median speedup {measured:.2f}x is {drop:.0%} "
                f"below the baseline {base:.2f}x (threshold {threshold:.0%}; "
                f"per workload: {_per_workload(report, row_key)})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=f"measure {BASELINE_RUNS} runs and write their medians "
             f"to {BASELINE_PATH.name}",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on regression vs the committed baseline",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="allowed normalized-throughput regression (default 0.15)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required median fused/legacy speedup (default 3.0)",
    )
    parser.add_argument(
        "--min-speedup-opt", type=float, default=10.0,
        help="required median opt/legacy speedup (default 10.0)",
    )
    args = parser.parse_args(argv)

    if args.update_baseline:
        baseline = measure_baseline(args.repeats)
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"median of {BASELINE_RUNS} runs: "
              f"fused {baseline['median_speedup']:.2f}x, "
              f"opt {baseline['median_speedup_opt']:.2f}x")
        print(f"baseline written to {BASELINE_PATH.name}")
        return 0

    report = run_benchmark(args.repeats)
    print_report(report)

    if args.check:
        failures = check(
            report, args.threshold, args.min_speedup, args.min_speedup_opt
        )
        if failures:
            # Noise policy: one re-measure absorbs transient CI spikes.
            print("gate failed, re-measuring once to rule out noise:")
            for failure in failures:
                print(f"  - {failure}")
            report = run_benchmark(args.repeats)
            print_report(report)
            failures = check(
                report, args.threshold, args.min_speedup, args.min_speedup_opt
            )
        if failures:
            print("PERF GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
