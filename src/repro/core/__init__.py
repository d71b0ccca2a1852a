"""The paper's contribution: the benchmarking harness and experiments.

This package mirrors the paper's measurement infrastructure (§3.5):
a harness that loads a workload into a runtime configuration, spawns
pinned worker threads (or processes, for native code), runs warm-up and
timed iterations, and collects execution times, ``/proc/stat`` CPU
utilisation, context-switch rates and memory usage — all against the
simulated machine, kernel and runtime models.

``experiments/`` regenerates every figure of the paper's evaluation;
see DESIGN.md §4 for the index.
"""

from repro.core.config import PAPER_TARGETS
from repro.core.harness import RunMeasurement, run_benchmark
from repro.core.profiles import profile_for, clear_profile_cache

__all__ = [
    "PAPER_TARGETS",
    "RunMeasurement",
    "run_benchmark",
    "profile_for",
    "clear_profile_cache",
]
