"""Shared plumbing for the figure experiments."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Sequence

from repro import api
from repro.core.harness import cell_problem
from repro.runtime.strategies import PAPER_STRATEGY_ORDER
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


def suite_names(suite: str, quick: bool) -> List[str]:
    if quick:
        return list(PBC_QUICK if suite == "polybench" else SPEC_QUICK)
    return [w.name for w in suite_workloads(suite)]


def configs_for_isa(isa: str) -> List[tuple]:
    """(runtime, strategy) combinations available on an ISA (§3.2/3.4).

    The paper's five strategies only: fig2–fig6 reproduce the published
    grids, so the hardware-assisted extensions (mte, wasm64) stay out
    of them — fig-cage covers those.
    """
    return [
        (runtime, strategy)
        for runtime in RUNTIME_ORDER
        for strategy in PAPER_STRATEGY_ORDER
        if cell_problem(runtime, strategy, isa) is None
    ]


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
    and strategies, so each pair is its own spec; a figure passes them
    all to its one strict :func:`repro.api.measure` call.
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
    """Workload → median single-thread iteration seconds of one configuration.

    ``swept`` is a figure's one :func:`repro.api.measure` result.
    """
    return {
        name: swept.cell(name, runtime, strategy, isa).median_iteration
        for name in workloads
    }


def results_dir() -> Path:
    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_results(name: str, payload: object) -> Path:
    path = results_dir() / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
