"""The benchmark's workloads: fixed sweep grids run through ``repro.api``.

Every grid skips invalid combinations (``strict=False``) and uses only
the paper's five bounds strategies.  The seed never changes which cells
a workload measures, only the order of each grid axis, so every seed
does the same work and must reproduce the same per-cell results.

This module is plain data until :func:`specs` is called, so the
benchmark's parent process can list workloads without importing
``repro``.
"""

from __future__ import annotations

import random
from typing import Dict, List

PAPER_STRATEGIES = ("none", "clamp", "trap", "mprotect", "uffd")
ALL_RUNTIMES = ("native-clang", "native-gcc", "wavm", "wasmtime", "v8", "wasm3")
ALL_ISAS = ("x86_64", "armv8", "riscv64")

#: A spread of PolyBench kernel families: BLAS-like, solvers, stencils.
POLYBENCH = (
    "gemm", "2mm", "atax", "bicg", "mvt",
    "trisolv", "lu", "durbin", "jacobi-2d", "seidel-2d",
)
#: The profiling pairs: native-clang/none, wavm/{none,mprotect,trap},
#: wasm3/trap (the other runtime × strategy combinations are skipped).
PROFILE_PAIRS = {
    "runtimes": ("native-clang", "wavm", "wasm3"),
    "strategies": ("none", "mprotect", "trap"),
}
WASI = ("wasi-grep", "wasi-checksum", "wasi-montecarlo", "wasi-logappend")

#: One timed iteration and no warm-up: the profiling grids exist to run
#: the interpreter, so the simulation per cell is kept short.
PROFILE_RUN = {"iterations": 1, "warmup": 0}

#: Workload name -> the ``SweepSpec`` keyword sets it measures, in order.
GRIDS: Dict[str, List[dict]] = {
    "spec-scaling": [
        dict(
            workloads=("525.x264",),
            runtimes=("wavm", "v8"),
            strategies=("mprotect", "uffd"),
            threads=(16,),
        ),
    ],
    "polybench-grid": [
        dict(
            workloads=POLYBENCH,
            runtimes=ALL_RUNTIMES,
            strategies=PAPER_STRATEGIES,
            isas=ALL_ISAS,
        ),
    ],
    "spec-profile": [
        dict(workloads=("505.mcf", "525.x264", "508.namd", "544.nab"),
             **PROFILE_PAIRS, **PROFILE_RUN),
        # 557.xz at size small profiles for about 20 s on its own.
        dict(workloads=("557.xz",), size="mini", **PROFILE_PAIRS, **PROFILE_RUN),
        dict(workloads=WASI, scenario="wasi", **PROFILE_PAIRS, **PROFILE_RUN),
    ],
}

_SHUFFLED_AXES = ("workloads", "runtimes", "strategies", "isas")


def specs(workload: str, seed: int) -> list:
    """The workload's grids as ``SweepSpec`` values, axes seed-shuffled."""
    from repro.api import SweepSpec

    rng = random.Random(f"{workload}:{seed}")
    out = []
    for grid in GRIDS[workload]:
        fields = dict(grid)
        for axis in _SHUFFLED_AXES:
            if axis in fields:
                values = list(fields[axis])
                rng.shuffle(values)
                fields[axis] = tuple(values)
        out.append(SweepSpec(**fields))
    # The grids themselves keep their order: which grid runs last moves
    # the peak RSS by about 7 % on spec-profile.
    return out
