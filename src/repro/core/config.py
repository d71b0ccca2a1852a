"""Paper-scale targets: the per-workload anchor of every measurement.

Our functional profiles execute kernels at reduced dimensions
(``workloads/sizes.py``); system-level experiments must nevertheless
see iteration durations and working sets matching the configurations
the paper ran (PolyBench MEDIUM, SPEC Train), because the
mprotect-contention result (§4.1.1) depends on the ratio of
per-iteration kernel work to per-iteration memory-management work —
the paper stresses it is the *short-running* benchmarks that suffer.

:data:`PAPER_TARGETS` therefore records, per workload, an estimated
native-x86 iteration duration and data footprint at paper scale,
derived from the PolyBench MEDIUM dataset dimensions (flop counts on a
~2 GHz server core) and SPEC Train run behaviour (scaled from minutes
down to seconds to keep simulated time tractable — contention effects
depend on *rates*, which this preserves).  The harness turns them into
per-workload time/page scale factors anchored to the native-Clang
cycle model, so relative runtime/strategy differences pass through
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

KiB, MiB = 1024, 1024 * 1024


@dataclass(frozen=True)
class PaperTarget:
    """Paper-scale behaviour of one workload (native x86-64 estimate)."""

    iteration_seconds: float
    memory_bytes: int


#: PolyBench MEDIUM estimates: duration ≈ whole-program run (array
#: init + kernel) at ~2 Gflop/s; memory = the kernel's array
#: footprint.  The wide duration spread (~1 ms .. 150 ms) is the
#: load-bearing property: millisecond-scale kernels churn instances
#: fast enough to hammer mmap_lock.
PAPER_TARGETS: dict[str, PaperTarget] = {
    "gemm": PaperTarget(30e-3, int(1.2 * MiB)),
    "2mm": PaperTarget(28e-3, int(1.6 * MiB)),
    "3mm": PaperTarget(40e-3, int(1.9 * MiB)),
    "atax": PaperTarget(1.5e-3, int(1.3 * MiB)),
    "bicg": PaperTarget(1.5e-3, int(1.3 * MiB)),
    "doitgen": PaperTarget(80e-3, 27 * MiB),
    "mvt": PaperTarget(2.5e-3, int(1.3 * MiB)),
    "gemver": PaperTarget(3.0e-3, int(1.4 * MiB)),
    "gesummv": PaperTarget(1.8e-3, int(2.6 * MiB)),
    "symm": PaperTarget(18e-3, int(1.5 * MiB)),
    "syrk": PaperTarget(15e-3, int(1.6 * MiB)),
    "syr2k": PaperTarget(30e-3, int(2.2 * MiB)),
    "trmm": PaperTarget(12e-3, int(1.3 * MiB)),
    "cholesky": PaperTarget(10e-3, int(1.3 * MiB)),
    "durbin": PaperTarget(1.0e-3, 16 * KiB),
    "gramschmidt": PaperTarget(25e-3, int(2.3 * MiB)),
    "lu": PaperTarget(20e-3, int(1.3 * MiB)),
    "ludcmp": PaperTarget(20e-3, int(1.3 * MiB)),
    "trisolv": PaperTarget(1.2e-3, int(1.3 * MiB)),
    "correlation": PaperTarget(12e-3, int(1.0 * MiB)),
    "covariance": PaperTarget(12e-3, int(1.0 * MiB)),
    "deriche": PaperTarget(9e-3, 11 * MiB),
    "floyd-warshall": PaperTarget(150e-3, int(1.0 * MiB)),
    "nussinov": PaperTarget(40e-3, int(1.0 * MiB)),
    "adi": PaperTarget(40e-3, int(1.3 * MiB)),
    "fdtd-2d": PaperTarget(25e-3, int(1.0 * MiB)),
    "heat-3d": PaperTarget(30e-3, int(1.0 * MiB)),
    "jacobi-1d": PaperTarget(1.2e-3, 8 * KiB),
    "jacobi-2d": PaperTarget(10e-3, int(1.0 * MiB)),
    "seidel-2d": PaperTarget(25e-3, int(0.5 * MiB)),
    # SPEC Train behaviour, compressed from minutes to seconds (rates
    # preserved; absolute wall time is irrelevant to every figure).
    "505.mcf": PaperTarget(4.0, 120 * MiB),
    "508.namd": PaperTarget(6.0, 45 * MiB),
    "519.lbm": PaperTarget(5.0, 400 * MiB),
    "525.x264": PaperTarget(4.0, 30 * MiB),
    "531.deepsjeng": PaperTarget(5.0, 700 * MiB),
    "544.nab": PaperTarget(5.0, 60 * MiB),
    "557.xz": PaperTarget(6.0, 900 * MiB),
    # WASI syscall-bound scenarios: millisecond-scale iterations (like
    # the short PolyBench kernels, so instance churn stays high) with
    # small working sets; most of the duration is kernel crossings.
    "wasi-grep": PaperTarget(2.5e-3, 2 * MiB),
    "wasi-checksum": PaperTarget(4.0e-3, 4 * MiB),
    "wasi-montecarlo": PaperTarget(3.0e-3, 2 * MiB),
    "wasi-logappend": PaperTarget(2.0e-3, 2 * MiB),
}

