"""Cross-strategy equivalence through the reference interpreter.

Bounds strategies may only change *cost*: for a workload that never
goes out of bounds, every strategy must compute bit-identical outputs,
issue the same number of loads and stores, and first-touch the same
4 KiB pages.  This module runs every registered workload under each
strategy and compares the observations pairwise against the first
strategy, plus one independent anchor: the first strategy's outputs
against the workload's NumPy reference (same tolerance as the tier-1
suite, so a drifting interpreter cannot hide behind strategies that
all drift together).

Functional interpreter runs are deliberately *not* cached: the point
of the phase is to re-execute the semantics, and a mini-size pass over
the whole catalogue costs seconds.  Fan-out across workloads honours
the engine's ``--jobs`` knob via a fork-preferring process pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.diffcheck.report import DiffReport, fan_out
from repro.runtime.strategies import STRATEGY_ORDER
from repro.wasm.errors import Trap
from repro.workloads import workload_named
from repro.workloads.base import instantiate, read_array

CHECK_OUTPUT = "ref.output-equivalence"
CHECK_COUNTS = "ref.loadstore-equivalence"
CHECK_PAGES = "ref.touched-pages-equivalence"
CHECK_TRAP = "ref.trap-equivalence"
CHECK_NUMPY = "ref.numpy-agreement"


@dataclass(frozen=True)
class StrategyObservation:
    """What one (workload, size, strategy) functional run observed."""

    workload: str
    size: str
    strategy: str
    #: (array name, sha256 of the raw little-endian bytes) pairs.
    outputs: Tuple[Tuple[str, str], ...]
    loads: int
    stores: int
    pages: int
    pages_digest: str
    trap: Optional[str] = None  # trap kind, if the run trapped


def observe(workload_name: str, size: str, strategy: str) -> StrategyObservation:
    """Run one workload functionally under one strategy."""
    workload = workload_named(workload_name)
    built = workload.build(size)
    # instantiate() links host imports, so WASI-family workloads run
    # through the same cross-strategy gauntlet as closed modules.
    interp, _env = instantiate(
        built.module, built.env_factory,
        strategy=strategy, collect_profile=False, track_pages=True,
    )
    trap: Optional[str] = None
    try:
        interp.invoke("bench")
    except Trap as exc:
        trap = exc.kind
    memory = interp.memory
    outputs = []
    if trap is None:
        for name in workload.check_arrays:
            array = built.arrays[name]
            raw = bytes(memory.data[array.base : array.base + array.nbytes])
            outputs.append((name, hashlib.sha256(raw).hexdigest()))
    pages = sorted(memory.touched_pages)
    pages_digest = hashlib.sha256(
        ",".join(map(str, pages)).encode()
    ).hexdigest()
    return StrategyObservation(
        workload=workload_name,
        size=size,
        strategy=strategy,
        outputs=tuple(outputs),
        loads=memory.load_count,
        stores=memory.store_count,
        pages=len(pages),
        pages_digest=pages_digest,
        trap=trap,
    )


def _numpy_anchor(workload_name: str, size: str, report: DiffReport) -> None:
    """The trap-strategy outputs must match the NumPy reference."""
    workload = workload_named(workload_name)
    if workload.reference is None:
        report.skip(CHECK_NUMPY)
        return
    built = workload.build(size)
    interp, _env = instantiate(
        built.module, built.env_factory, collect_profile=False, track_pages=False
    )
    interp.invoke("bench")
    expected = workload.reference(size)
    for name in workload.check_arrays:
        got = read_array(interp, built.arrays[name])
        report.check(
            CHECK_NUMPY,
            bool(np.allclose(got, expected[name], rtol=1e-9, atol=1e-12)),
            subject={"workload": workload_name, "size": size, "array": name},
            detail="interpreter output diverges from the NumPy reference",
        )


def check_workload(
    workload_name: str,
    size: str,
    strategies: Sequence[str] = tuple(STRATEGY_ORDER),
    report: Optional[DiffReport] = None,
) -> DiffReport:
    """Compare one workload's observations across strategies."""
    report = report if report is not None else DiffReport()
    observations = [observe(workload_name, size, s) for s in strategies]
    base = observations[0]
    subject_base = {"workload": workload_name, "size": size}
    for other in observations[1:]:
        subject = dict(
            subject_base, baseline=base.strategy, strategy=other.strategy
        )
        report.check(
            CHECK_TRAP,
            base.trap == other.trap,
            subject=subject,
            detail="strategies disagree on whether the run traps",
            expected=base.trap,
            actual=other.trap,
        )
        if base.trap is None and other.trap is None:
            report.check(
                CHECK_OUTPUT,
                base.outputs == other.outputs,
                subject=subject,
                detail="computed output arrays are not bit-identical",
                expected=dict(base.outputs),
                actual=dict(other.outputs),
            )
        report.check(
            CHECK_COUNTS,
            (base.loads, base.stores) == (other.loads, other.stores),
            subject=subject,
            detail="load/store counts differ between strategies",
            expected={"loads": base.loads, "stores": base.stores},
            actual={"loads": other.loads, "stores": other.stores},
        )
        report.check(
            CHECK_PAGES,
            (base.pages, base.pages_digest) == (other.pages, other.pages_digest),
            subject=subject,
            detail="first-touched page sets differ between strategies",
            expected={"pages": base.pages, "digest": base.pages_digest[:16]},
            actual={"pages": other.pages, "digest": other.pages_digest[:16]},
        )
    _numpy_anchor(workload_name, size, report)
    return report


def _check_workload_json(payload: Tuple[str, str, Tuple[str, ...]]) -> dict:
    """Worker entry point: one workload's partial report, serialised."""
    workload_name, size, strategies = payload
    return check_workload(workload_name, size, strategies).to_json()


def check_reference(
    workloads: Sequence[str],
    size: str,
    strategies: Sequence[str],
    report: DiffReport,
    jobs: int = 1,
) -> None:
    """Run the cross-strategy phase over many workloads into ``report``."""
    payloads = [(name, size, tuple(strategies)) for name in workloads]
    fan_out(report, _check_workload_json, payloads, jobs)
