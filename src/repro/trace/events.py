"""Structured trace-event records.

A :class:`TraceEvent` is one observation of the simulated stack: a lock
acquisition, a context switch, a syscall completing, a fault batch, a
compile, a harness phase boundary.  Events are deliberately flat and
cheap — a slotted dataclass with a small ``args`` payload — so that an
enabled tracer adds only allocation cost to the hot paths, and a
disabled one costs a single attribute check.

Event names are dotted, stable identifiers (``lock.acquire``,
``sched.switch``); the constants below are the canonical vocabulary the
summarizer and the golden-trace suite key on.  Categories group names
for the Chrome exporter's track layout.

Ordering: the tracer stamps every event with a monotonically increasing
``seq``.  Simulated timestamps (``ts``) are non-decreasing *within one
benchmark run* (between ``run.meta`` and ``run.end``), but reset to 0
between runs of a traced sweep, so consumers that need a total order
must sort on ``seq`` — which is also how the summarizer aligns events
against the harness's measurement-window markers without timestamp
tie-breaking ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

# -- locks (sim/resources) -------------------------------------------------
LOCK_ACQUIRE = "lock.acquire"        # lock, mode, wait, contended
LOCK_RELEASE = "lock.release"        # lock, mode, hold

# -- scheduler / CPU accounting (cpu/core) ---------------------------------
SCHED_SWITCH = "sched.switch"        # prev, next (one per ctxt increment)
SCHED_IRQ = "sched.irq"              # service
CPU_ACCT = "cpu.acct"                # bucket, amount (one per acct.add)

# -- kernel entry points (oskernel/kernel) ---------------------------------
SYSCALL_MMAP = "syscall.mmap"
SYSCALL_MUNMAP = "syscall.munmap"
SYSCALL_MPROTECT = "syscall.mprotect"
SYSCALL_MADVISE = "syscall.madvise"
SYSCALL_UFFD_REGISTER = "syscall.uffd_register"
SYSCALL_WASI = "syscall.wasi"        # sys, calls, bytes, per_call, charged
FAULT_ANON = "fault.anon"            # faults, pages, dur
FAULT_UFFD = "fault.uffd"            # faults, pages, dur
SIGNAL_SIGSEGV = "signal.sigsegv"
TLB_SHOOTDOWN = "tlb.shootdown"      # targets
VMA_MUTATE = "vma.mutate"            # op, area, pages/splits/merges, excl

# -- simulation engine (sim/engine) ----------------------------------------
SIM_SPAWN = "sim.spawn"
SIM_EXIT = "sim.exit"

# -- runtime models (runtimes/base) ----------------------------------------
RUNTIME_COMPILE = "runtime.compile"  # runtime, isa, strategy, cached
RUNTIME_COSTING = "runtime.costing"  # runtime, isa, strategy, cycles, cached

# -- strategy dispatch / instance lifecycle (core/lifecycle) ---------------
STRATEGY_GROW_BEGIN = "strategy.grow.begin"    # mechanism
STRATEGY_GROW_END = "strategy.grow.end"
STRATEGY_RESET_BEGIN = "strategy.reset.begin"  # mechanism
STRATEGY_RESET_END = "strategy.reset.end"
GC_PAUSE = "gc.pause"                # duration
ITER_BEGIN = "iter.begin"            # index
ITER_END = "iter.end"                # index, timed

# -- harness phases (core/harness) -----------------------------------------
PHASE_TIMED_BEGIN = "phase.timed.begin"  # emitted with the start snapshot
PHASE_TIMED_END = "phase.timed.end"      # emitted with the end snapshot
RUN_META = "run.meta"                # workload, runtime, strategy, ...
RUN_END = "run.end"                  # wall

# -- measurement engine / sweeps (core/engine, api) ------------------------
MEASURE_REQUEST = "measure.request"  # label, cache_hit, error
SWEEP_GRID = "sweep.grid"            # requests

#: Category per dotted-name prefix (Chrome export tracks, summary groups).
CATEGORIES = {
    "lock": "lock",
    "sched": "sched",
    "cpu": "cpu",
    "syscall": "kernel",
    "fault": "kernel",
    "signal": "kernel",
    "tlb": "kernel",
    "vma": "vma",
    "sim": "sim",
    "runtime": "runtime",
    "strategy": "strategy",
    "gc": "strategy",
    "iter": "strategy",
    "phase": "phase",
    "run": "harness",
    "measure": "engine",
    "sweep": "engine",
}


def category_of(name: str) -> str:
    return CATEGORIES.get(name.split(".", 1)[0], "misc")


@dataclass(slots=True)
class TraceEvent:
    """One observation: ``(seq, ts, name)`` plus attribution and payload."""

    seq: int
    ts: float
    name: str
    cat: str
    thread: str = ""
    core: int = -1
    tgid: int = 0
    args: Dict[str, Any] = field(default_factory=dict)


def event_to_json(event: TraceEvent) -> dict:
    """Flat JSON form (one JSONL line per event)."""
    raw = {"seq": event.seq, "ts": event.ts, "name": event.name, "cat": event.cat}
    if event.thread:
        raw["thread"] = event.thread
    if event.core >= 0:
        raw["core"] = event.core
    if event.tgid:
        raw["tgid"] = event.tgid
    if event.args:
        raw["args"] = event.args
    return raw


def event_from_json(raw: dict) -> TraceEvent:
    return TraceEvent(
        seq=int(raw["seq"]),
        ts=float(raw["ts"]),
        name=str(raw["name"]),
        cat=str(raw.get("cat", "") or category_of(str(raw["name"]))),
        thread=str(raw.get("thread", "")),
        core=int(raw.get("core", -1)),
        tgid=int(raw.get("tgid", 0)),
        args=dict(raw.get("args", {})),
    )
