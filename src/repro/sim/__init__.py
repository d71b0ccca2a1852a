"""Discrete-event simulation engine.

This package provides the simulation substrate used by the reproduction:
a deterministic event loop (:mod:`repro.sim.engine`), generator-based
processes, and two synchronisation primitives
(:mod:`repro.sim.resources`): :class:`RWLock`, a writer-preferring
read/write semaphore that behaves like the Linux ``mmap_lock``, and
:class:`Gate`, the harness's timed-region barrier.

The engine is deliberately small and fully deterministic: given the same
inputs it produces identical event orderings, which keeps every
experiment in the benchmark harness reproducible bit-for-bit.
"""

from repro.sim.engine import Engine, Delay, Process, SimError
from repro.sim.resources import RWLock, Gate
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "Delay",
    "Process",
    "SimError",
    "RWLock",
    "Gate",
    "RngStreams",
]
