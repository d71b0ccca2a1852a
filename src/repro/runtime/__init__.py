"""Execution engines for WebAssembly modules.

* :mod:`memory` — linear memory instances with page-touch tracking;
* :mod:`strategies` — the paper's five bounds-checking strategies
  (``none``, ``clamp``, ``trap``, ``mprotect``, ``uffd``) plus the
  ``mte``, ``wasm64`` and projected ``cheri`` extensions, as objects
  that define both the *functional* out-of-bounds semantics and the
  *code shape* each strategy asks the compiler to emit;
* :mod:`interpreter` — a threaded-interpreter-style functional engine:
  it is at once the reference semantics, the Wasm3 runtime model, and
  the dynamic profiler that records per-instruction execution counts
  and memory events for the timing pipeline;
* :mod:`profile` — the :class:`ExecutionProfile` those runs produce.
"""

from repro.runtime.memory import LinearMemory, MemoryEvent
from repro.runtime.strategies import (
    BoundsStrategy,
    STRATEGIES,
    strategy_named,
)
from repro.runtime.interpreter import Instance, Interpreter, HostFunc
from repro.runtime.profile import ExecutionProfile

__all__ = [
    "LinearMemory",
    "MemoryEvent",
    "BoundsStrategy",
    "STRATEGIES",
    "strategy_named",
    "Instance",
    "Interpreter",
    "HostFunc",
    "ExecutionProfile",
]
