"""Simulated threads.

A :class:`SimThread` is the unit of scheduling: it binds an identity (and
a thread-group id, so the kernel model knows which threads share an
address space) to a core.  The benchmark harness pins worker threads to
distinct cores exactly as the paper's C++ harness does; V8's helper
threads are placed round-robin and *share* cores with workers, which is
what produces the context-switch blow-up in Figure 5b.

Thread bodies are simulation processes (generators).  The discipline is:

* ``yield from thread.startup()`` — first statement of every body;
* ``yield from thread.run(duration, kind)`` — burn CPU time;
* ``yield from thread.block_on(acquire)`` — leave the CPU while a
  lock-acquire or gate generator (``lock.acquire_write()``,
  ``gate.wait()``) waits, then get back on;
* ``yield from thread.sleep(duration)`` — timed sleep off the CPU;
* ``thread.finish()`` — final statement, releases the core.

Each of these must run in the process that owns the thread (the one
:attr:`Engine.active <repro.sim.engine.Engine.active>` names while it
runs).  ``run``, ``sleep`` and the core acquisitions are thin wrappers
over the thread's two continuation-passing operations, and park that
process (:data:`repro.sim.engine.PARK`) at most once: its resume is the
continuation.  Code that is not a process body calls the operations
themselves:

* :meth:`Core.exec_then <repro.cpu.core.Core.exec_then>` — run work on
  the thread's core, then call a continuation;
* :meth:`SimThread.sleep_then` — take the thread off its core for a
  fixed time, re-acquire the core, then call a continuation.

A lock or a gate still parks the process, and its release or opening
wakes it.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cpu.core import USER, Core, Then
from repro.sim.engine import PARK, Engine


class SimThread:
    """A schedulable thread pinned (or placed) on one core."""

    def __init__(self, engine: Engine, name: str, core: Core, tgid: int = 0) -> None:
        self.engine = engine
        self.name = name
        self.core = core
        self.tgid = tgid
        #: Set while the thread is on-CPU or runnable; cleared when blocked.
        self.runnable = False
        #: The continuation of the sleep in progress.
        self._then: Optional[Then] = None
        #: Every sleep's heap entry; :meth:`finish` drops it, so that a
        #: finished thread is freed without the cycle collector.
        self._wake = self._end_sleep

    # -- lifecycle -------------------------------------------------------
    def startup(self) -> Generator:
        """Get on the CPU for the first time."""
        self.runnable = True
        yield from self.core.acquire(self)

    def finish(self) -> None:
        """Leave the CPU permanently (thread exit)."""
        self.runnable = False
        self.core.release(self)
        del self._wake

    # -- execution -------------------------------------------------------
    def run(self, duration: float, kind: str = USER) -> Generator:
        """Execute ``duration`` seconds of work of the given kind."""
        return self.core.exec(self, duration, kind)

    def block_on(self, acquire: Generator) -> Generator:
        """Block off-CPU until ``acquire`` completes, then reschedule.

        ``acquire`` is a lock-acquire or gate generator such as
        ``lock.acquire_read()``.  Returns its result.
        """
        self.runnable = False
        self.core.release(self)
        result = yield from acquire
        self.runnable = True
        yield from self.core.acquire(self)
        return result

    def sleep(self, duration: float) -> Generator:
        """Sleep off-CPU for a fixed simulated duration."""
        self.sleep_then(duration, self.engine.active._resume)
        yield PARK

    def sleep_then(self, duration: float, then: Then) -> None:
        """Take the thread off its core for ``duration``, re-acquire the
        core, then call ``then`` (never before this returns)."""
        engine = self.engine
        # The wake-up is scheduled before the core is released, so its
        # heap entry sorts ahead of anything the release schedules.
        engine.call_at(engine.now + duration, self._wake)
        self._then = then
        self.runnable = False
        self.core.release(self)

    def _end_sleep(self) -> None:
        """The sleep's heap entry: wake the thread, in place when no
        other callback is due now."""
        if self.engine.lane:
            self.engine.queue(self._awake)
        else:
            self._awake()

    def _awake(self) -> None:
        then, self._then = self._then, None
        self.runnable = True
        if self.core.acquire_then(self, then):
            then()

    def migrate(self, core: Core) -> Generator:
        """Move to another core (models the load balancer migrating
        an unpinned thread); must be called while running."""
        if core is self.core:
            return
        self.core.release(self)
        self.core = core
        yield from self.core.acquire(self)

    # -- convenience -------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimThread({self.name!r}, core={self.core.index})"
