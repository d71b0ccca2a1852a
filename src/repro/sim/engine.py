"""Deterministic discrete-event simulation core.

The engine keeps a priority queue of timestamped callbacks and advances a
simulated clock.  Concurrency is expressed with *processes*: plain Python
generators that ``yield`` either

* a :class:`Delay` — suspend the process for a simulated duration, or
* :data:`PARK` — suspend until some other code calls
  :meth:`Engine.wake` on the process; the ``yield`` evaluates to ``None``.

Yielding anything else raises :class:`SimError`.

Every wait that is not a fixed duration parks, and each has exactly one
waker.  In :mod:`repro.sim.resources` that is the release that hands an
``RWLock`` to a queued process, or the opening of a ``Gate``; the waker
finds the process through :attr:`Engine.active` read while the process
was running.  A wake costs one lane entry, as any callback due now does.

The CPU model (:mod:`repro.cpu`) does not resume generators to advance:
its waits end in *continuations*, plain callables that the core that
dispatches a thread, or the heap entry that ends a run slice or a
sleep, queues on the lane (:meth:`Engine.queue`) at the position where
a woken process's resume would run.  A continuation whose work is done
calls the next one, or a parked process's resume, in place.  The only
lane entries it skips are those that would run next anyway: a waker
that has nothing left to do and finds no other callback due now (the
lane, :attr:`Engine.lane`, is empty) runs the continuation in place
instead of queueing it.

An exception raised in a process propagates out of :meth:`Engine.run`.
Nothing joins a process, so a crash kept on it would go unseen while
the processes it should have woken wait forever.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so runs
are reproducible regardless of hash seeds or dict ordering.

Most callbacks are due at the current time (wakes, process starts,
``Delay(0)``).  Those skip the heap and wait in a FIFO lane; see
:meth:`Engine.run` for why that keeps the scheduling order.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.trace.events import SIM_EXIT, SIM_SPAWN
from repro.trace.tracer import TRACE


class SimError(RuntimeError):
    """Raised for misuse of the simulation engine."""


@dataclass(frozen=True)
class Delay:
    """A request to suspend the yielding process for ``duration`` time."""

    duration: float

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # also rejects NaN
            raise SimError(f"delay must be non-negative, got {self.duration}")


class _Park:
    __slots__ = ()

    def __repr__(self) -> str:
        return "PARK"


#: Yielded by a process to suspend until :meth:`Engine.wake` resumes it.
PARK = _Park()


ProcessBody = Generator[Any, Any, Any]


class Process:
    """A generator-based simulated process.

    The generator may yield :class:`Delay` or :data:`PARK`.  When it
    returns, :attr:`alive` clears and :attr:`value` holds its return
    value; what it raises propagates out of :meth:`Engine.run`.
    """

    __slots__ = ("engine", "body", "name", "alive", "value", "_resume")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str = "") -> None:
        if not hasattr(body, "send"):
            raise SimError(f"process body must be a generator, got {type(body)!r}")
        self.engine = engine
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self.alive = True
        self.value: Any = None
        #: Steps the body: its start, the end of a Delay, a wake.
        self._resume = self._step
        if TRACE.enabled:
            TRACE.emit(engine.now, SIM_SPAWN, thread=self.name)
        engine.call_at(engine.now, self._resume)

    def _step(self) -> None:
        engine = self.engine
        engine.active = self
        try:
            yielded = self.body.send(None)
        except StopIteration as stop:
            self._end()
            self.value = stop.value
            if TRACE.enabled:
                TRACE.emit(engine.now, SIM_EXIT, thread=self.name)
            return
        except BaseException:
            self._end()
            raise
        finally:
            engine.active = None
        if yielded is PARK:
            return
        if isinstance(yielded, Delay):
            engine.call_at(engine.now + yielded.duration, self._resume)
            return
        self._end()
        raise SimError(f"process {self.name!r} yielded unsupported value {yielded!r}")

    def _end(self) -> None:
        self.alive = False
        # ``_resume`` refers back to the process: dropping it lets a
        # finished process be freed at once, not by the cycle collector.
        del self._resume


class Engine:
    """The simulation event loop."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Callbacks due after ``now``, ordered by (time, sequence).
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        #: The lane: callbacks due at ``now``, in firing order.  Empty
        #: while a callback runs means nothing else is due now.  Read
        #: it; add to it only through :meth:`call_at`, :meth:`queue`
        #: and :meth:`wake`.
        self.lane: deque[Callable[[], None]] = deque()
        #: Callbacks scheduled so far, on either path.
        self._sequence = 0
        #: The process whose body is running, ``None`` between steps.
        self.active: Optional[Process] = None

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        if not when >= self.now:  # also rejects NaN, which would hang run()
            raise SimError(f"cannot schedule at {when}: the clock is at {self.now}")
        self._sequence += 1
        if when == self.now:
            self.lane.append(callback)
        else:
            heapq.heappush(self._queue, (when, self._sequence, callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self.now + delay, callback)

    def queue(self, callback: Callable[[], None]) -> None:
        """Queue ``callback`` on the lane, as ``call_at(now, ...)`` would."""
        self._sequence += 1
        self.lane.append(callback)

    def wake(self, process: Process) -> None:
        """Resume a process that yields (or has yielded) :data:`PARK`.

        Queues the resumption on the lane, as ``call_at(now, ...)``
        would.  The process may still be running, about to park: it
        resumes after it yields.  Call it once per park.
        """
        self.queue(process._resume)

    def wake_at(self, process: Process, when: float) -> None:
        """Resume a parked process at the absolute time ``when``."""
        self.call_at(when, process._resume)

    def next_time(self) -> float:
        """When the next queued callback is due.

        ``now`` while one waits in the lane, infinity when nothing is
        queued.  Nothing but the running callback can act before it.
        """
        if self.lane:
            return self.now
        return self._queue[0][0] if self._queue else math.inf

    def process(self, body: ProcessBody, name: str = "") -> Process:
        return Process(self, body, name)

    def run(self, until: Optional[float] = None) -> float:
        """Run queued events; returns the final simulated time.

        With ``until`` set, stops once the next event lies beyond it and
        fast-forwards the clock to ``until``.  An exception raised by a
        callback, a process body's included, propagates from here.

        When the clock reaches a time, every heap entry due then moves
        to the lane before any of them fires: they were pushed before
        the clock got there, so their sequence numbers are lower than
        those of the callbacks the lane receives at that time.
        """
        queue, ready = self._queue, self.lane
        heappop, popleft = heapq.heappop, ready.popleft
        while True:
            while ready:
                popleft()()
            if not queue:
                break
            when = queue[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            self.now = when
            while queue and queue[0][0] == when:
                ready.append(heappop(queue)[2])
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_process(self, body: ProcessBody, name: str = "") -> Any:
        """Convenience: run a single process to completion and return its value."""
        process = self.process(body, name)
        self.run()
        if process.alive:
            raise SimError(f"process {process.name!r} deadlocked (no more events)")
        return process.value
