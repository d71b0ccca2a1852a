"""Deterministic discrete-event simulation core.

The engine keeps a priority queue of timestamped callbacks and advances a
simulated clock.  Concurrency is expressed with *processes*: plain Python
generators that ``yield`` either

* a :class:`Delay` — suspend the process for a simulated duration, or
* an :class:`Event` — suspend until the event is triggered, receiving the
  event's value as the result of the ``yield`` expression, or
* another :class:`Process` — suspend until that process terminates.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so runs
are reproducible regardless of hash seeds or dict ordering.

Most callbacks are due at the current time (event wake-ups, process
starts, ``Delay(0)``).  Those skip the heap and wait in a FIFO lane;
see :meth:`Engine.run` for why that keeps the scheduling order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

from repro.trace.events import SIM_EXIT, SIM_SPAWN
from repro.trace.tracer import TRACE


class SimError(RuntimeError):
    """Raised for misuse of the simulation engine."""


@dataclass(frozen=True)
class Delay:
    """A request to suspend the yielding process for ``duration`` time."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimError(f"negative delay: {self.duration}")


class Event:
    """A one-shot waitable value.

    Processes yield an event to suspend until :meth:`succeed` (or
    :meth:`fail`) is called.  Multiple processes may wait on the same
    event; they are resumed in the order they started waiting.
    """

    __slots__ = ("engine", "_value", "_error", "triggered", "_callbacks", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.triggered = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def value(self) -> Any:
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Deliver on the next tick to preserve run-to-completion
            # semantics for the caller.
            self.engine.call_at(self.engine.now, lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.engine.call_at(self.engine.now, lambda cb=callback: cb(self))
        return self

    def fail(self, error: BaseException) -> "Event":
        if self.triggered:
            raise SimError(f"event {self.name!r} already triggered")
        self.triggered = True
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.engine.call_at(self.engine.now, lambda cb=callback: cb(self))
        return self

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


ProcessBody = Generator[Any, Any, Any]


class Process:
    """A generator-based simulated process.

    The generator may yield :class:`Delay`, :class:`Event` or another
    :class:`Process`.  When the generator returns, :attr:`done_event`
    triggers with the return value, so processes compose: a parent can
    ``yield child`` to join on it.
    """

    __slots__ = ("engine", "body", "name", "done_event", "_alive")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str = "") -> None:
        if not hasattr(body, "send"):
            raise SimError(f"process body must be a generator, got {type(body)!r}")
        self.engine = engine
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self.done_event = Event(engine, name=f"{self.name}.done")
        self._alive = True
        if TRACE.enabled:
            TRACE.emit(engine.now, SIM_SPAWN, thread=self.name)
        engine.call_at(engine.now, lambda: self._step(None, None))

    @property
    def alive(self) -> bool:
        return self._alive

    def _step(self, value: Any, error: Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if error is not None:
                yielded = self.body.throw(error)
            else:
                yielded = self.body.send(value)
        except StopIteration as stop:
            self._alive = False
            if TRACE.enabled:
                TRACE.emit(self.engine.now, SIM_EXIT, thread=self.name)
            self.done_event.succeed(stop.value)
            return
        except BaseException as exc:  # surface process crashes loudly
            self._alive = False
            self.done_event.fail(exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Delay):
            self.engine.call_at(self.engine.now + yielded.duration, lambda: self._step(None, None))
        elif isinstance(yielded, Event):
            yielded.add_callback(self._on_event)
        elif isinstance(yielded, Process):
            yielded.done_event.add_callback(self._on_event)
        else:
            self._step(
                None,
                SimError(f"process {self.name!r} yielded unsupported value {yielded!r}"),
            )

    def _on_event(self, event: Event) -> None:
        if event._error is not None:
            self._step(None, event._error)
        else:
            self._step(event.value, None)

    def interrupt(self, error: Optional[BaseException] = None) -> None:
        """Kill the process without running it further."""
        self._alive = False
        if not self.done_event.triggered:
            self.done_event.fail(error or SimError(f"process {self.name!r} interrupted"))


class Engine:
    """The simulation event loop."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Callbacks due after ``now``, ordered by (time, sequence).
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        #: The lane: callbacks due at ``now``, in firing order.
        self._ready: deque[Callable[[], None]] = deque()
        #: Callbacks scheduled so far, on either path.
        self._sequence = 0

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        if when < self.now:
            raise SimError(f"cannot schedule in the past: {when} < {self.now}")
        self._sequence += 1
        if when == self.now:
            self._ready.append(callback)
        else:
            heapq.heappush(self._queue, (when, self._sequence, callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self.now + delay, callback)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers ``delay`` time units from now."""
        event = Event(self, name=f"timeout({delay})")
        self.call_after(delay, lambda: event.succeed(value))
        return event

    def process(self, body: ProcessBody, name: str = "") -> Process:
        return Process(self, body, name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers once every input event has triggered."""
        events = list(events)
        gather = Event(self, name="all_of")
        remaining = len(events)
        if remaining == 0:
            gather.succeed([])
            return gather
        results: list[Any] = [None] * remaining
        state = {"left": remaining}

        def make_cb(index: int) -> Callable[[Event], None]:
            def cb(event: Event) -> None:
                results[index] = event.result()
                state["left"] -= 1
                if state["left"] == 0:
                    gather.succeed(results)

            return cb

        for index, event in enumerate(events):
            event.add_callback(make_cb(index))
        return gather

    def run(self, until: Optional[float] = None) -> float:
        """Run queued events; returns the final simulated time.

        With ``until`` set, stops once the next event lies beyond it and
        fast-forwards the clock to ``until``.

        When the clock reaches a time, every heap entry due then moves
        to the lane before any of them fires: they were pushed before
        the clock got there, so their sequence numbers are lower than
        those of the callbacks the lane receives at that time.
        """
        queue, ready = self._queue, self._ready
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
        if not process.done_event.triggered:
            raise SimError(f"process {process.name!r} deadlocked (no more events)")
        return process.done_event.result()
