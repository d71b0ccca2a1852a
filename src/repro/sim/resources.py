"""Synchronisation primitives for simulated processes.

The primitive that matters most for this reproduction is :class:`RWLock`,
modelled on the Linux ``mmap_lock`` (a writer-preferring read/write
semaphore, ``down_read``/``down_write``).  The paper's multithreaded
scaling collapse under the ``mprotect`` bounds-checking strategy comes
from writers on this lock serialising all other memory-management
activity in a process; reproducing the *queueing discipline* is therefore
load-bearing:

* many readers may hold the lock simultaneously;
* a waiting writer blocks **new** readers from entering (writer
  preference, as implemented by the kernel's rwsem handoff logic), which
  is exactly what makes frequent small ``mprotect`` calls so damaging.

All primitives record wait/hold statistics so experiments can report
contention directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generator, Optional

from repro.sim.engine import Delay, Engine, Event, SimError
from repro.trace.events import LOCK_ACQUIRE, LOCK_RELEASE
from repro.trace.tracer import TRACE


@dataclass
class LockStats:
    """Contention statistics accumulated by a primitive."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_time: float = 0.0
    total_hold_time: float = 0.0
    max_wait_time: float = 0.0
    _hold_started: dict = field(default_factory=dict, repr=False)

    def note_wait(self, waited: float) -> None:
        self.acquisitions += 1
        if waited > 0:
            self.contended_acquisitions += 1
            self.total_wait_time += waited
            if waited > self.max_wait_time:
                self.max_wait_time = waited


class Mutex:
    """A simple FIFO mutual-exclusion lock."""

    def __init__(self, engine: Engine, name: str = "mutex") -> None:
        self.engine = engine
        self.name = name
        self.locked = False
        self._waiters: Deque[Event] = deque()
        self.stats = LockStats()
        self._acquired_at: float = 0.0

    def acquire(self) -> Generator:
        """Process-style acquire; use as ``yield from mutex.acquire()``."""
        start = self.engine.now
        if self.locked:
            event = self.engine.event(f"{self.name}.wait")
            self._waiters.append(event)
            yield event
            # Ownership was handed off in release(): ``locked`` never
            # dropped, so no same-timestamp acquirer could slip in.
        else:
            self.locked = True
        self._acquired_at = self.engine.now
        waited = self.engine.now - start
        self.stats.note_wait(waited)
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, LOCK_ACQUIRE,
                lock=self.name, mode="mutex", wait=waited, contended=waited > 0,
            )

    def release(self) -> None:
        if not self.locked:
            raise SimError(f"release of unlocked mutex {self.name!r}")
        hold = self.engine.now - self._acquired_at
        self.stats.total_hold_time += hold
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, LOCK_RELEASE,
                lock=self.name, mode="mutex", hold=hold,
            )
        if self._waiters:
            # Hand off: the lock stays logically held; the next waiter
            # resumes and immediately owns it.
            self._waiters.popleft().succeed()
        else:
            self.locked = False


class RWLock:
    """Writer-preferring read/write semaphore (``mmap_lock`` model).

    Fairness discipline: requests queue in FIFO order, but once any
    writer is waiting, newly arriving readers queue behind it instead of
    joining the current reader group.  Consecutive readers at the head of
    the queue are granted as a batch.
    """

    READ = "read"
    WRITE = "write"

    def __init__(self, engine: Engine, name: str = "rwlock") -> None:
        self.engine = engine
        self.name = name
        self.active_readers = 0
        self.active_writer = False
        self._queue: Deque[tuple[str, Event]] = deque()
        self.read_stats = LockStats()
        self.write_stats = LockStats()
        self._writer_acquired_at = 0.0
        self._reader_acquired_at: dict[int, float] = {}
        self._next_reader_token = 0

    # -- acquisition ---------------------------------------------------
    def read_would_wait(self) -> bool:
        """Whether :meth:`acquire_read` would queue now: a writer holds
        the lock or waits for it (writer preference)."""
        return self.active_writer or any(
            kind == self.WRITE for kind, _ in self._queue
        )

    def write_would_wait(self) -> bool:
        """Whether :meth:`acquire_write` would queue now: anyone holds
        the lock or waits for it."""
        return self.active_writer or self.active_readers > 0 or bool(self._queue)

    def acquire_read(self) -> Generator:
        """``yield from`` style; returns a token to pass to release_read."""
        start = self.engine.now
        if self.read_would_wait():
            event = self.engine.event(f"{self.name}.rd.wait")
            self._queue.append((self.READ, event))
            yield event
            # _wake_next counted this reader as active at wake time
            # (hand-off), so a same-timestamp writer cannot slip in
            # between the wake and this resumption.
        else:
            self.active_readers += 1
        waited = self.engine.now - start
        self.read_stats.note_wait(waited)
        self._next_reader_token += 1
        token = self._next_reader_token
        self._reader_acquired_at[token] = self.engine.now
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, LOCK_ACQUIRE,
                lock=self.name, mode="read", wait=waited, contended=waited > 0,
            )
        return token

    def acquire_write(self) -> Generator:
        start = self.engine.now
        if self.write_would_wait():
            event = self.engine.event(f"{self.name}.wr.wait")
            self._queue.append((self.WRITE, event))
            yield event
            # Ownership was assigned in _wake_next (hand-off), so no
            # same-timestamp reader or writer can sneak past the queue.
        else:
            self.active_writer = True
        waited = self.engine.now - start
        self.write_stats.note_wait(waited)
        self._writer_acquired_at = self.engine.now
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, LOCK_ACQUIRE,
                lock=self.name, mode="write", wait=waited, contended=waited > 0,
            )

    # -- release -------------------------------------------------------
    def release_read(self, token: int) -> None:
        if self.active_readers <= 0:
            raise SimError(f"release_read on {self.name!r} with no active readers")
        self.active_readers -= 1
        acquired_at = self._reader_acquired_at.pop(token, self.engine.now)
        hold = self.engine.now - acquired_at
        self.read_stats.total_hold_time += hold
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, LOCK_RELEASE,
                lock=self.name, mode="read", hold=hold,
            )
        if self.active_readers == 0:
            self._wake_next()

    def release_write(self) -> None:
        if not self.active_writer:
            raise SimError(f"release_write on {self.name!r} with no active writer")
        self.active_writer = False
        hold = self.engine.now - self._writer_acquired_at
        self.write_stats.total_hold_time += hold
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, LOCK_RELEASE,
                lock=self.name, mode="write", hold=hold,
            )
        self._wake_next()

    # -- internals -----------------------------------------------------
    def _wake_next(self) -> None:
        if not self._queue or self.active_writer or self.active_readers:
            return
        # Grants transfer ownership *now*, before the woken process
        # resumes: otherwise a same-timestamp fast-path acquirer could
        # observe the lock free and overlap the woken owner (a race the
        # trace property suite caught).
        kind, _ = self._queue[0]
        if kind == self.WRITE:
            _, event = self._queue.popleft()
            self.active_writer = True
            event.succeed()
        else:
            # Grant the whole run of readers at the head of the queue.
            while self._queue and self._queue[0][0] == self.READ:
                _, event = self._queue.popleft()
                self.active_readers += 1
                event.succeed()


class Semaphore:
    """Counting semaphore with FIFO wakeups."""

    def __init__(self, engine: Engine, permits: int, name: str = "semaphore") -> None:
        if permits < 0:
            raise SimError("semaphore permits must be non-negative")
        self.engine = engine
        self.name = name
        self.permits = permits
        self._waiters: Deque[Event] = deque()
        self.stats = LockStats()

    def acquire(self) -> Generator:
        start = self.engine.now
        if self.permits == 0:
            event = self.engine.event(f"{self.name}.wait")
            self._waiters.append(event)
            yield event
        else:
            self.permits -= 1
        self.stats.note_wait(self.engine.now - start)

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.permits += 1


class Gate:
    """A broadcast barrier: processes wait until the gate opens.

    Used by the benchmark harness to model its warm-up phase: worker
    threads spin through warm-up iterations and the timed region starts
    for everyone only when the coordinator opens the gate.
    """

    def __init__(self, engine: Engine, name: str = "gate") -> None:
        self.engine = engine
        self.name = name
        self.open = False
        self._waiters: list[Event] = []

    def wait(self) -> Generator:
        if not self.open:
            event = self.engine.event(f"{self.name}.wait")
            self._waiters.append(event)
            yield event
        else:
            yield Delay(0.0)

    def open_gate(self) -> None:
        self.open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()
