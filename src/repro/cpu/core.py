"""A simulated CPU core with a run queue and preemptive timeslices.

Threads execute *work segments* on a core.  A segment is charged to one
of the Linux ``/proc/stat`` accounting buckets (``user``, ``sys``,
``irq``, ``softirq``); idle time is whatever remains.  When several
threads are runnable on the same core they round-robin with a
configurable quantum, and every install of a different thread counts as
a context switch (this mirrors ``/proc/stat``'s ``ctxt`` counter closely
enough for the paper's Figure 5).

Interrupt injection: :meth:`Core.post_irq` models an IPI such as a TLB
shootdown.  The interrupt's service time is charged to the ``irq`` bucket
and, if a thread is currently running a segment, that segment's
completion is pushed back by the service time (the thread loses the
time, exactly as a real core would steal cycles from the running task).

The core advances by continuations (see :mod:`repro.sim.engine`).
:meth:`Core.exec_then` runs a segment, slices, preemption and
interrupt-stretched slice ends included, then calls its continuation;
:meth:`Core.acquire_then` gets a thread onto the core, then calls its
continuation.  Each returns True instead, and never calls the
continuation, when it finishes before it returns: zero-duration work on
a held core, or an idle core taken in place.  Run-queue entries and the
segment in flight hold the continuation to queue.  The slice end and
the dispatch of a queued thread queue it on the engine's lane, one
entry each, where the woken thread's process used to resume; a segment
whose work is done calls its continuation in place.  The generator
methods :meth:`Core.exec` and :meth:`Core.acquire` serve process
bodies: they park the process once, and its resume is the continuation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Generator, Optional

from repro.sim.engine import PARK, Engine, SimError
from repro.trace.events import CPU_ACCT, SCHED_IRQ, SCHED_SWITCH
from repro.trace.tracer import TRACE

if TYPE_CHECKING:
    from repro.cpu.thread import SimThread

#: Accounting buckets mirroring the fields of ``/proc/stat`` the paper
#: uses in its CPU-utilisation equation (us, sys, hi, si).
USER = "user"
SYS = "sys"
IRQ = "irq"
SOFTIRQ = "softirq"

#: A continuation: called once, when the wait it ends is over.
Then = Callable[[], None]


@dataclass
class CpuAccounting:
    """Cumulative busy time per bucket for one core."""

    user: float = 0.0
    sys: float = 0.0
    irq: float = 0.0
    softirq: float = 0.0

    def add(self, bucket: str, amount: float) -> None:
        if bucket == USER:
            self.user += amount
        elif bucket == SYS:
            self.sys += amount
        elif bucket == IRQ:
            self.irq += amount
        elif bucket == SOFTIRQ:
            self.softirq += amount
        else:
            raise SimError(f"unknown accounting bucket {bucket!r}")

    @property
    def busy(self) -> float:
        return self.user + self.sys + self.irq + self.softirq

    def snapshot(self) -> dict[str, float]:
        return {
            USER: self.user,
            SYS: self.sys,
            IRQ: self.irq,
            SOFTIRQ: self.softirq,
        }


class _Slice:
    """A work segment on a core: what is left of it, the time slice in
    flight, and the continuation to call once all of it has run."""

    __slots__ = (
        "core", "thread", "kind", "remaining", "then",
        "work", "started_at", "epoch", "extra_irq_time",
    )

    def __init__(
        self, core: "Core", thread: "SimThread", kind: str, remaining: float,
        then: Then,
    ) -> None:
        self.core = core
        self.thread = thread
        self.kind = kind
        self.remaining = remaining
        self.then = then

    def start(self) -> bool:
        """Start the next time slice on the held core; True, and no
        slice, when the segment has nothing left to run."""
        remaining = self.remaining
        if remaining <= 0:
            return True
        core = self.core
        # Contended: another thread waits for the core, so run a quantum.
        self.work = min(core.quantum, remaining) if core.ready else remaining
        core._epoch += 1
        self.epoch = core._epoch
        self.started_at = core.engine.now
        self.extra_irq_time = 0.0
        core._slice = self
        core._schedule_slice_end(self)
        return False

    def resume(self) -> None:
        """Continue once the core is back (queued by a dispatch)."""
        if self.start():
            self.then()

    def end(self) -> None:
        """The time slice has run: charge it, then finish, step off the
        core for a waiting thread, or start the next slice."""
        core = self.core
        core._charge(self.kind, self.work)
        core._slice = None
        self.remaining -= self.work
        if self.remaining <= 0:
            self.then()
        elif core.ready:
            # Involuntary yield: hand the core over and queue behind.
            core.current = None
            core._dispatch_next()
            core.ready.append((self.thread, self.resume))
        else:
            self.start()


class Core:
    """One CPU core: run queue, current thread, accounting."""

    def __init__(
        self,
        engine: Engine,
        index: int,
        quantum: float,
        switch_cost: float,
    ) -> None:
        self.engine = engine
        self.index = index
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.acct = CpuAccounting()
        self.context_switches = 0
        #: Runnable threads waiting for the core, each with the
        #: continuation its dispatch queues.
        self.ready: Deque[tuple["SimThread", Then]] = deque()
        self.current: Optional["SimThread"] = None
        self._last_installed: Optional["SimThread"] = None
        self._slice: Optional[_Slice] = None
        self._epoch = 0

    # ------------------------------------------------------------------
    # Thread-facing API
    # ------------------------------------------------------------------
    def exec_then(
        self, thread: "SimThread", duration: float, kind: str, then: Then,
    ) -> bool:
        """Run ``duration`` time units of ``kind`` work for ``thread``,
        then call ``then``.

        Handles dispatch, preemption and interrupt-stolen time.  Returns
        True instead of calling ``then`` when the work is done before
        it returns (no work, and the thread holds or takes the core).
        """
        if not duration >= 0:  # also rejects NaN
            raise SimError(f"execution duration must be non-negative, got {duration}")
        work = _Slice(self, thread, kind, duration, then)
        if self.current is not thread and not self.acquire_then(thread, work.resume):
            return False
        return work.start()

    def acquire_then(self, thread: "SimThread", then: Then) -> bool:
        """Get ``thread`` onto this core, then call ``then``.

        Returns True instead when the thread holds the core already, or
        takes it in place: the core is idle and no other callback is
        due now, so the dispatch's lane entry would have run next.  The
        caller must have nothing else to do before it continues.
        """
        if self.current is thread:
            return True
        if self.current is not None:
            self.ready.append((thread, then))
            return False
        # An idle core has an empty run queue (a release or a preemption
        # that leaves the core dispatches the next waiting thread).
        self._install(thread)
        if not self.engine.lane:
            return True
        self.engine.queue(then)
        return False

    def exec(self, thread: "SimThread", duration: float, kind: str = USER) -> Generator:
        """:meth:`exec_then` for the calling process; ``yield from`` it."""
        if not self.exec_then(thread, duration, kind, self.engine.active._resume):
            yield PARK

    def acquire(self, thread: "SimThread") -> Generator:
        """(Re)acquire the CPU after blocking; ``yield from`` it."""
        if not self.acquire_then(thread, self.engine.active._resume):
            yield PARK

    def release(self, thread: "SimThread") -> None:
        """The thread leaves the CPU (blocking or exiting)."""
        if self.current is not thread:
            raise SimError(
                f"thread {thread.name!r} releasing core {self.index} it does not hold"
            )
        if self._slice is not None and self._slice.thread is thread:
            raise SimError("cannot release core mid-slice")
        self.current = None
        if self.ready:
            self._dispatch_next()
            return
        # Switch to the idle task (counted by /proc/stat's ctxt).
        self.context_switches += 1
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, SCHED_SWITCH, core=self.index,
                prev=thread.name, next="idle",
            )
        self._last_installed = None

    # ------------------------------------------------------------------
    # Interrupts (TLB shootdown IPIs etc.)
    # ------------------------------------------------------------------
    def post_irq(self, service_time: float) -> None:
        """Deliver an interrupt costing ``service_time`` to this core.

        Charged to the ``irq`` bucket immediately; if a segment is in
        flight its completion is delayed by the service time.
        """
        self._charge(IRQ, service_time)
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, SCHED_IRQ, core=self.index, service=service_time
            )
        if self._slice is not None:
            self._slice.extra_irq_time += service_time
            self._epoch += 1
            self._slice.epoch = self._epoch
            self._schedule_slice_end(self._slice)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _charge(self, bucket: str, amount: float) -> None:
        """Add to an accounting bucket, mirrored into the trace.

        Emitting one ``cpu.acct`` event per addition — in the same order
        the additions happen — lets the trace summarizer rebuild every
        ``/proc/stat`` snapshot with bit-identical float arithmetic.
        """
        self.acct.add(bucket, amount)
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, CPU_ACCT, core=self.index,
                bucket=bucket, amount=amount,
            )

    def _schedule_slice_end(self, sl: _Slice) -> None:
        end_time = sl.started_at + sl.work + sl.extra_irq_time
        self.engine.call_at(end_time, partial(self._end_slice, sl.epoch))

    def _end_slice(self, epoch: int) -> None:
        """End the slice in flight, unless an interrupt rescheduled the
        end (epochs are unique per core, so a match is the same slice).

        Its continuation runs in place when no other callback is due
        now, and is queued on the lane otherwise.
        """
        sl = self._slice
        if sl is not None and sl.epoch == epoch:
            if self.engine.lane:
                self.engine.queue(sl.end)
            else:
                sl.end()

    def _install(self, thread: "SimThread") -> None:
        """Make ``thread`` current, counting a switch to a new thread."""
        self.current = thread
        if self._last_installed is not thread:
            self.context_switches += 1
            if TRACE.enabled:
                TRACE.emit(
                    self.engine.now, SCHED_SWITCH, core=self.index,
                    thread=thread.name,
                    prev=self._last_installed.name if self._last_installed else "idle",
                    next=thread.name,
                )
            if self._last_installed is not None and self.switch_cost > 0:
                self._charge(SYS, self.switch_cost)
        self._last_installed = thread

    def _dispatch_next(self) -> None:
        """Install the first waiting thread on the vacated core and queue
        its continuation."""
        thread, then = self.ready.popleft()
        self._install(thread)
        self.engine.queue(then)
