"""A simulated CPU core with a run queue and preemptive timeslices.

Threads execute *work segments* on a core via :meth:`Core.exec`.  A
segment is charged to one of the Linux ``/proc/stat`` accounting buckets
(``user``, ``sys``, ``irq``, ``softirq``); idle time is whatever remains.
When several threads are runnable on the same core they round-robin with
a configurable quantum, and every install of a different thread counts as
a context switch (this mirrors ``/proc/stat``'s ``ctxt`` counter closely
enough for the paper's Figure 5).

Interrupt injection: :meth:`Core.post_irq` models an IPI such as a TLB
shootdown.  The interrupt's service time is charged to the ``irq`` bucket
and, if a thread is currently running a segment, that segment's
completion is pushed back by the service time (the thread loses the
time, exactly as a real core would steal cycles from the running task).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Deque, Generator, Optional

from repro.sim.engine import PARK, Engine, Process, SimError
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
_BUCKETS = (USER, SYS, IRQ, SOFTIRQ)


@dataclass
class CpuAccounting:
    """Cumulative busy time per bucket for one core."""

    user: float = 0.0
    sys: float = 0.0
    irq: float = 0.0
    softirq: float = 0.0

    def add(self, bucket: str, amount: float) -> None:
        if bucket not in _BUCKETS:
            raise SimError(f"unknown accounting bucket {bucket!r}")
        setattr(self, bucket, getattr(self, bucket) + amount)

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
    """Bookkeeping for the segment currently executing on a core."""

    __slots__ = ("thread", "process", "work", "started_at", "epoch", "extra_irq_time")

    def __init__(
        self, thread: "SimThread", process: Process, work: float,
        started_at: float, epoch: int,
    ) -> None:
        self.thread = thread
        #: The thread's process, parked until the slice ends.
        self.process = process
        self.work = work
        self.started_at = started_at
        self.epoch = epoch
        self.extra_irq_time = 0.0


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
        #: Runnable threads waiting for the core, each with its parked process.
        self.ready: Deque[tuple["SimThread", Process]] = deque()
        self.current: Optional["SimThread"] = None
        self._last_installed: Optional["SimThread"] = None
        self._slice: Optional[_Slice] = None
        self._epoch = 0

    # ------------------------------------------------------------------
    # Thread-facing API (all generator-based, used with ``yield from``)
    # ------------------------------------------------------------------
    def exec(self, thread: "SimThread", duration: float, kind: str = USER) -> Generator:
        """Run ``duration`` time units of ``kind`` work on this core.

        The calling process is the thread itself.  Handles dispatch,
        preemption and interrupt-stolen time transparently.
        """
        if not duration >= 0:  # also rejects NaN
            raise SimError(f"execution duration must be non-negative, got {duration}")
        engine = self.engine
        remaining = duration
        while True:
            if self.current is not thread:
                yield from self._enqueue_and_wait(thread)
            if remaining <= 0:
                return
            contended = bool(self.ready)
            slice_len = min(self.quantum, remaining) if contended else remaining
            self._epoch += 1
            self._slice = _Slice(thread, engine.active, slice_len, engine.now, self._epoch)
            self._schedule_slice_end(self._slice)
            yield PARK
            self._charge(kind, slice_len)
            self._slice = None
            remaining -= slice_len
            if remaining <= 0:
                return
            if self.ready:
                # Involuntary yield: step off the CPU; the loop re-enters
                # _enqueue_and_wait which puts us at the back of the queue.
                self.current = None
                self._dispatch_next()

    def release(self, thread: "SimThread") -> None:
        """The thread leaves the CPU (blocking or exiting)."""
        if self.current is not thread:
            raise SimError(
                f"thread {thread.name!r} releasing core {self.index} it does not hold"
            )
        if self._slice is not None and self._slice.thread is thread:
            raise SimError("cannot release core mid-slice")
        self.current = None
        if not self.ready:
            # Switch to the idle task (counted by /proc/stat's ctxt).
            self.context_switches += 1
            if TRACE.enabled:
                TRACE.emit(
                    self.engine.now, SCHED_SWITCH, core=self.index,
                    prev=thread.name, next="idle",
                )
            self._last_installed = None
        self._dispatch_next()

    def acquire(self, thread: "SimThread") -> Generator:
        """(Re)acquire the CPU after blocking; generator style."""
        if self.current is not thread:
            yield from self._enqueue_and_wait(thread)

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
        """Wake the slice's thread, unless an interrupt rescheduled the
        end (epochs are unique per core, so a match is the same slice)."""
        sl = self._slice
        if sl is not None and sl.epoch == epoch:
            self.engine.wake(sl.process)

    def _enqueue_and_wait(self, thread: "SimThread") -> Generator:
        self.ready.append((thread, self.engine.active))
        if self.current is None:
            # Wakes this very thread when the core is idle; the wake is
            # queued before the thread parks, and resumes it after.
            self._dispatch_next()
        yield PARK
        if self.current is not thread:
            raise SimError("woken thread is not current on its core")

    def _dispatch_next(self) -> None:
        if self.current is not None or not self.ready:
            return
        thread, process = self.ready.popleft()
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
        self.engine.wake(process)
