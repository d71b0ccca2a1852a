"""The simulated kernel: syscalls, faults, locks, shootdowns.

Every entry point is a generator meant to be driven from a simulated
thread's process (``yield from kernel.sys_mprotect(...)``).  Entry
points charge CPU time to the calling thread's core (``sys`` bucket),
block the thread on the process ``mmap_lock`` where the real kernel
would, and deliver TLB-shootdown IPIs to other cores running threads of
the same process.

Locking summary (mirrors Linux, and §3.1 of the paper):

====================  ===========  =====================================
operation             mmap_lock    notes
====================  ===========  =====================================
mmap / munmap         write        VMA insert/remove
mprotect              write        VMA split/merge; zap + shootdown when
                                   removing permissions from populated
                                   pages — the ``mprotect`` strategy's
                                   per-iteration cost
madvise(DONTNEED)     read         PTE zap + shootdown, but concurrent
                                   with faults on other threads
anonymous fault       read         demand-zero page install
userfaultfd fault     read         SIGBUS → handler → UFFDIO ioctl; the
                                   paper's point is that there is *no
                                   write-side* serialisation
uffd register         write        once per arena, at setup
====================  ===========  =====================================

Fault *batching*: real faults are per-page events; simulating millions
of them individually would drown the event queue.  ``fault_*_batch``
services ``n`` pages in one critical section whose length is the sum of
the per-page costs, preserving both total CPU time and (to within one
batch) the lock-contention behaviour.  Batch sizes are chosen by the
caller: the harness (``repro.core.lifecycle``) replays first-touch
faults in batches of at least ``FAULT_BATCH_PAGES`` (512 pages, one
THP mapping), at most 256 batches per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cpu.core import SYS, USER
from repro.cpu.machine import Machine
from repro.cpu.thread import SimThread
from repro.oskernel.addressspace import AddressSpace, Area
from repro.oskernel.layout import KernelCosts
from repro.oskernel.vma import Prot, ProtectOutcome
from repro.sim.engine import Engine
from repro.sim.resources import RWLock
from repro.trace.events import (
    FAULT_ANON,
    FAULT_UFFD,
    SIGNAL_SIGSEGV,
    SYSCALL_MADVISE,
    SYSCALL_MMAP,
    SYSCALL_MPROTECT,
    SYSCALL_MUNMAP,
    SYSCALL_UFFD_REGISTER,
    SYSCALL_WASI,
    TLB_SHOOTDOWN,
    VMA_MUTATE,
)
from repro.trace.tracer import TRACE


class SegFault(Exception):
    """An access to an address with no valid mapping (delivered as SIGSEGV)."""


#: 4 KiB pages per transparent huge page (2 MiB PMD mapping).
THP_PAGES = 512


def _lock_write(thread: "SimThread", proc: "KernelProcess") -> Generator:
    """Take mmap_lock for writing; stay on-CPU when uncontended.

    A free rwsem is acquired with one atomic — the thread only leaves
    the CPU (and the scheduler only records switches) on the slow path.
    """
    lock = proc.mmap_lock
    if lock.write_would_wait():
        yield from thread.block_on(lock.acquire_write())
    else:
        yield from lock.acquire_write()


def _lock_read(thread: "SimThread", proc: "KernelProcess") -> Generator:
    lock = proc.mmap_lock
    if lock.read_would_wait():
        token = yield from thread.block_on(lock.acquire_read())
    else:
        token = yield from lock.acquire_read()
    return token


def _zap_units(pages: int, thp: bool) -> int:
    """Mapping-table units of work for ``pages`` 4 KiB pages."""
    if not thp:
        return pages
    return -(-pages // THP_PAGES)


@dataclass
class KernelProcess:
    """A thread group: shared address space and shared mmap_lock."""

    tgid: int
    name: str
    aspace: AddressSpace
    mmap_lock: RWLock
    #: Cores that have run threads of this process (mm_cpumask): TLB
    #: shootdowns IPI all of them, busy or lazily idle.
    cpumask: set = field(default_factory=set)
    #: Aggregate counters for experiment reporting.
    stats: dict = field(
        default_factory=lambda: {
            "mprotect_calls": 0,
            "madvise_calls": 0,
            "mmap_calls": 0,
            "munmap_calls": 0,
            "anon_faults": 0,
            "uffd_faults": 0,
            "shootdowns": 0,
            "pages_zapped": 0,
            "pages_populated": 0,
            "wasi_calls": 0,
            "wasi_bytes": 0,
        }
    )
    #: Per-syscall-name accumulators for the WASI scenario family.
    #: ``syscall_time`` sums the seconds charged to ``sys`` per name in
    #: batch emission order — the reconciliation contract with the trace
    #: layer depends on this order, so never re-sort before summing.
    syscall_time: dict = field(default_factory=dict)
    syscall_calls: dict = field(default_factory=dict)


class Kernel:
    """Facade over the simulated memory-management subsystem."""

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        costs: Optional[KernelCosts] = None,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.costs = costs or KernelCosts()
        self._next_tgid = 1
        self.processes: dict[int, KernelProcess] = {}

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def create_process(self, name: str = "") -> KernelProcess:
        tgid = self._next_tgid
        self._next_tgid += 1
        proc = KernelProcess(
            tgid=tgid,
            name=name or f"proc{tgid}",
            aspace=AddressSpace(),
            mmap_lock=RWLock(self.engine, name=f"mmap_lock.{tgid}"),
        )
        self.processes[tgid] = proc
        return proc

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _emit(self, name: str, thread: SimThread, proc: KernelProcess, **args) -> None:
        """Emit a kernel event attributed to the calling thread.

        Callers guard on ``TRACE.enabled`` so the disabled path stays a
        single attribute check.
        """
        TRACE.emit(
            self.engine.now, name,
            thread=thread.name, core=thread.core.index, tgid=proc.tgid, **args,
        )

    # ------------------------------------------------------------------
    # Syscalls
    # ------------------------------------------------------------------
    def sys_mmap_reserve(
        self, thread: SimThread, proc: KernelProcess, length: int, name: str = ""
    ) -> Generator:
        """Reserve a PROT_NONE region (the 8 GiB guard reservation)."""
        c = self.costs
        proc.stats["mmap_calls"] += 1
        entered = self.engine.now
        yield from thread.run(c.syscall_entry + c.vma_find, SYS)
        yield from _lock_write(thread, proc)
        area = proc.aspace.map_area(length, name=name)
        if TRACE.enabled:
            self._emit(
                VMA_MUTATE, thread, proc,
                op="map", area=area.name, bytes=area.length, excl=True,
            )
        yield from thread.run(c.mmap_write_overhead + c.vma_split, SYS)
        proc.mmap_lock.release_write()
        if TRACE.enabled:
            self._emit(
                SYSCALL_MMAP, thread, proc,
                area=area.name, bytes=area.length, dur=self.engine.now - entered,
            )
        return area

    def sys_munmap(self, thread: SimThread, proc: KernelProcess, area: Area) -> Generator:
        c = self.costs
        proc.stats["munmap_calls"] += 1
        entered = self.engine.now
        yield from thread.run(c.syscall_entry + c.vma_find, SYS)
        yield from _lock_write(thread, proc)
        zapped = proc.aspace.unmap_area(area)
        proc.stats["pages_zapped"] += zapped
        if TRACE.enabled:
            self._emit(
                VMA_MUTATE, thread, proc,
                op="unmap", area=area.name, pages=zapped, excl=True,
            )
        work = c.mmap_write_overhead + c.vma_merge + zapped * c.pte_zap_per_page
        yield from thread.run(work, SYS)
        if zapped:
            yield from self._shootdown(thread, proc)
        proc.mmap_lock.release_write()
        if TRACE.enabled:
            self._emit(
                SYSCALL_MUNMAP, thread, proc,
                area=area.name, zapped=zapped, dur=self.engine.now - entered,
            )
        return zapped

    def sys_mprotect(
        self,
        thread: SimThread,
        proc: KernelProcess,
        area: Area,
        offset: int,
        length: int,
        prot: Prot,
        thp: bool = False,
    ) -> Generator:
        """Change protections; exclusive mmap_lock for the whole operation.

        ``thp`` marks a region backed by transparent huge pages: the
        PTE-zap work then scales with 2 MiB mappings, not 4 KiB ones.
        """
        c = self.costs
        proc.stats["mprotect_calls"] += 1
        entered = self.engine.now
        yield from thread.run(c.syscall_entry + c.vma_find, SYS)
        yield from _lock_write(thread, proc)
        outcome: ProtectOutcome = area.prot_map.protect(offset, offset + length, prot)
        if TRACE.enabled:
            self._emit(
                VMA_MUTATE, thread, proc,
                op="protect", area=area.name, prot=int(prot),
                splits=outcome.splits, merges=outcome.merges, excl=True,
            )
        work = (
            c.mmap_write_overhead
            + outcome.splits * c.vma_split
            + outcome.merges * c.vma_merge
        )
        zapped = 0
        if not prot & Prot.READ:
            # Removing access: populated pages must be zapped and every
            # core's TLB flushed before the syscall can return.
            zapped = area.zap(offset, length)
            proc.stats["pages_zapped"] += zapped
            if TRACE.enabled and zapped:
                self._emit(
                    VMA_MUTATE, thread, proc,
                    op="zap", area=area.name, pages=zapped, excl=True,
                )
            work += _zap_units(zapped, thp) * c.pte_zap_per_page
        yield from thread.run(work, SYS)
        if zapped:
            yield from self._shootdown(thread, proc)
        proc.mmap_lock.release_write()
        if TRACE.enabled:
            self._emit(
                SYSCALL_MPROTECT, thread, proc,
                area=area.name, prot=int(prot), zapped=zapped,
                splits=outcome.splits, merges=outcome.merges,
                dur=self.engine.now - entered,
            )
        return outcome

    def sys_madvise_dontneed(
        self,
        thread: SimThread,
        proc: KernelProcess,
        area: Area,
        offset: int,
        length: int,
        thp: bool = False,
    ) -> Generator:
        """Zap a range back to demand-zero; shared mmap_lock."""
        c = self.costs
        proc.stats["madvise_calls"] += 1
        entered = self.engine.now
        yield from thread.run(c.syscall_entry + c.vma_find, SYS)
        token = yield from _lock_read(thread, proc)
        zapped = area.zap(offset, length)
        proc.stats["pages_zapped"] += zapped
        if TRACE.enabled and zapped:
            # PTE zap under the *read* lock (page-table locks serialise
            # the actual PTEs) — not an exclusive VMA mutation.
            self._emit(
                VMA_MUTATE, thread, proc,
                op="zap", area=area.name, pages=zapped, excl=False,
            )
        yield from thread.run(_zap_units(zapped, thp) * c.pte_zap_per_page, SYS)
        if zapped:
            yield from self._shootdown(thread, proc)
        proc.mmap_lock.release_read(token)
        if TRACE.enabled:
            self._emit(
                SYSCALL_MADVISE, thread, proc,
                area=area.name, zapped=zapped, dur=self.engine.now - entered,
            )
        return zapped

    def sys_wasi_batch(
        self,
        thread: SimThread,
        proc: KernelProcess,
        name: str,
        calls: int,
        nbytes: int,
        seconds: float,
        per_call: float,
    ) -> Generator:
        """Charge a batch of WASI host calls of one syscall kind.

        Like the fault batches, per-call kernel crossings are folded
        into one charge: ``calls`` crossings of syscall ``name`` moving
        ``nbytes`` payload bytes total, costing ``seconds`` of ``sys``
        time (``per_call`` is the average latency, carried for the
        trace layer's log2 histograms).  WASI's fd/clock/random paths
        never touch the VMA tree, so — unlike every mm syscall above —
        no ``mmap_lock`` is taken: the bounds-strategy mmap_lock story
        is untouched by syscall pressure.
        """
        proc.stats["wasi_calls"] += calls
        proc.stats["wasi_bytes"] += nbytes
        proc.syscall_calls[name] = proc.syscall_calls.get(name, 0) + calls
        proc.syscall_time[name] = proc.syscall_time.get(name, 0.0) + seconds
        yield from thread.run(seconds, SYS)
        if TRACE.enabled:
            self._emit(
                SYSCALL_WASI, thread, proc,
                sys=name, calls=calls, bytes=nbytes,
                per_call=per_call, charged=seconds,
            )

    def sys_uffd_register(
        self, thread: SimThread, proc: KernelProcess, area: Area
    ) -> Generator:
        c = self.costs
        entered = self.engine.now
        yield from thread.run(c.syscall_entry + c.vma_find, SYS)
        yield from _lock_write(thread, proc)
        area.uffd_registered = True
        yield from thread.run(c.mmap_write_overhead, SYS)
        proc.mmap_lock.release_write()
        if TRACE.enabled:
            self._emit(
                SYSCALL_UFFD_REGISTER, thread, proc,
                area=area.name, dur=self.engine.now - entered,
            )

    # ------------------------------------------------------------------
    # Fault paths
    # ------------------------------------------------------------------
    def fault_anon_batch(
        self,
        thread: SimThread,
        proc: KernelProcess,
        area: Area,
        offset: int,
        length: int,
        thp: bool = False,
    ) -> Generator:
        """Demand-zero faults over a range (read-side mmap_lock).

        With ``thp`` the fault/PTE overheads are paid per 2 MiB
        mapping; the zero-fill cost is per byte either way.
        """
        c = self.costs
        entered = self.engine.now
        pages = area.populate(offset, length)
        if pages == 0:
            return 0
        faults = _zap_units(pages, thp)
        proc.stats["anon_faults"] += faults
        proc.stats["pages_populated"] += pages
        if TRACE.enabled:
            self._emit(
                VMA_MUTATE, thread, proc,
                op="populate", area=area.name, pages=pages, excl=False,
            )
        yield from thread.run(faults * c.fault_entry, SYS)
        token = yield from _lock_read(thread, proc)
        yield from thread.run(
            faults * c.pte_set_per_page + pages * c.page_zero_per_page, SYS
        )
        proc.mmap_lock.release_read(token)
        if TRACE.enabled:
            self._emit(
                FAULT_ANON, thread, proc,
                area=area.name, faults=faults, pages=pages,
                dur=self.engine.now - entered,
            )
        return pages

    def fault_uffd_batch(
        self,
        thread: SimThread,
        proc: KernelProcess,
        area: Area,
        offset: int,
        length: int,
        range_pages: int = 1,
    ) -> Generator:
        """Userfaultfd faults: SIGBUS to the handler, then UFFDIO ioctl.

        Per fault: hardware fault + SIGBUS delivery (§2.3.1's low-latency
        same-thread scheme), a little userspace handler work, then the
        UFFDIO_ZEROPAGE/COPY ioctl which installs pages under the *read*
        side of mmap_lock only.  ``range_pages`` is how many pages the
        handler populates per fault — the paper's handler "can choose to
        populate the faulted page, or a larger range of pages" (§2.3.1),
        which is what keeps the per-page overhead competitive.
        """
        c = self.costs
        if not area.uffd_registered:
            raise SegFault(f"uffd fault on unregistered area {area.name!r}")
        entered = self.engine.now
        pages = area.populate(offset, length)
        if pages == 0:
            return 0
        faults = -(-pages // max(1, range_pages))
        proc.stats["uffd_faults"] += faults
        proc.stats["pages_populated"] += pages
        if TRACE.enabled:
            self._emit(
                VMA_MUTATE, thread, proc,
                op="populate", area=area.name, pages=pages, excl=False,
            )
        yield from thread.run(faults * (c.fault_entry + c.signal_deliver), SYS)
        # Userspace handler: bounds check against the atomic size variable.
        yield from thread.run(faults * 0.05e-6, USER)
        token = yield from _lock_read(thread, proc)
        yield from thread.run(
            faults * c.uffd_ioctl
            + pages * (c.pte_set_per_page + c.page_zero_per_page),
            SYS,
        )
        proc.mmap_lock.release_read(token)
        if TRACE.enabled:
            self._emit(
                FAULT_UFFD, thread, proc,
                area=area.name, faults=faults, pages=pages,
                dur=self.engine.now - entered,
            )
        return pages

    def deliver_sigsegv(self, thread: SimThread) -> Generator:
        """Cost of catching an out-of-bounds access via SIGSEGV."""
        yield from thread.run(
            self.costs.fault_entry + self.costs.signal_deliver, SYS
        )
        if TRACE.enabled:
            TRACE.emit(
                self.engine.now, SIGNAL_SIGSEGV,
                thread=thread.name, core=thread.core.index, tgid=thread.tgid,
            )

    # ------------------------------------------------------------------
    # TLB shootdown
    # ------------------------------------------------------------------
    def _shootdown(self, thread: SimThread, proc: KernelProcess) -> Generator:
        """Flush the local TLB and IPI every core in the process's
        mm_cpumask (cores currently running its threads plus lazy-TLB
        cores that ran them earlier)."""
        c = self.costs
        proc.stats["shootdowns"] += 1
        indices = set(proc.cpumask)
        for core in self.machine.cores:
            if core.current is not None and core.current.tgid == proc.tgid:
                indices.add(core.index)
        indices.discard(thread.core.index)
        if TRACE.enabled:
            self._emit(TLB_SHOOTDOWN, thread, proc, targets=len(indices))
        for index in indices:
            self.machine.cores[index].post_irq(c.tlb_ipi_service)
        yield from thread.run(
            c.tlb_local_flush + len(indices) * c.tlb_ipi_send, SYS
        )
