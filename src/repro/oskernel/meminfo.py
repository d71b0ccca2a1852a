"""``MemAvailable`` model with transparent-huge-page granularity.

The paper measures memory usage as the gap between total and "available"
memory in ``/proc/meminfo`` (§4.3) and observes that PolyBench appears
to use more memory on x86-64 than on Armv8 because the kernel backs the
Wasm reservations with huge pages — up to 1 GiB on x86-64 versus 2 MiB
on the ThunderX2 — which are charged out of the available pool at huge
page granularity (even though they are reclaimable by splitting).

We model that as a per-arena round-up: an arena with any populated pages
is charged ``ceil(populated_bytes / granularity) * granularity``, with
the ISA-specific granularity from
:data:`repro.oskernel.layout.THP_GRANULARITY`.

The usage is recomputed only when an address space's change count
(:class:`repro.oskernel.addressspace.Changes`) has moved since the last
reading, and :meth:`MemInfoModel.sample_until` takes a run of periodic
samples that can all see only one usage in one step.
"""

from __future__ import annotations

from typing import Iterable

from repro.oskernel.kernel import KernelProcess
from repro.oskernel.layout import THP_GRANULARITY


class MemInfoModel:
    """Computes apparent memory usage and time-averages it."""

    def __init__(self, isa: str) -> None:
        if isa not in THP_GRANULARITY:
            raise ValueError(f"unknown ISA {isa!r}")
        self.isa = isa
        self.granularity = THP_GRANULARITY[isa]
        self._weighted_usage = 0.0
        self._weight = 0.0
        #: (address space, change count) pairs the cached usage was read
        #: at, and that usage.
        self._read_at: list = []
        self._usage = 0

    def usage_bytes(self, processes: Iterable[KernelProcess]) -> int:
        """Current apparent usage (total - MemAvailable) across processes."""
        processes = list(processes)
        read_at = [(proc.aspace, proc.aspace.changes.count) for proc in processes]
        if read_at != self._read_at:
            self._read_at = read_at
            self._usage = self._walk(processes)
        return self._usage

    def _walk(self, processes: list) -> int:
        total = 0
        for proc in processes:
            for area in proc.aspace.areas():
                populated = area.populated_bytes
                if populated == 0:
                    continue
                granularity = min(self.granularity, area.length)
                charged = -(-populated // granularity) * granularity
                total += min(charged, area.length)
        return total

    def sample(self, processes: Iterable[KernelProcess], weight: float = 1.0) -> int:
        """Record a (time-weighted) sample and return the instant usage."""
        usage = self.usage_bytes(processes)
        self._weighted_usage += usage * weight
        self._weight += weight
        return usage

    def sample_until(
        self, processes: Iterable[KernelProcess], when: float, until: float,
        period: float,
    ) -> float:
        """Take the samples due at ``when``, ``when + period``, ... before
        ``until``, at least the first, each of weight ``period``; return
        the first sample time not before ``until``.

        The caller guarantees that the usage cannot change before
        ``until``, so every one of these samples reads the current one.
        """
        weighted = self.usage_bytes(processes) * period
        while True:
            self._weighted_usage += weighted
            self._weight += period
            when += period
            if when >= until:
                return when

    @property
    def average_bytes(self) -> float:
        if self._weight == 0:
            return 0.0
        return self._weighted_usage / self._weight
