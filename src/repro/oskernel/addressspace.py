"""Per-process address spaces and reservation areas.

An :class:`Area` is one contiguous virtual reservation — for this
reproduction, typically the 8 GiB guard region backing one WebAssembly
linear memory.  It combines:

* a :class:`~repro.oskernel.vma.ProtectionMap` (the VMA structure), and
* the *populated* pages (pages with an installed PTE), kept as sorted
  runs so that populating or zapping a range costs O(runs touched)
  rather than O(pages): fault batches are contiguous, so an arena's
  populated pages are usually one run.

Every map, unmap, populate and zap that changes what an address space
holds bumps its :class:`Changes` count, so a reader of its memory usage
(:class:`repro.oskernel.meminfo.MemInfoModel`) walks the areas again
only after a change.

The distinction is the crux of the paper's kernel-side story: changing
protections is a VMA operation under the exclusive ``mmap_lock``;
populating a page is a fault under the shared lock; and tearing down
populated pages requires both PTE zapping and a TLB shootdown.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.oskernel.layout import PAGE_SIZE
from repro.oskernel.vma import Prot, ProtectionMap, VmaError


def pages_in(length: int) -> int:
    """Number of base pages covering ``length`` bytes (rounded up)."""
    return -(-length // PAGE_SIZE)


class Changes:
    """How many changes an address space's mappings and populated pages
    have seen: a version its usage can be cached against."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@dataclass
class Area:
    """A contiguous virtual reservation within an address space."""

    start: int
    length: int
    name: str = ""
    uffd_registered: bool = False
    prot_map: ProtectionMap = field(init=False)
    #: Populated pages (indices relative to the area) as runs
    #: ``[run_starts[i], run_ends[i])``: sorted, disjoint, non-empty and
    #: non-adjacent (``run_ends[i] < run_starts[i + 1]``).
    run_starts: list = field(default_factory=list, init=False)
    run_ends: list = field(default_factory=list, init=False)
    #: Total pages across the runs.
    populated_pages: int = field(default=0, init=False)
    #: Bumped when the populated pages change; shared with the address
    #: space that maps the area.
    changes: Changes = field(
        default_factory=Changes, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.prot_map = ProtectionMap(self.length, Prot.NONE)

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def populated_bytes(self) -> int:
        return self.populated_pages * PAGE_SIZE

    def page_range(self, offset: int, length: int) -> range:
        if not 0 <= offset <= offset + length <= self.length:
            raise VmaError(
                f"range [{offset:#x},{offset + length:#x}) outside area {self.name!r}"
            )
        first = offset // PAGE_SIZE
        last = pages_in(offset + length)
        return range(first, last)

    def populate(self, offset: int, length: int) -> int:
        """Mark pages populated; returns how many were newly installed."""
        pages = self.page_range(offset, length)
        first, last = pages.start, pages.stop
        if first == last:
            return 0
        starts, ends = self.run_starts, self.run_ends
        # Runs i..j-1 overlap or abut [first, last) and merge with it.
        i = bisect_left(ends, first)
        j = bisect_right(starts, last, i)
        present = 0
        for k in range(i, j):
            present += min(ends[k], last) - max(starts[k], first)
        if i < j:
            first = min(first, starts[i])
            last = max(last, ends[j - 1])
        starts[i:j] = (first,)
        ends[i:j] = (last,)
        added = len(pages) - present
        if added:
            self.populated_pages += added
            self.changes.count += 1
        return added

    def zap(self, offset: int, length: int) -> int:
        """Unpopulate pages in the range; returns how many were zapped."""
        pages = self.page_range(offset, length)
        first, last = pages.start, pages.stop
        if first == last:
            return 0
        starts, ends = self.run_starts, self.run_ends
        # Runs i..j-1 share at least one page with [first, last).
        i = bisect_right(ends, first)
        j = bisect_left(starts, last, i)
        if i == j:
            return 0
        zapped = 0
        for k in range(i, j):
            zapped += min(ends[k], last) - max(starts[k], first)
        # Keep the parts of the outer runs that stick out of the range.
        kept_starts, kept_ends = [], []
        if starts[i] < first:
            kept_starts.append(starts[i])
            kept_ends.append(first)
        if ends[j - 1] > last:
            kept_starts.append(last)
            kept_ends.append(ends[j - 1])
        starts[i:j] = kept_starts
        ends[i:j] = kept_ends
        self.populated_pages -= zapped
        self.changes.count += 1
        return zapped

    def zap_all(self) -> int:
        zapped = self.populated_pages
        if zapped:
            self.run_starts.clear()
            self.run_ends.clear()
            self.populated_pages = 0
            self.changes.count += 1
        return zapped


class AddressSpace:
    """All reservations of one process, plus a simple placement policy."""

    #: Reservations start high, like mmap on Linux, and grow upwards.
    BASE_ADDRESS = 0x7F00_0000_0000

    def __init__(self) -> None:
        self._areas: dict[int, Area] = {}
        self._cursor = self.BASE_ADDRESS
        #: Shared with every area mapped here.
        self.changes = Changes()

    def map_area(self, length: int, name: str = "") -> Area:
        if length <= 0:
            raise VmaError(f"cannot map area of length {length}")
        # Align placement to a page boundary and leave a guard gap.
        aligned = pages_in(length) * PAGE_SIZE
        area = Area(start=self._cursor, length=aligned, name=name)
        area.changes = self.changes
        self._areas[area.start] = area
        self._cursor += aligned + PAGE_SIZE
        self.changes.count += 1
        return area

    def unmap_area(self, area: Area) -> int:
        """Remove a reservation; returns the number of zapped pages."""
        if area.start not in self._areas:
            raise VmaError(f"area {area.name!r} not mapped in this address space")
        del self._areas[area.start]
        self.changes.count += 1
        return area.zap_all()

    def find_area(self, address: int) -> Optional[Area]:
        for area in self._areas.values():
            if area.start <= address < area.end:
                return area
        return None

    def areas(self) -> Iterator[Area]:
        return iter(self._areas.values())

    @property
    def vma_count(self) -> int:
        """Total protection intervals across all reservations."""
        return sum(area.prot_map.interval_count for area in self._areas.values())

    @property
    def populated_bytes(self) -> int:
        return sum(area.populated_bytes for area in self._areas.values())
