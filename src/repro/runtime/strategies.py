"""The bounds-checking strategies (§3.1 of the paper, plus extensions).

Each strategy bundles three things:

1. **functional semantics** for an out-of-bounds access
   (:meth:`BoundsStrategy.on_out_of_bounds`) — what the program observes;
2. **inline code shape** (:attr:`inline_check`) — what the compiler must
   emit before every memory access (nothing, a clamp, a trap check, or
   a hardware tag check);
3. **memory-management behaviour** (:attr:`grow_mechanism`,
   :attr:`fault_mechanism`, :attr:`reset_mechanism`) — which simulated
   kernel operations instance setup, ``memory.grow``, demand paging and
   per-iteration teardown use.  These drive the multithreaded-scaling
   experiments.

=========  ============  ===========================================
strategy   inline code   kernel behaviour
=========  ============  ===========================================
none       none          whole 8 GiB mapped RW up-front; grow is
                         bookkeeping; reset via madvise(DONTNEED)
clamp      cmp+select    same mapping as *none*
trap       cmp+branch    same mapping as *none*
mprotect   none          region PROT_NONE; grow/reset via mprotect
                         under the exclusive mmap_lock; OOB = SIGSEGV
uffd       none          region registered with userfaultfd; grow is
                         an atomic size update; faults are SIGBUS +
                         UFFDIO_ZEROPAGE; OOB = SIGBUS
mte        tag check     Arm MTE: the load/store pipe compares the
                         pointer's logical tag against the allocation
                         tag, so the check rides the access itself;
                         grow retags the new 16-byte granules in
                         userspace (no VMA traffic, no mmap_lock);
                         OOB = tag-check fault (SIGSEGV)
wasm64     cmp+branch    64-bit memory: no 8 GiB guard region exists,
                         so explicit checks are mandatory and the
                         guard-page strategies are rejected outright;
                         grow is bookkeeping, reset via madvise
cheri      none          projected CHERI capabilities: the capability
                         load/store pipe checks bounds; grow is a
                         capability re-derivation (atomic, like
                         *uffd*), faults are anonymous, reset via
                         madvise; OOB = capability trap
=========  ============  ===========================================

The first five rows are the paper's strategy axis
(:data:`PAPER_STRATEGY_ORDER`); ``mte`` models CAGE-style hardware tag
checking and ``wasm64`` the eWAPA 64-bit-memory regime (see PAPERS.md).
``cheri`` is the paper's §2.3 outlook, measured only by the ``cheri``
experiment, so it stays out of :data:`STRATEGY_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wasm.errors import Trap


@dataclass(frozen=True)
class BoundsStrategy:
    """One bounds-checking configuration."""

    name: str
    #: Inline code the compiler emits per access:
    #: '' | 'clamp' | 'trap' | 'mte'.
    inline_check: str
    #: How memory.grow is implemented:
    #: 'noop' | 'mprotect' | 'atomic' | 'retag'.
    grow_mechanism: str
    #: How first-touch faults are serviced: 'anon' | 'uffd'.
    fault_mechanism: str
    #: How per-iteration teardown works: 'madvise' | 'mprotect'.
    reset_mechanism: str
    #: Whether an OOB access is caught by a signal (vs inline code).
    signal_on_oob: bool
    #: Index width of the linear memory this strategy addresses.  32-bit
    #: memories can lean on the 8 GiB guard region; 64-bit memories
    #: (wasm64) cannot, so explicit checks become mandatory.
    addr_bits: int = 32
    #: Hardware memory-tagging granule in bytes (0 = no tagging).  A
    #: non-zero granule means every ``memory.grow`` must retag the new
    #: bytes granule-by-granule in userspace (Arm MTE: 16 bytes).
    tag_granule: int = 0

    @property
    def requires_memory_tagging(self) -> bool:
        """True when the ISA must provide a tagging extension (Arm MTE)."""
        return self.tag_granule > 0

    @property
    def uses_guard_region(self) -> bool:
        """True when OOB soundness rests on the 8 GiB guard mapping.

        Exactly the strategies with no inline check and no hardware
        tagging — the ones a 64-bit memory must reject, because a
        32-bit base + 32-bit offset bound is what makes the guard
        region cover every reachable address.
        """
        return self.addr_bits == 32 and not self.inline_check and not self.tag_granule

    def on_out_of_bounds(self, address: int, size: int, mem_size: int, write: bool):
        """Functional semantics of an out-of-bounds access.

        Returns a clamped address for ``clamp``; ``None`` for ``none``
        (access is silently absorbed by the RW-mapped guard region);
        raises :class:`Trap` otherwise.
        """
        if self.name == "clamp":
            return max(0, mem_size - size)
        if self.name == "none":
            return None
        raise Trap(
            "out-of-bounds-memory",
            f"{'store' if write else 'load'} of {size} bytes at {address:#x} "
            f"beyond memory size {mem_size:#x} ({self.name})",
        )


STRATEGIES: dict[str, BoundsStrategy] = {
    "none": BoundsStrategy(
        name="none",
        inline_check="",
        grow_mechanism="noop",
        fault_mechanism="anon",
        reset_mechanism="madvise",
        signal_on_oob=False,
    ),
    "clamp": BoundsStrategy(
        name="clamp",
        inline_check="clamp",
        grow_mechanism="noop",
        fault_mechanism="anon",
        reset_mechanism="madvise",
        signal_on_oob=False,
    ),
    "trap": BoundsStrategy(
        name="trap",
        inline_check="trap",
        grow_mechanism="noop",
        fault_mechanism="anon",
        reset_mechanism="madvise",
        signal_on_oob=False,
    ),
    "mprotect": BoundsStrategy(
        name="mprotect",
        inline_check="",
        grow_mechanism="mprotect",
        fault_mechanism="anon",
        reset_mechanism="mprotect",
        signal_on_oob=True,
    ),
    "uffd": BoundsStrategy(
        name="uffd",
        inline_check="",
        grow_mechanism="atomic",
        fault_mechanism="uffd",
        reset_mechanism="madvise",
        signal_on_oob=True,
    ),
    "mte": BoundsStrategy(
        name="mte",
        inline_check="mte",
        grow_mechanism="retag",
        fault_mechanism="anon",
        reset_mechanism="madvise",
        signal_on_oob=True,
        tag_granule=16,
    ),
    "wasm64": BoundsStrategy(
        name="wasm64",
        inline_check="trap",
        grow_mechanism="noop",
        fault_mechanism="anon",
        reset_mechanism="madvise",
        signal_on_oob=False,
        addr_bits=64,
    ),
    "cheri": BoundsStrategy(
        name="cheri",
        inline_check="",
        grow_mechanism="atomic",
        fault_mechanism="anon",
        reset_mechanism="madvise",
        signal_on_oob=True,  # a capability violation is a synchronous trap
    ),
}

#: The order figures present strategies in.  The paper's five come
#: first, then the hardware-assisted extensions; the projected
#: ``cheri`` is left out, so fig-cage, fig-wasi and diffcheck do not
#: sweep it.
STRATEGY_ORDER = ["none", "clamp", "trap", "mprotect", "uffd", "mte", "wasm64"]

#: Exactly the paper's §3.1 strategy axis — fig2–fig6 grids iterate
#: this so adding an extension strategy never changes their data.
PAPER_STRATEGY_ORDER = ["none", "clamp", "trap", "mprotect", "uffd"]


def strategy_named(name: str) -> BoundsStrategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        # The documented order first, then the strategies outside it
        # (the projected 'cheri').
        extras = sorted(set(STRATEGIES) - set(STRATEGY_ORDER))
        raise ValueError(
            f"unknown bounds strategy {name!r}; choose from "
            f"{STRATEGY_ORDER + extras}"
        ) from None
