"""The compiler driver: configuration → compiled, costed module."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.compiler.bce import BCEStats
from repro.compiler.frontend import lower_module
from repro.compiler.ir import IRFunction
from repro.compiler.isel import SelectionConfig, select_function
from repro.compiler.passes import run_passes
from repro.compiler.regalloc import estimate_spills
from repro.isa.model import IsaModel, OPK
from repro.runtime.strategies import BoundsStrategy
from repro.wasm.module import Module

#: Every pass the pipeline knows about, in run order.
ALL_PASSES = frozenset({
    "constfold", "cse", "checkelim", "licm", "bce", "bceloop", "strength",
    "dce",
})


@dataclass(frozen=True)
class CompilerConfig:
    """How one runtime model configures the shared compiler."""

    name: str
    passes: FrozenSet[str]
    #: Allocator quality: fraction of architectural registers the
    #: allocator uses effectively (LLVM ≈ 1.0).
    regalloc_quality: float
    addressing_fusion: bool
    #: Extra bookkeeping ALU ops per memory access whenever bounds
    #: checking is on in any form — signal-based *or* inline (V8's
    #: trap-handler metadata + dynamic memory base; 0 elsewhere).
    #: Charged on the access itself, not the check, so bounds-check
    #: elimination cannot remove it: the sandbox keeps its base/size
    #: bookkeeping even for accesses whose check was proved redundant.
    signal_strategy_access_ops: int = 0
    #: Extra bookkeeping ops per access regardless of strategy.
    baseline_access_ops: int = 0
    #: Multiplier applied to loop-block cost (GCC's PolyBench edge).
    loop_bonus: float = 1.0
    #: Emit a stack-overflow check at every function entry — one of the
    #: Wasm safety costs Jangda et al. [12] identify alongside bounds
    #: and indirect-call checks.  Native code has no such check.
    stack_checks: bool = False

    def __post_init__(self) -> None:
        unknown = self.passes - ALL_PASSES
        if unknown:
            raise ValueError(f"unknown passes {sorted(unknown)}")
        if "bceloop" in self.passes and "bce" not in self.passes:
            raise ValueError("'bceloop' requires 'bce'")


@dataclass
class CompiledFunction:
    irf: IRFunction
    #: block id -> machine op kinds (including spill ops).
    machine_ops: Dict[int, List[str]]
    #: block id -> cycles per execution.
    block_cycles: Dict[int, float]
    #: Static bounds-check elimination counters for this function.
    bce: BCEStats = field(default_factory=BCEStats)


@dataclass
class CompiledModule:
    """The costed result of compiling a module for one configuration.

    Strategies that emit the same code (see :func:`selection_config`)
    may share one result, so it names no strategy.
    """

    module: Module
    isa: IsaModel
    functions: Dict[int, CompiledFunction] = field(default_factory=dict)

    @property
    def total_static_ops(self) -> int:
        return sum(
            len(ops)
            for func in self.functions.values()
            for ops in func.machine_ops.values()
        )

    @property
    def checks_emitted_static(self) -> int:
        """``boundscheck`` instructions remaining after all passes."""
        return sum(
            1
            for func in self.functions.values()
            for ins in func.irf.instructions()
            if ins.op == "boundscheck"
        )

    @property
    def checks_elided_static(self) -> int:
        """Checks deleted by the BCE pass across all functions."""
        return sum(
            func.bce.eliminated_total for func in self.functions.values()
        )


def _affine_guard_allowed(strategy: BoundsStrategy) -> bool:
    """BCE's affine pooled guard needs the 32-bit guard region.

    The pooled guard checks one extremal address per loop entry and
    lets the 8 GiB guard mapping absorb everything in between; with a
    64-bit (wasm64) memory no guard region exists, so every surviving
    access must carry its own explicit check.
    """
    return strategy.addr_bits == 32


#: :func:`optimise_module`'s result: function index -> (optimised IR,
#: BCE counters).
FrontHalf = Dict[int, Tuple[IRFunction, BCEStats]]


def front_half_inputs(
    config: CompilerConfig, strategy: BoundsStrategy, bce: bool = True
) -> Tuple[FrozenSet[str], bool]:
    """What the front half depends on besides the module.

    The enabled pass set and BCE's affine-guard legality; the ISA, the
    register allocator and the rest of ``config`` only shape the back
    half, so every configuration that agrees on these two can share one
    optimised IR.  This is the one place that drops the BCE passes:
    when ``bce`` is off, and for every strategy without inline checks.
    """
    passes = frozenset(config.passes)
    if not (bce and strategy.inline_check):
        # BCE only pays off (and only shows up in cost) when check code
        # is inlined; skipping it entirely for none/mprotect/uffd keeps
        # their code shape — and therefore their figures — bit-for-bit
        # independent of whether BCE is enabled.
        passes = passes - {"bce", "bceloop"}
    return passes, _affine_guard_allowed(strategy)


def optimise_module(
    module: Module, passes: FrozenSet[str], affine_guard_ok: bool
) -> FrontHalf:
    """The ISA-independent half of the pipeline: lower, then optimise.

    Returns each defined function's optimised IR and its BCE counters.
    The back half (:func:`compile_module`) only reads them, so one
    result may be shared by every ISA and strategy with the same
    :func:`front_half_inputs`.
    """
    front: FrontHalf = {}
    for func_index, irf in lower_module(module).items():
        bce_stats = BCEStats()
        run_passes(
            irf, passes, bce_stats=bce_stats, affine_guard_ok=affine_guard_ok,
        )
        front[func_index] = (irf, bce_stats)
    return front


def selection_config(
    config: CompilerConfig, strategy: BoundsStrategy
) -> SelectionConfig:
    """Instruction selection's knobs for ``config`` under ``strategy``.

    This is all a back end reads from the strategy, so strategies that
    agree on it compile to the same code: ``none``, ``mprotect`` and
    ``uffd`` inline nothing, and differ only where a runtime charges
    bookkeeping ops for signal-based checking (V8).
    """
    extra_access_ops = config.baseline_access_ops
    if strategy.signal_on_oob or strategy.inline_check:
        extra_access_ops += config.signal_strategy_access_ops
    return SelectionConfig(
        inline_check=strategy.inline_check,
        extra_access_ops=extra_access_ops,
        addressing_fusion=config.addressing_fusion,
    )


def _memoised(memo: Optional[dict], key: tuple, irf: IRFunction, build, *args):
    """``build(*args)``, looked up in ``memo`` under ``key`` when given.

    ``key`` holds ``id(irf)``; the entry keeps ``irf`` alive, so that id
    can never be recycled onto another function while the entry lives.
    """
    if memo is None:
        return build(*args)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (build(*args), irf)
    return entry[0]


def compile_module(
    module: Module,
    isa: IsaModel,
    config: CompilerConfig,
    strategy: BoundsStrategy,
    front: Optional[FrontHalf] = None,
    memo: Optional[dict] = None,
) -> CompiledModule:
    """Run the full pipeline for every defined function.

    ``front`` is :func:`optimise_module`'s result for this module and
    ``front_half_inputs(config, strategy, bce)``; without it the front
    half runs here, with BCE on.  ``memo`` keeps each function's
    instruction selection and spill estimate across calls, keyed on
    exactly what each reads, so back ends that differ in nothing those
    read (x86_64 and armv8 agree on fusion and ``select``; every
    strategy gets the same spills) share them.
    """
    if front is None:
        front = optimise_module(module, *front_half_inputs(config, strategy))
    compiled = CompiledModule(module, isa)
    selection = selection_config(config, strategy)
    isel_isa = (isa.addressing_fusion, isa.has_select)
    spill_budget = (isa.int_regs, isa.float_regs, config.regalloc_quality)
    for func_index, (irf, bce_stats) in front.items():
        selected = _memoised(
            memo, ("isel", id(irf), isel_isa, selection), irf,
            select_function, irf, isa, selection,
        )
        spills = _memoised(
            memo, ("spills", id(irf), spill_budget), irf,
            estimate_spills, irf, isa, config.regalloc_quality,
        )
        # Copies: the selected lists may be shared with other back ends.
        machine_ops = {block_id: list(ops) for block_id, ops in selected.items()}
        if config.stack_checks and irf.blocks:
            # Stack-limit compare+branch in the prologue (entry block).
            entry = irf.blocks[0].id
            machine_ops.setdefault(entry, []).insert(0, OPK.CMP_BRANCH)
        for block_id, count in spills.per_block.items():
            machine_ops.setdefault(block_id, []).extend([OPK.SPILL] * count)
        block_cycles = {}
        for block in irf.blocks:
            cycles = sum(isa.cost(kind) for kind in machine_ops.get(block.id, ()))
            if block.loop_depth > 0:
                cycles *= config.loop_bonus
            block_cycles[block.id] = cycles
        compiled.functions[func_index] = CompiledFunction(
            irf=irf, machine_ops=machine_ops, block_cycles=block_cycles,
            bce=bce_stats,
        )
    return compiled
