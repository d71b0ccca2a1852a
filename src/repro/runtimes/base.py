"""The RuntimeModel type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, FrozenSet, Optional, Tuple

from repro.compiler.pipeline import (
    CompiledModule,
    CompilerConfig,
    compile_module,
    front_half_inputs,
    optimise_module,
    selection_config,
)
from repro.compiler.timing import (
    check_counts_for_profile,
    cycles_for_profile,
    interpreter_cycles,
)
from repro.isa.model import IsaModel
from repro.runtime.profile import ExecutionProfile
from repro.runtime.strategies import BoundsStrategy
from repro.trace.events import RUNTIME_COMPILE, RUNTIME_COSTING
from repro.trace.tracer import TRACE
from repro.wasm.module import Module


def compile_cached(
    store: dict,
    module: Module,
    isa: IsaModel,
    config: CompilerConfig,
    strategy: BoundsStrategy,
    bce: bool = True,
) -> Tuple[CompiledModule, bool]:
    """The module compiled through ``store``; also whether it was there.

    Each stage is keyed on exactly the inputs it reads, so every
    configuration that agrees on them shares one result:

    * the front half on (module, pass set, affine-guard legality) —
      :func:`~repro.compiler.pipeline.front_half_inputs`;
    * the back end on (front half, ``config``, ISA, the strategy's
      :func:`~repro.compiler.pipeline.selection_config`);
    * instruction selection and the spill estimate per function, inside
      :func:`compile_module`.

    Every entry keeps what its key names by id (the module, an IR
    function) alive, so no id can be recycled while the entry lives,
    and clearing ``store`` frees every IR built through it.
    """
    passes, affine_guard_ok = front_half_inputs(config, strategy, bce)
    front_key = ("front", id(module), passes, affine_guard_ok)
    front = store.get(front_key)
    if front is None:
        front = store[front_key] = (
            optimise_module(module, passes, affine_guard_ok), module,
        )
    back_key = (
        "back", front_key, config, isa.name, selection_config(config, strategy),
    )
    compiled = store.get(back_key)
    if compiled is not None:
        return compiled, True
    compiled = store[back_key] = compile_module(
        module, isa, config, strategy, front[0], store,
    )
    return compiled, False


@dataclass
class RuntimeModel:
    """One execution environment."""

    name: str
    display: str
    kind: str  # 'native' | 'aot' | 'jit' | 'interp'
    compiler: Optional[CompilerConfig]
    #: Scheduling/lowering quality not captured by the pass set: a
    #: multiplier ≥ 1.0 on compiled-block cycles (LLVM = 1.0).
    schedule_overhead: float = 1.0
    supported_isas: FrozenSet[str] = frozenset({"x86_64", "armv8", "riscv64"})
    #: Background helper threads the runtime spawns (V8's JIT/GC/IO
    #: workers — the source of the Fig. 5b context-switch blow-up).
    helper_threads: int = 0
    #: Periodic stop-the-world pauses (V8's GC), seconds.  The
    #: interval is per worker-compute at one thread; the harness
    #: shortens it as workers multiply (shared-heap pressure).
    gc_pause_interval: float = 0.0
    gc_pause_duration: float = 0.0
    #: Helper-thread activity: each helper runs ``helper_burst`` of
    #: work every ``helper_period`` (JIT/GC/IO background work).
    helper_burst: float = 2.5e-3
    helper_period: float = 12e-3
    #: Native code runs one *process* per benchmark copy (vfork+fexecve
    #: in the paper's harness); Wasm runtimes run isolates in threads.
    process_per_instance: bool = False
    #: Which strategies this runtime can be configured with.  Compiling
    #: runtimes take the full axis — the paper's five plus the
    #: hardware-assisted extensions (mte is additionally ISA-gated at
    #: run time: it needs the memory-tagging extension, i.e. armv8).
    strategies: Tuple[str, ...] = (
        "none", "clamp", "trap", "mprotect", "uffd", "mte", "wasm64"
    )
    #: Default strategy (the paper: WAVM/Wasmtime/V8 default to mprotect).
    default_strategy: str = "mprotect"
    #: Translation cost per static wasm instruction, in seconds — the
    #: compile-speed/code-quality trade-off Titzer [29] tabulates
    #: (LLVM slowest, baseline tiers and interpreters near-free).
    compile_seconds_per_instr: float = 0.0
    #: The compile store every runtime model shares (one class-level
    #: dict, see :func:`compile_cached`): native-clang, native-gcc and
    #: wavm cells without inline checks read one IR, and ``none``,
    #: ``mprotect`` and ``uffd`` one back end wherever they emit the
    #: same code.  Clearing it through any model empties it for all.
    _cache: ClassVar[dict] = {}
    #: Block-costing results per (module, profile, isa, strategy, BCE
    #: flag): the costing walk over every block of every function is
    #: pure, so one run prices the configuration for all subsequent
    #: measurements (thread sweeps re-price the identical module dozens
    #: of times).  Entries keep a strong reference to the keyed objects
    #: so an id() can never be recycled onto a different module/profile.
    _cycles_cache: Dict[Tuple[int, int, str, str, bool], Tuple[float, object, object]] = field(
        default_factory=dict, repr=False
    )
    #: Dynamic bounds-check counters per (module, profile, isa,
    #: strategy, BCE flag), same keying/lifetime discipline as
    #: ``_cycles_cache``.
    _check_cache: Dict[Tuple[int, int, str, str, bool], Tuple[Dict[str, int], object, object]] = field(
        default_factory=dict, repr=False
    )

    @property
    def is_native(self) -> bool:
        return self.kind == "native"

    def supports(self, isa_name: str) -> bool:
        return isa_name in self.supported_isas

    def compiled(
        self,
        module: Module,
        isa: IsaModel,
        strategy: BoundsStrategy,
        bce: bool = True,
    ) -> CompiledModule:
        """The module compiled for one ISA and strategy.

        ``bce=False`` compiles without the bounds-check elimination
        passes this runtime's compiler would otherwise run.
        """
        if self.compiler is None:
            raise ValueError(f"runtime {self.name} does not compile code")
        compiled, cached = compile_cached(
            self._cache, module, isa, self.compiler, strategy, bce,
        )
        if TRACE.enabled:
            # Pre-simulation work: stamped at t=0 of the enclosing run.
            TRACE.emit(
                0.0, RUNTIME_COMPILE,
                runtime=self.name, isa=isa.name, strategy=strategy.name,
                cached=cached,
            )
        return compiled

    def cycles(
        self,
        module: Module,
        profile: ExecutionProfile,
        isa: IsaModel,
        strategy: BoundsStrategy,
        bce: bool = True,
    ) -> float:
        """Single-thread execution cycles for one run of the workload."""
        if not self.supports(isa.name):
            raise ValueError(f"runtime {self.name} has no {isa.name} backend")
        key = (id(module), id(profile), isa.name, strategy.name, bce)
        cached = self._cycles_cache.get(key)
        if cached is not None:
            if TRACE.enabled:
                TRACE.emit(
                    0.0, RUNTIME_COSTING,
                    runtime=self.name, isa=isa.name, strategy=strategy.name,
                    cycles=cached[0], cached=True,
                )
            return cached[0]
        if self.kind == "interp":
            result = interpreter_cycles(profile, isa)
        else:
            result = (
                cycles_for_profile(
                    self.compiled(module, isa, strategy, bce), profile
                )
                * self.schedule_overhead
            )
        self._cycles_cache[key] = (result, module, profile)
        if TRACE.enabled:
            TRACE.emit(
                0.0, RUNTIME_COSTING,
                runtime=self.name, isa=isa.name, strategy=strategy.name,
                cycles=result, cached=False,
            )
        return result

    def check_stats(
        self,
        module: Module,
        profile: ExecutionProfile,
        isa: IsaModel,
        strategy: BoundsStrategy,
        bce: bool = True,
    ) -> Dict[str, int]:
        """Dynamic bounds-check counts for one run: emitted vs elided.

        Interpreters check every access inline (nothing elided); code
        without inline checks (``none`` or the signal-based strategies)
        emits none.  Otherwise the counts come from the compiled
        module's surviving ``boundscheck`` ops and the BCE pass's
        per-block elision counters, priced by the dynamic profile.
        """
        if self.kind == "interp":
            return {"emitted": profile.mem_loads + profile.mem_stores, "elided": 0}
        if self.compiler is None or not strategy.inline_check:
            return {"emitted": 0, "elided": 0}
        key = (id(module), id(profile), isa.name, strategy.name, bce)
        cached = self._check_cache.get(key)
        if cached is None:
            stats = check_counts_for_profile(
                self.compiled(module, isa, strategy, bce), profile
            )
            cached = (stats, module, profile)
            self._check_cache[key] = cached
        return dict(cached[0])

    def compile_seconds(self, module: Module) -> float:
        """Modelled translation time for the whole module."""
        instrs = sum(len(func.body) for func in module.funcs)
        return instrs * self.compile_seconds_per_instr

    def code_size_ops(self, module: Module, isa: IsaModel, strategy: BoundsStrategy) -> int:
        """Static machine-op count (code-size proxy); 0 for interpreters."""
        if self.compiler is None:
            return 0
        return self.compiled(module, isa, strategy).total_static_ops
