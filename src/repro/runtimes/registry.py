"""The six execution environments, configured to match §3.2.

Calibration notes (targets from the paper, §1.3, §4.1, §4.4):

* WAVM (LLVM) is the fastest Wasm runtime — 8–20 % average overhead on
  x86-64 — so it gets the full LLVM pass set and near-native allocator
  quality, minus one reserved register for the sandbox memory base.
* Wasmtime (Cranelift) trails WAVM: no loop-invariant code motion or
  strength reduction in our Cranelift model, weaker allocation, small
  scheduling overhead.
* V8 TurboFan lands just behind Wasmtime single-threaded, pays ~10
  points extra under signal-based strategies (trap-handler metadata +
  dynamic memory base, §4.1), spawns helper threads and periodically
  pauses for GC (the Fig. 4/5 16-thread behaviour).
* Wasm3 is a threaded interpreter measured at 6–11× slower than
  V8-TurboFan (§4.4); it has no compiler configuration at all and
  effectively uses the ``trap`` strategy (§3.2).
* Native GCC beats native Clang slightly on PolyBench (§4.1 observes
  WAVM can approach GCC because LLVM sometimes generates better code
  from wasm than from C); we model that as a small loop bonus.
* WAVM and Wasmtime have no RISC-V backend (§3.4): MCJIT crashes and
  Cranelift lacks the target, leaving Native/Wasm3/V8 there.
"""

from __future__ import annotations

from repro.compiler.pipeline import ALL_PASSES, CompilerConfig
from repro.runtimes.base import RuntimeModel

#: Bounds-check elimination per engine: LLVM's range analysis gives
#: WAVM (and native) the full pass; TurboFan types induction variables,
#: so V8 gets it too; Cranelift only deduplicates dominated checks (no
#: loop phase); Liftoff and Wasm3 do no elimination at all.
_LLVM_PASSES = frozenset(ALL_PASSES)
_CRANELIFT_PASSES = frozenset({"constfold", "cse", "licm", "dce", "bce"})
_TURBOFAN_PASSES = frozenset(
    {"constfold", "cse", "licm", "dce", "bce", "bceloop"}
)

#: The three optimising Wasm runtimes also take the projected CHERI
#: strategy (§2.3), which only the ``cheri`` experiment measures.
_WITH_CHERI = RuntimeModel.strategies + ("cheri",)

NATIVE_CLANG = RuntimeModel(
    name="native-clang",
    display="Native Clang 13",
    kind="native",
    compiler=CompilerConfig(
        name="clang",
        passes=_LLVM_PASSES,
        regalloc_quality=1.0,
        addressing_fusion=True,
    ),
    process_per_instance=True,
    strategies=("none",),
    default_strategy="none",
)

NATIVE_GCC = RuntimeModel(
    name="native-gcc",
    display="Native GCC 11",
    kind="native",
    compiler=CompilerConfig(
        name="gcc",
        passes=_LLVM_PASSES,
        regalloc_quality=1.0,
        addressing_fusion=True,
        # GCC's loop optimiser edges out LLVM on PolyBench kernels.
        loop_bonus=0.94,
    ),
    process_per_instance=True,
    strategies=("none",),
    default_strategy="none",
)

WAVM = RuntimeModel(
    name="wavm",
    display="WAVM (LLVM MCJIT)",
    kind="aot",
    compiler=CompilerConfig(
        name="wavm-llvm",
        stack_checks=True,
        passes=_LLVM_PASSES,
        # One register reserved for the linear-memory base.
        regalloc_quality=0.92,
        addressing_fusion=True,
    ),
    schedule_overhead=1.13,
    supported_isas=frozenset({"x86_64", "armv8"}),
    compile_seconds_per_instr=25e-6,  # LLVM -O2 via MCJIT
    strategies=_WITH_CHERI,
)

WASMTIME = RuntimeModel(
    name="wasmtime",
    display="Wasmtime (Cranelift)",
    kind="aot",
    compiler=CompilerConfig(
        name="cranelift",
        stack_checks=True,
        passes=_CRANELIFT_PASSES,
        regalloc_quality=0.85,
        addressing_fusion=True,
    ),
    schedule_overhead=1.16,
    supported_isas=frozenset({"x86_64", "armv8"}),
    compile_seconds_per_instr=2.5e-6,  # Cranelift: ~10x faster than LLVM
    strategies=_WITH_CHERI,
)

#: V8's baseline tier: a single-pass compiler that trades code
#: quality for near-instant start-up (Titzer [29] compares it as
#: "v8-liftoff"; the paper's measurements use the TurboFan tier).
V8_LIFTOFF = RuntimeModel(
    name="v8-liftoff",
    display="V8 Liftoff (baseline tier)",
    kind="jit",
    compiler=CompilerConfig(
        name="liftoff",
        stack_checks=True,
        passes=frozenset({"dce"}),   # a single pass, no real optimisation
        regalloc_quality=0.55,
        addressing_fusion=False,
        signal_strategy_access_ops=1,
    ),
    schedule_overhead=1.25,
    helper_threads=3,
    gc_pause_interval=60e-3,
    gc_pause_duration=1.8e-3,
    compile_seconds_per_instr=0.08e-6,
)

V8 = RuntimeModel(
    name="v8",
    display="V8 TurboFan",
    kind="jit",
    compiler=CompilerConfig(
        name="turbofan",
        stack_checks=True,
        passes=_TURBOFAN_PASSES,
        regalloc_quality=0.82,
        addressing_fusion=True,
        # Trap-handler bookkeeping + dynamic memory base: one extra ALU
        # op per access whenever bounds checking is on in any form —
        # the paper's "10 points for V8" under mprotect/uffd (§4.1).
        # It rides on the access, so BCE cannot elide it and explicit
        # checks can never undercut the signal strategies.
        signal_strategy_access_ops=1,
    ),
    schedule_overhead=1.18,
    helper_threads=3,
    gc_pause_interval=60e-3,
    gc_pause_duration=1.8e-3,
    compile_seconds_per_instr=6e-6,
    strategies=_WITH_CHERI,
)

WASM3 = RuntimeModel(
    name="wasm3",
    display="Wasm3 (interpreter)",
    kind="interp",
    compiler=None,
    # The interpreter's memory-op code is inherently trap-checked; it
    # was not modified (§3.2).
    strategies=("trap",),
    default_strategy="trap",
    compile_seconds_per_instr=0.02e-6,  # transpile to the in-place IR
)

RUNTIMES: dict[str, RuntimeModel] = {
    model.name: model
    for model in (NATIVE_CLANG, NATIVE_GCC, WAVM, WASMTIME, V8, V8_LIFTOFF, WASM3)
}

#: The four WebAssembly runtimes, in the paper's presentation order.
WASM_RUNTIMES = ["wavm", "wasmtime", "v8", "wasm3"]


def runtime_named(name: str) -> RuntimeModel:
    try:
        return RUNTIMES[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime {name!r}; choose from {sorted(RUNTIMES)}"
        ) from None

