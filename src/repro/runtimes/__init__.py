"""Runtime models: the paper's execution environments (§3.2).

Six environments: native GCC and Clang baselines, the WAVM (LLVM
MCJIT) and Wasmtime (Cranelift) ahead-of-time compilers, V8 TurboFan,
and the Wasm3 threaded interpreter.  Each model configures the shared
compiler (pass set, allocator quality, per-access bookkeeping) or the
interpreter cost model, plus the system-level behaviour the
discrete-event simulation needs (helper threads, GC pauses, process-
vs-thread isolation).
"""

from repro.runtimes.base import RuntimeModel
from repro.runtimes.registry import RUNTIMES, WASM_RUNTIMES, runtime_named

__all__ = ["RuntimeModel", "RUNTIMES", "WASM_RUNTIMES", "runtime_named"]
