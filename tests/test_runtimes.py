"""Tests for the runtime models and their paper-mandated invariants."""

import gc
import weakref

import pytest

from repro.api import SweepSpec
from repro.compiler.pipeline import compile_module
from repro.core.profiles import profile_for
from repro.isa import isa_named
from repro.runtime import strategy_named
from repro.runtime.strategies import STRATEGY_ORDER
from repro.runtimes import RUNTIMES, WASM_RUNTIMES, runtime_named
from repro.runtimes.base import RuntimeModel


@pytest.fixture(scope="module")
def gemm():
    return profile_for("gemm", "mini")


class TestRegistry:
    def test_environments_registered(self):
        # The paper's six (§3.2) plus the Liftoff extension tier.
        assert set(RUNTIMES) == {
            "native-clang", "native-gcc", "wavm", "wasmtime", "v8",
            "v8-liftoff", "wasm3",
        }
        assert WASM_RUNTIMES == ["wavm", "wasmtime", "v8", "wasm3"]

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            runtime_named("wasmer")

    def test_riscv_backend_gaps_match_paper(self):
        # §3.4: WAVM's MCJIT crashes on RISC-V; Cranelift has no target.
        assert not runtime_named("wavm").supports("riscv64")
        assert not runtime_named("wasmtime").supports("riscv64")
        assert runtime_named("v8").supports("riscv64")
        assert runtime_named("wasm3").supports("riscv64")
        assert runtime_named("native-clang").supports("riscv64")

    def test_default_strategy_is_mprotect_for_compiled_runtimes(self):
        # §3.2: WAVM, Wasmtime and V8 use mprotect by default.
        for name in ("wavm", "wasmtime", "v8"):
            assert runtime_named(name).default_strategy == "mprotect"

    def test_wasm3_only_traps(self):
        assert runtime_named("wasm3").strategies == ("trap",)

    def test_native_has_no_bounds_checking(self):
        assert runtime_named("native-clang").strategies == ("none",)

    def test_v8_has_helper_threads_and_gc(self):
        v8 = runtime_named("v8")
        assert v8.helper_threads > 0
        assert v8.gc_pause_interval > 0

    def test_native_spawns_processes(self):
        assert runtime_named("native-clang").process_per_instance
        assert not runtime_named("wavm").process_per_instance


class TestCycleInvariants:
    """The paper's §1.3/§4.1 orderings, checked on a real profile."""

    def cycles(self, gemm, runtime, strategy, isa="x86_64"):
        module, profile = gemm
        return runtime_named(runtime).cycles(
            module, profile, isa_named(isa), strategy_named(strategy)
        )

    def test_runtime_ordering_on_default_strategy(self, gemm):
        native = self.cycles(gemm, "native-clang", "none")
        wavm = self.cycles(gemm, "wavm", "mprotect")
        wasmtime = self.cycles(gemm, "wasmtime", "mprotect")
        v8 = self.cycles(gemm, "v8", "mprotect")
        wasm3 = self.cycles(gemm, "wasm3", "trap")
        assert native < wavm < wasmtime
        assert wasmtime < v8 * 1.05  # "V8 very closely" behind Wasmtime
        assert v8 < wasm3

    def test_strategy_ordering_within_each_runtime(self, gemm):
        for runtime in ("wavm", "wasmtime", "v8"):
            none = self.cycles(gemm, runtime, "none")
            trap = self.cycles(gemm, runtime, "trap")
            clamp = self.cycles(gemm, runtime, "clamp")
            mprotect = self.cycles(gemm, runtime, "mprotect")
            uffd = self.cycles(gemm, runtime, "uffd")
            assert none <= mprotect <= trap < clamp, runtime
            assert uffd == mprotect, runtime  # same compiled code shape

    def test_v8_pays_extra_for_signal_strategies(self, gemm):
        # §4.1: "10 points difference for the V8 runtime".
        v8_gap = self.cycles(gemm, "v8", "mprotect") / self.cycles(gemm, "v8", "none")
        wavm_gap = self.cycles(gemm, "wavm", "mprotect") / self.cycles(
            gemm, "wavm", "none"
        )
        assert v8_gap > 1.03
        assert wavm_gap == pytest.approx(1.0)

    def test_wasm3_in_titzer_band_vs_v8(self, gemm):
        ratio = self.cycles(gemm, "wasm3", "trap") / self.cycles(gemm, "v8", "mprotect")
        assert 4.0 < ratio < 15.0

    def test_relative_strategy_costs_isa_independent(self, gemm):
        """§1.3: strategy cost ratios within a few points across ISAs."""
        gaps = {}
        for isa in ("x86_64", "armv8"):
            trap = self.cycles(gemm, "wavm", "trap", isa)
            none = self.cycles(gemm, "wavm", "none", isa)
            gaps[isa] = trap / none
        assert abs(gaps["x86_64"] - gaps["armv8"]) < 0.10

    def test_unsupported_isa_raises(self, gemm):
        module, profile = gemm
        with pytest.raises(ValueError, match="backend"):
            runtime_named("wavm").cycles(
                module, profile, isa_named("riscv64"), strategy_named("none")
            )

    def test_gcc_faster_than_clang_on_loops(self, gemm):
        assert self.cycles(gemm, "native-gcc", "none") < self.cycles(
            gemm, "native-clang", "none"
        )

    def test_compilation_cached(self, gemm):
        module, profile = gemm
        runtime = runtime_named("wavm")
        first = runtime.compiled(module, isa_named("x86_64"), strategy_named("none"))
        second = runtime.compiled(module, isa_named("x86_64"), strategy_named("none"))
        assert first is second

    def test_shared_front_half_matches_fresh_compile(self, monkeypatch):
        """Every memoised compile equals a fresh one, whichever
        configuration first built the IR, op lists or back end it
        shares, and each is shared exactly where its inputs agree."""
        compiling = [
            name for name, model in RUNTIMES.items() if model.compiler is not None
        ]
        # trisolv's loops are pooled by BCE's affine phase, which is
        # legal under trap but not under wasm64.
        spec = SweepSpec(
            ("trisolv", "gemm"), runtimes=compiling,
            strategies=STRATEGY_ORDER, isas=("x86_64", "armv8", "riscv64"),
            size="mini",
        )
        # A fresh shared store, so no other test's compiles are reused.
        monkeypatch.setattr(RuntimeModel, "_cache", {})
        compiled = {}
        for request in spec.requests():
            module, _ = profile_for(request.workload, request.size)
            model = runtime_named(request.runtime)
            isa = isa_named(request.isa)
            strategy = strategy_named(request.strategy)
            got = model.compiled(module, isa, strategy)
            want = compile_module(module, isa, model.compiler, strategy)
            label = request.label()
            assert got.total_static_ops == want.total_static_ops, label
            assert got.checks_emitted_static == want.checks_emitted_static, label
            assert got.functions.keys() == want.functions.keys(), label
            for index, fresh in want.functions.items():
                func = got.functions[index]
                assert func.machine_ops == fresh.machine_ops, label
                assert func.block_cycles == fresh.block_cycles, label
                # Every BCE counter, elided_by_block included.
                assert func.bce == fresh.bce, label
            compiled[request.workload, request.runtime, request.strategy,
                     request.isa] = got

        def shared(first, second):
            first = compiled[first].functions
            second = compiled[second].functions
            return all(first[i].irf is second[i].irf for i in first)

        pooled = compiled["trisolv", "wavm", "trap", "x86_64"].functions
        assert sum(func.bce.eliminated_affine for func in pooled.values()) > 0
        for workload in spec.workloads:
            for runtime in ("wavm", "wasmtime", "v8"):
                for strategy in STRATEGY_ORDER:
                    if strategy != "mte":
                        assert shared(
                            (workload, runtime, strategy, "x86_64"),
                            (workload, runtime, strategy, "armv8"),
                        )
                assert shared(
                    (workload, runtime, "trap", "armv8"),
                    (workload, runtime, "mte", "armv8"),
                )
                for isa in ("x86_64", "armv8"):
                    none = (workload, runtime, "none", isa)
                    trap = (workload, runtime, "trap", isa)
                    for strategy in ("mprotect", "uffd"):
                        assert shared(none, (workload, runtime, strategy, isa))
                    assert not shared(none, trap)
                    assert not shared(trap, (workload, runtime, "wasm64", isa))
            for isa in ("x86_64", "armv8"):
                # Without inline checks the LLVM-like runtimes agree on
                # the pass set, and so do Cranelift and TurboFan.
                wavm = (workload, "wavm", "none", isa)
                for native in ("native-clang", "native-gcc"):
                    assert shared(wavm, (workload, native, "none", isa))
                assert shared(
                    (workload, "wasmtime", "none", isa),
                    (workload, "v8", "none", isa),
                )
                # Strategies that emit the same code share one back
                # end; V8 charges a bookkeeping op per access under
                # mprotect but not under none.
                for strategy in ("mprotect", "uffd"):
                    assert compiled[wavm] is compiled[
                        workload, "wavm", strategy, isa
                    ]
                assert compiled[workload, "v8", "none", isa] is not compiled[
                    workload, "v8", "mprotect", isa
                ]

    def test_clearing_the_store_frees_the_ir(self, gemm):
        """Clearing every model's ``_cache`` frees the IR compiled
        through it, so no process keeps a module's IR past that."""
        module, _ = gemm
        compiled = runtime_named("wavm").compiled(
            module, isa_named("x86_64"), strategy_named("trap")
        )
        irf = weakref.ref(next(iter(compiled.functions.values())).irf)
        del compiled
        for model in RUNTIMES.values():
            model._cache.clear()
        gc.collect()
        assert irf() is None


class TestTierTradeoff:
    """Titzer-style translation-time/code-quality statistics."""

    def test_compile_time_ordering(self, gemm):
        module, _ = gemm
        times = {
            name: runtime_named(name).compile_seconds(module)
            for name in ("wasm3", "v8-liftoff", "wasmtime", "v8", "wavm")
        }
        assert times["wasm3"] < times["v8-liftoff"] < times["wasmtime"]
        assert times["wasmtime"] < times["v8"] < times["wavm"]

    def test_liftoff_much_slower_than_turbofan_at_runtime(self, gemm):
        module, profile = gemm
        isa = isa_named("x86_64")
        strategy = strategy_named("mprotect")
        liftoff = runtime_named("v8-liftoff").cycles(module, profile, isa, strategy)
        turbofan = runtime_named("v8").cycles(module, profile, isa, strategy)
        assert liftoff > 1.3 * turbofan

    def test_code_size_zero_for_interpreter(self, gemm):
        module, _ = gemm
        isa = isa_named("x86_64")
        assert runtime_named("wasm3").code_size_ops(
            module, isa, strategy_named("trap")
        ) == 0
        assert runtime_named("wavm").code_size_ops(
            module, isa, strategy_named("none")
        ) > 0
