"""Tests for global bounds-check elimination (repro.compiler.bce).

Dominance-phase legality is exercised on hand-built IR (precise control
over scope paths and facts); the loop phase runs on DSL-built kernels
through the real frontend; gating, conservation and the per-cell BCE flag
go through the full pipeline.
"""

import pytest

from repro.compiler.bce import BCEStats, bounds_check_elimination
from repro.compiler.frontend import lower_function, lower_module
from repro.compiler.ir import IRFunction, IRInstr
from repro.compiler.passes import run_passes
from repro.compiler.pipeline import (
    ALL_PASSES,
    CompilerConfig,
    compile_module,
    front_half_inputs,
)
from repro.core.engine import MeasurementEngine, MeasurementRequest
from repro.compiler.timing import check_counts_for_profile, cycles_for_profile
from repro.isa import isa_named
from repro.runtime import Interpreter, strategy_named
from repro.runtimes.registry import RUNTIMES
from repro.wasm.dsl import DslModule

X86 = isa_named("x86_64")

NO_BCE = frozenset(ALL_PASSES) - {"bce", "bceloop"}


def check(reg, nbytes=8):
    return IRInstr("boundscheck", None, (reg,), nbytes)


def checks_in(irf):
    return [ins for ins in irf.instructions() if ins.op == "boundscheck"]


def run_bce(irf, loops=False):
    stats = BCEStats()
    bounds_check_elimination(irf, loops_enabled=loops, stats=stats)
    return stats


def build_saxpy(n=8):
    dm = DslModule("saxpy")
    x = dm.array_f64("x", n)
    y = dm.array_f64("y", n)
    f = dm.func("run", params=[("a", "f64")])
    a = f.params[0]
    i = f.i32("i")
    with f.for_(i, 0, n):
        f.store(y[i], a * x[i] + y[i])
    return dm.build()


def lowered(module, func_index=0):
    return lower_function(module, func_index, module.funcs[func_index])


# ----------------------------------------------------------------------
# Dominance phase, on hand-built IR
# ----------------------------------------------------------------------
class TestDominancePhase:
    def test_dominated_duplicate_in_same_block(self):
        irf = IRFunction(0, "f")
        b = irf.new_block()
        b.instrs = [check(1), check(1)]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 1
        assert len(checks_in(irf)) == 1
        assert stats.elided_by_block == {b.id: 1}

    def test_narrower_fact_does_not_cover_wider_check(self):
        irf = IRFunction(0, "f")
        b = irf.new_block()
        b.instrs = [check(1, 4), check(1, 8), check(1, 4)]
        stats = run_bce(irf)
        # The 8-byte check survives (4 < 8) but widens the fact, so the
        # trailing 4-byte check is covered.
        assert stats.eliminated_dominated == 1
        assert [c.imm for c in checks_in(irf)] == [4, 8]

    def test_outer_scope_dominates_nested_block(self):
        irf = IRFunction(0, "f")
        outer = irf.new_block(scope_path=())
        inner = irf.new_block(scope_path=(("blk", 3),))
        outer.instrs = [check(1)]
        inner.instrs = [check(1)]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 1
        assert checks_in(irf)[0] is outer.instrs[0]

    def test_if_arm_does_not_dominate_join(self):
        irf = IRFunction(0, "f")
        arm = irf.new_block(scope_path=(("if", 2, 0),), if_depth=1)
        join = irf.new_block(scope_path=())
        arm.instrs = [check(1)]
        join.instrs = [check(1)]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 0
        assert len(checks_in(irf)) == 2

    def test_redefinition_kills_fact(self):
        irf = IRFunction(0, "f")
        b = irf.new_block()
        b.instrs = [check(1), IRInstr("iadd", 1, (2, 3)), check(1)]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 0

    def test_growmem_kills_all_facts(self):
        irf = IRFunction(0, "f")
        b = irf.new_block()
        b.instrs = [check(1), IRInstr("growmem", 4, (5,)), check(1)]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 0

    def test_fact_from_outside_loop_dropped_if_loop_redefines(self):
        # r1 is checked before the loop but advanced inside it: the
        # pre-loop fact is stale on iteration 2, so the in-loop check
        # must survive.
        irf = IRFunction(0, "f")
        pre = irf.new_block(scope_path=())
        body = irf.new_block(loop_path=(7,), scope_path=(("loop", 7),))
        pre.instrs = [check(1)]
        body.instrs = [check(1), IRInstr("iadd", 1, (1, 2))]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 0
        assert len(checks_in(irf)) == 2

    def test_fact_established_inside_loop_still_works(self):
        irf = IRFunction(0, "f")
        irf.new_block(scope_path=())
        body = irf.new_block(loop_path=(7,), scope_path=(("loop", 7),))
        body.instrs = [check(1), check(1)]
        stats = run_bce(irf)
        assert stats.eliminated_dominated == 1


# ----------------------------------------------------------------------
# Loop phase, through the real frontend
# ----------------------------------------------------------------------
class TestLoopPhase:
    def test_affine_checks_pooled_into_preheader(self):
        irf = lowered(build_saxpy())
        before = len(checks_in(irf))
        assert before == 3  # x[i] load, y[i] load, y[i] store
        stats = BCEStats()
        run_passes(irf, {"licm", "bce", "bceloop"}, bce_stats=stats)
        assert stats.eliminated_affine == 3
        assert stats.guards_added == 1
        # No checks left inside the loop; one pooled guard outside.
        in_loop = [
            ins for b in irf.blocks if b.loop_path
            for ins in b.instrs if ins.op == "boundscheck"
        ]
        assert in_loop == []
        guards = [
            ins for b in irf.blocks if not b.loop_path
            for ins in b.instrs if ins.op == "boundscheck"
        ]
        assert len(guards) == 1
        # Pooled guard: widened to the max access size, no live source.
        assert guards[0].srcs == ()
        assert guards[0].imm == 8

    def test_invariant_check_hoisted_with_licm(self):
        # x[k] with loop-invariant k: LICM hoists the address compute,
        # then BCE hoists the (now invariant) check as a guard.
        dm = DslModule("inv")
        x = dm.array_f64("x", 8)
        f = dm.func("run", params=[("k", "i32")], results=["f64"])
        k = f.params[0]
        s = f.f64("s")
        i = f.i32("i")
        with f.for_(i, 0, 8):
            f.set(s, s + x[k])
        f.ret(s)
        irf = lowered(dm.build())
        stats = BCEStats()
        run_passes(irf, {"licm", "bce", "bceloop"}, bce_stats=stats)
        assert stats.eliminated_invariant >= 1
        in_loop = [
            ins for b in irf.blocks if b.loop_path
            for ins in b.instrs if ins.op == "boundscheck"
        ]
        assert in_loop == []
        guards = [
            ins for b in irf.blocks if not b.loop_path
            for ins in b.instrs if ins.op == "boundscheck"
        ]
        assert len(guards) >= 1
        assert all(g.srcs for g in guards)  # hoisted checks keep their reg

    def test_loop_phase_disabled_without_bceloop(self):
        irf = lowered(build_saxpy())
        stats = BCEStats()
        run_passes(irf, {"licm", "bce"}, bce_stats=stats)
        assert stats.eliminated_affine == 0
        assert stats.eliminated_invariant == 0
        assert stats.guards_added == 0

    def test_growmem_in_loop_disables_loop_phase(self):
        irf = IRFunction(0, "f")
        irf.new_block(scope_path=())  # preheader
        header = irf.new_block(loop_path=(9,), scope_path=(("loop", 9),))
        header.instrs = [
            IRInstr("phi", 1),
            check(1),
            IRInstr("growmem", 5, (6,)),
            IRInstr("iadd", 1, (1, 2)),
        ]
        stats = run_bce(irf, loops=True)
        assert stats.eliminated_affine == 0
        assert stats.eliminated_invariant == 0
        assert len(checks_in(irf)) == 1

    def test_elided_by_block_matches_total(self):
        irf = lowered(build_saxpy())
        stats = BCEStats()
        run_passes(irf, {"licm", "bce", "bceloop"}, bce_stats=stats)
        assert sum(stats.elided_by_block.values()) == stats.eliminated_total


# ----------------------------------------------------------------------
# Pipeline gating + conservation
# ----------------------------------------------------------------------
class TestPipelineGating:
    def compile(self, module, strategy, passes, config=None):
        config = config or CompilerConfig(
            name="test", passes=frozenset(passes), regalloc_quality=0.92,
            addressing_fusion=True, stack_checks=True,
        )
        return compile_module(module, X86, config, strategy_named(strategy))

    def test_non_inline_strategies_unaffected_by_bce(self):
        module = build_saxpy()
        for strategy in ("none", "mprotect", "uffd"):
            with_bce = self.compile(module, strategy, ALL_PASSES)
            without = self.compile(module, strategy, NO_BCE)
            for idx in with_bce.functions:
                assert (
                    with_bce.functions[idx].machine_ops
                    == without.functions[idx].machine_ops
                )
                assert (
                    with_bce.functions[idx].block_cycles
                    == without.functions[idx].block_cycles
                )
            assert with_bce.checks_elided_static == 0

    def test_static_conservation_for_inline_strategies(self):
        module = build_saxpy()
        for strategy in ("trap", "clamp"):
            on = self.compile(module, strategy, ALL_PASSES)
            off = self.compile(module, strategy, NO_BCE)
            assert off.checks_elided_static == 0
            assert on.checks_elided_static > 0
            # Guards may add emitted sites, but never more than elided.
            assert (
                off.checks_emitted_static
                <= on.checks_emitted_static + on.checks_elided_static
            )

    def test_dynamic_conservation_and_speedup(self):
        module = build_saxpy()
        interp = Interpreter(module)
        interp.invoke("run", 2.0)
        profile = interp.take_profile("saxpy", "test")
        on = self.compile(module, "trap", ALL_PASSES)
        off = self.compile(module, "trap", NO_BCE)
        counts_on = check_counts_for_profile(on, profile)
        counts_off = check_counts_for_profile(off, profile)
        assert counts_off["elided"] == 0
        assert counts_on["elided"] > 0
        assert (
            counts_off["emitted"]
            <= counts_on["emitted"] + counts_on["elided"]
        )
        assert cycles_for_profile(on, profile) < cycles_for_profile(off, profile)


# ----------------------------------------------------------------------
# Configuration + the per-cell BCE flag
# ----------------------------------------------------------------------
class TestConfigAndToggle:
    def test_bceloop_requires_bce(self):
        with pytest.raises(ValueError, match="'bceloop' requires 'bce'"):
            CompilerConfig(
                name="bad", passes=frozenset({"bceloop"}),
                regalloc_quality=1.0, addressing_fusion=True,
            )

    def test_bce_off_strips_only_the_bce_passes(self):
        v8 = RUNTIMES["v8"].compiler
        assert {"bce", "bceloop"} <= v8.passes
        trap = strategy_named("trap")
        on, _ = front_half_inputs(v8, trap)
        off, _ = front_half_inputs(v8, trap, bce=False)
        assert on == v8.passes
        assert off == v8.passes - {"bce", "bceloop"}
        # Strategies without inline checks never run the passes.
        mprotect = strategy_named("mprotect")
        assert front_half_inputs(v8, mprotect) == front_half_inputs(
            v8, mprotect, bce=False
        )

    def test_bce_off_request_gets_its_own_key(self):
        engine = MeasurementEngine(cache=False)
        default = MeasurementRequest("gemm", "v8", "trap", "x86_64", size="mini")
        off = MeasurementRequest(
            "gemm", "v8", "trap", "x86_64", size="mini", bce=False
        )
        assert engine.key_for(off) != engine.key_for(default)
        explicit = MeasurementRequest(
            "gemm", "v8", "trap", "x86_64", size="mini", bce=True
        )
        assert engine.key_for(explicit) == engine.key_for(default)
        assert "bce" not in default.to_json()
        assert off.to_json()["bce"] is False
