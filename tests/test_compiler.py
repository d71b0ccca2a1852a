"""Tests for the compiler: frontend, passes, regalloc, isel, timing."""

import pytest

from repro.compiler.frontend import lower_function, lower_module
from repro.compiler.ir import PURE_OPS
from repro.compiler.isel import SelectionConfig, select_function
from repro.compiler.passes import (
    constant_fold,
    dead_code_elim,
    local_cse,
    loop_invariant_code_motion,
    run_passes,
    strength_reduce,
)
from repro.compiler.pipeline import ALL_PASSES, CompilerConfig, compile_module
from repro.compiler.regalloc import estimate_spills
from repro.compiler.timing import cycles_for_profile, interpreter_cycles
from repro.isa import isa_named
from repro.isa.model import OPK
from repro.runtime import Interpreter, strategy_named
from repro.wasm.dsl import Const, DslModule


def build_saxpy(n=8):
    """y[i] = a*x[i] + y[i] — one loop, one invariant-rich address per op."""
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


def all_ops(irf):
    return [ins.op for ins in irf.instructions()]


class TestFrontend:
    def test_boundscheck_before_every_access(self):
        irf = lowered(build_saxpy())
        ops = all_ops(irf)
        assert ops.count("boundscheck") == 3  # 2 loads + 1 store
        assert ops.count("load") == 2
        assert ops.count("store") == 1

    def test_loop_carried_local_gets_phi(self):
        irf = lowered(build_saxpy())
        phis = [ins for ins in irf.instructions() if ins.op == "phi"]
        assert len(phis) == 1  # only `i` is written inside the loop

    def test_loop_header_block_identified(self):
        irf = lowered(build_saxpy())
        loop_blocks = [b for b in irf.blocks if b.loop_depth == 1]
        assert loop_blocks, "loop body must be inside a loop path"

    def test_leaders_exclude_end_and_else(self):
        module = build_saxpy()
        irf = lowered(module)
        body = module.funcs[0].body
        for block in irf.blocks:
            if block.leader_pc >= 0:
                assert body[block.leader_pc].op not in ("end", "else")

    def test_locals_are_register_renames(self):
        # local.get/set must not emit IR instructions.
        dm = DslModule()
        f = dm.func("f", params=[("x", "i32")], results=["i32"])
        t = f.i32()
        f.set(t, f.params[0] + 1)
        f.ret(t)
        irf = lowered(dm.build())
        ops = all_ops(irf)
        assert "iadd" in ops
        assert ops.count("move") == 0

    def test_lower_module_covers_all_functions(self):
        dm = DslModule()
        dm.func("a").fb.emit("nop")
        dm.func("b").fb.emit("nop")
        irfs = lower_module(dm.build())
        assert set(irfs) == {0, 1}

    def test_call_lowering(self):
        dm = DslModule()
        g = dm.func("g", params=[("x", "i32")], results=["i32"], export=False)
        g.ret(g.params[0])
        f = dm.func("f", results=["i32"])
        f.ret(f.call(g, 5))
        irf = lower_module(dm.build())[1]
        assert "call" in all_ops(irf)

    @pytest.mark.parametrize("op", ["memory.fill", "memory.copy"])
    def test_bulk_memory_op_named_in_error(self, op):
        dm = DslModule()
        dm.array_i32("a", 4)
        f = dm.func("f")
        for _ in range(3):
            f.fb.emit("i32.const", 0)
        f.fb.emit(op)
        with pytest.raises(NotImplementedError, match=f"{op}.*bulk-memory"):
            lowered(dm.build())


class TestPasses:
    def test_constant_fold(self):
        dm = DslModule()
        f = dm.func("f", results=["i32"])
        f.ret(Const(3, "i32") + 4)
        irf = lowered(dm.build())
        consts = constant_fold(irf)
        assert "iadd" not in all_ops(irf)
        assert 7 in consts.values()

    def test_cse_unifies_duplicate_address_math(self):
        dm = DslModule()
        arr = dm.array_f64("A", 16)
        f = dm.func("f", params=[("i", "i32")])
        i = f.params[0]
        f.store(arr[i], arr[i] + 1.0)  # address computed for load and store
        irf = lowered(dm.build())
        before = all_ops(irf).count("ishl") + all_ops(irf).count("imul")
        local_cse(irf, check_elim=False)
        after = all_ops(irf).count("ishl") + all_ops(irf).count("imul")
        assert after < before

    def test_checkelim_drops_redundant_boundscheck(self):
        dm = DslModule()
        arr = dm.array_f64("A", 16)
        f = dm.func("f", params=[("i", "i32")])
        i = f.params[0]
        f.store(arr[i], arr[i] + 1.0)
        irf = lowered(dm.build())
        local_cse(irf, check_elim=True)
        assert all_ops(irf).count("boundscheck") == 1

    def test_cse_does_not_merge_loads_across_stores(self):
        dm = DslModule()
        arr = dm.array_f64("A", 16)
        f = dm.func("f", results=["f64"])
        f.store(arr[0], 1.0)
        first = f.f64()
        f.set(first, arr[0])
        f.store(arr[0], 2.0)
        f.ret(arr[0] + first)
        irf = lowered(dm.build())
        local_cse(irf, check_elim=False)
        assert all_ops(irf).count("load") == 2  # reload after the store

    def test_licm_hoists_invariant_address_parts(self):
        module = build_saxpy()
        irf = lowered(module)
        local_cse(irf, check_elim=False)
        hoisted = loop_invariant_code_motion(irf)
        # x and y base addresses (const) stay; the per-iteration i<<3 is
        # variant; invariants like the trip bound const may hoist.
        assert hoisted >= 0  # smoke: no crash, counts consistent
        # Stronger: an expression invariant in the inner loop hoists.
        dm = DslModule()
        arr = dm.array_f64("A", 64)
        f = dm.func("f", params=[("k", "i32")])
        k = f.params[0]
        i = f.i32()
        with f.for_(i, 0, 8):
            f.store(arr[k * 7], arr[k * 7] + 1.0)  # k*7 is invariant
        irf2 = lowered(dm.build())
        local_cse(irf2, check_elim=False)
        hoisted2 = loop_invariant_code_motion(irf2)
        assert hoisted2 > 0
        loop_blocks = [b for b in irf2.blocks if b.loop_depth == 1]
        assert not any(
            ins.op == "imul" for b in loop_blocks for ins in b.instrs
        ), "k*7 should have been hoisted out of the loop"

    def test_licm_does_not_hoist_loop_variant(self):
        module = build_saxpy()
        irf = lowered(module)
        loop_invariant_code_motion(irf)
        loop_blocks = [b for b in irf.blocks if b.loop_depth == 1]
        # i<<3 (address scaling by the loop variable) must stay inside.
        assert any(
            ins.op in ("ishl", "imul") for b in loop_blocks for ins in b.instrs
        )

    def test_strength_reduction(self):
        dm = DslModule()
        f = dm.func("f", params=[("x", "i32")], results=["i32"])
        f.ret(f.params[0] * 8)
        irf = lowered(dm.build())
        consts = constant_fold(irf)
        assert strength_reduce(irf, consts) == 1
        assert "imul" not in all_ops(irf)
        assert "ishl" in all_ops(irf)

    def test_dce_removes_unused_pure_ops(self):
        dm = DslModule()
        f = dm.func("f", results=["i32"])
        f.eval_drop(Const(1, "i32") + 2)  # computed then dropped
        f.ret(Const(5, "i32"))
        irf = lowered(dm.build())
        removed = dead_code_elim(irf)
        assert removed >= 2

    def test_dce_keeps_stores(self):
        module = build_saxpy()
        irf = lowered(module)
        dead_code_elim(irf)
        assert "store" in all_ops(irf)

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown passes"):
            CompilerConfig(
                name="x", passes=frozenset({"vectorize"}),
                regalloc_quality=1.0, addressing_fusion=True,
            )


class TestRegalloc:
    def test_low_pressure_no_spills(self):
        irf = lowered(build_saxpy())
        report = estimate_spills(irf, isa_named("x86_64"), quality=1.0)
        assert report.spilled_regs == 0

    def test_reduced_quality_can_spill(self):
        # A function with many simultaneously-live values.
        dm = DslModule()
        arr = dm.array_f64("A", 64)
        f = dm.func("f", results=["f64"])
        locals_ = [f.f64() for _ in range(24)]
        for index, lv in enumerate(locals_):
            f.set(lv, arr[index])
        total = f.f64()
        for lv in locals_:
            f.set(total, total + lv)
        f.ret(total)
        irf = lowered(dm.build())
        generous = estimate_spills(irf, isa_named("x86_64"), quality=1.0)
        tight = estimate_spills(irf, isa_named("x86_64"), quality=0.3)
        assert tight.total_ops > generous.total_ops

    def test_spill_avoids_hot_loop_registers(self):
        """Victims should be cold values, keeping inner-loop regs live."""
        dm = DslModule()
        arr = dm.array_f64("A", 64)
        f = dm.func("f", results=["f64"])
        # Cold values: loaded before the loop, only used after it.
        cold = [f.f64() for _ in range(10)]
        for index, lv in enumerate(cold):
            f.set(lv, arr[index])
        acc, i = f.f64(), f.i32()
        with f.for_(i, 0, 16):
            f.set(acc, acc + arr[i] * 2.0)
        total = f.f64()
        f.set(total, acc)
        for lv in cold:
            f.set(total, total + lv)
        f.ret(total)
        irf = lowered(dm.build())
        report = estimate_spills(irf, isa_named("x86_64"), quality=0.3)
        assert report.total_ops > 0
        loop_block_ids = {b.id for b in irf.blocks if b.loop_depth > 0}
        hot_spills = sum(report.per_block.get(b, 0) for b in loop_block_ids)
        cold_spills = report.total_ops - hot_spills
        assert cold_spills >= hot_spills


class TestIsel:
    def select(self, module, inline_check="", fusion=True, extra=0, isa="x86_64"):
        # BCE excluded: these tests exercise how isel lowers checks
        # that are actually present in the IR.
        irf = lowered(module)
        run_passes(irf, set(ALL_PASSES) - {"bce", "bceloop"})
        config = SelectionConfig(
            inline_check=inline_check, extra_access_ops=extra,
            addressing_fusion=fusion,
        )
        return irf, select_function(irf, isa_named(isa), config)

    def flat(self, ops):
        return [kind for kinds in ops.values() for kind in kinds]

    def test_clamp_emits_cmp_cmov(self):
        irf, ops = self.select(build_saxpy(), inline_check="clamp")
        kinds = self.flat(ops)
        assert OPK.CMOV in kinds

    def test_clamp_on_riscv_uses_alu_sequence(self):
        irf, ops = self.select(build_saxpy(), inline_check="clamp", isa="riscv64")
        kinds = self.flat(ops)
        assert OPK.CMOV not in kinds

    def test_trap_emits_fused_check(self):
        irf, ops = self.select(build_saxpy(), inline_check="trap")
        assert OPK.CMP_BRANCH in self.flat(ops)

    def test_none_emits_no_check_ops(self):
        irf, ops = self.select(build_saxpy(), inline_check="")
        kinds = self.flat(ops)
        assert OPK.CMOV not in kinds
        assert OPK.CMP_BRANCH not in kinds

    def test_extra_access_ops_add_alu(self):
        _, plain = self.select(build_saxpy(), inline_check="")
        _, extra = self.select(build_saxpy(), inline_check="", extra=1)
        assert len(self.flat(extra)) > len(self.flat(plain))

    def test_fusion_reduces_op_count(self):
        _, fused = self.select(build_saxpy(), fusion=True)
        _, unfused = self.select(build_saxpy(), fusion=False)
        assert len(self.flat(fused)) < len(self.flat(unfused))

    def test_inline_check_inhibits_fusion(self):
        _, none_ops = self.select(build_saxpy(), inline_check="")
        _, trap_ops = self.select(build_saxpy(), inline_check="trap")
        # trap adds check ops AND loses the folded address math.
        assert len(self.flat(trap_ops)) > len(self.flat(none_ops)) + 2

    def test_call_indirect_includes_table_checks(self):
        dm = DslModule()
        f = dm.func("f", params=[("x", "i32")], results=["i32"])
        f.ret(f.params[0])
        module = dm.build()
        module.tables.append(
            __import__("repro.wasm.types", fromlist=["TableType"]).TableType(
                __import__("repro.wasm.types", fromlist=["Limits"]).Limits(1)
            )
        )
        from repro.wasm.instructions import Instr
        module.funcs[0].body = [
            Instr("local.get", (0,)),
            Instr("local.get", (0,)),
            Instr("call_indirect", (0, 0)),
        ]
        irf = lower_function(module, 0, module.funcs[0])
        config = SelectionConfig("", 0, True)
        ops = select_function(irf, isa_named("x86_64"), config)
        kinds = self.flat(ops)
        assert OPK.CALL_IND in kinds
        assert kinds.count(OPK.CMP_BRANCH) >= 2  # bounds + signature


class TestTiming:
    def make_profile(self, module):
        interp = Interpreter(module)
        interp.invoke("run", 2.0)
        return interp.take_profile("saxpy", "test")

    def test_cycles_scale_with_work(self):
        small = build_saxpy(8)
        big = build_saxpy(64)
        isa = isa_named("x86_64")
        config = CompilerConfig(
            name="t", passes=frozenset(ALL_PASSES),
            regalloc_quality=1.0, addressing_fusion=True,
        )
        strategy = strategy_named("none")
        cycles_small = cycles_for_profile(
            compile_module(small, isa, config, strategy), self.make_profile(small)
        )
        cycles_big = cycles_for_profile(
            compile_module(big, isa, config, strategy), self.make_profile(big)
        )
        assert cycles_big > 5 * cycles_small

    def test_trap_costs_more_than_none(self):
        module = build_saxpy(32)
        profile = self.make_profile(module)
        isa = isa_named("x86_64")
        config = CompilerConfig(
            name="t", passes=frozenset(ALL_PASSES),
            regalloc_quality=1.0, addressing_fusion=True,
        )
        none_cycles = cycles_for_profile(
            compile_module(module, isa, config, strategy_named("none")), profile
        )
        trap_cycles = cycles_for_profile(
            compile_module(module, isa, config, strategy_named("trap")), profile
        )
        clamp_cycles = cycles_for_profile(
            compile_module(module, isa, config, strategy_named("clamp")), profile
        )
        assert none_cycles < trap_cycles < clamp_cycles

    def test_interpreter_much_slower_than_compiled(self):
        module = build_saxpy(32)
        profile = self.make_profile(module)
        isa = isa_named("x86_64")
        config = CompilerConfig(
            name="t", passes=frozenset(ALL_PASSES),
            regalloc_quality=1.0, addressing_fusion=True,
        )
        compiled_cycles = cycles_for_profile(
            compile_module(module, isa, config, strategy_named("none")), profile
        )
        interp = interpreter_cycles(profile, isa)
        assert interp > 4 * compiled_cycles

    def test_uncalled_function_costs_nothing(self):
        dm = DslModule()
        f = dm.func("run", params=[("a", "f64")])
        f.set(f.f64(), f.params[0])
        unused = dm.func("unused")
        unused.fb.emit("nop")
        module = dm.build()
        profile = self.make_profile(module)
        isa = isa_named("x86_64")
        config = CompilerConfig(
            name="t", passes=frozenset(ALL_PASSES),
            regalloc_quality=1.0, addressing_fusion=True,
        )
        compiled = compile_module(module, isa, config, strategy_named("none"))
        assert cycles_for_profile(compiled, profile) >= 0
