"""Ablations of the design choices DESIGN.md calls out.

Each ablation disables one mechanism of the compiler/kernel model and
checks how the headline numbers move — evidence that the mechanisms
(not tuned constants) produce the paper's shapes:

* addressing-mode fusion — turning it off should hurt every compiled
  configuration and *shrink* the relative cost of inline checks
  (because checks inhibit fusion, §isel);
* check elimination — the per-block ``checkelim`` CSE, the dominance
  phase ``bce`` that generalises it across blocks, and the loop phase
  ``bceloop`` together cut what ``trap`` pays for its inline checks,
  and leave the guard-page strategies untouched;
* loop-invariant code motion — the pass with the largest single
  effect on PolyBench-style address arithmetic;
* THP granularity — without huge-page zap batching, the mprotect
  reset's exclusive section on a 16 MiB arena grows ~190x.
"""

import pytest

from repro.compiler.pipeline import ALL_PASSES, CompilerConfig, compile_module
from repro.compiler.timing import cycles_for_profile
from repro.core.profiles import profile_for
from repro.isa import isa_named
from repro.runtime import strategy_named

#: Dropping ``checkelim`` alone changes nothing while ``bce`` runs:
#: every check the per-block CSE removes, the dominance phase removes
#: too.  So the three passes are ablated together.
CHECK_ELIMINATION = frozenset({"checkelim", "bce", "bceloop"})


@pytest.fixture(scope="module")
def gemm():
    return profile_for("gemm", "mini")


def cost(gemm, passes, fusion, strategy):
    module, profile = gemm
    config = CompilerConfig(
        name="ablation", passes=frozenset(passes),
        regalloc_quality=1.0, addressing_fusion=fusion,
    )
    compiled = compile_module(
        module, isa_named("x86_64"), config, strategy_named(strategy)
    )
    return cycles_for_profile(compiled, profile)


class TestFusionAblation:
    def test_fusion_speeds_up_unchecked_code(self, gemm):
        with_fusion = cost(gemm, ALL_PASSES, True, "none")
        without = cost(gemm, ALL_PASSES, False, "none")
        # Modest on gemm: CSE already shares most address chains, so
        # few single-use chains remain to fold.
        assert without / with_fusion > 1.02

    def test_checks_already_pay_the_fusion_tax(self, gemm):
        # With inline checks, fusion is inhibited anyway, so disabling
        # it moves trap-strategy cost by less than none-strategy cost.
        trap_with = cost(gemm, ALL_PASSES, True, "trap")
        trap_without = cost(gemm, ALL_PASSES, False, "trap")
        none_with = cost(gemm, ALL_PASSES, True, "none")
        none_without = cost(gemm, ALL_PASSES, False, "none")
        assert trap_without / trap_with < none_without / none_with


class TestCheckElimAblation:
    def test_check_elimination_reduces_trap_cost(self, gemm):
        with_elim = cost(gemm, ALL_PASSES, True, "trap")
        without = cost(gemm, ALL_PASSES - CHECK_ELIMINATION, True, "trap")
        assert without / with_elim > 1.01

    def test_check_elimination_is_noop_for_guard_strategies(self, gemm):
        with_elim = cost(gemm, ALL_PASSES, True, "mprotect")
        without = cost(gemm, ALL_PASSES - CHECK_ELIMINATION, True, "mprotect")
        assert with_elim == pytest.approx(without)


class TestLicmAblation:
    def test_licm_is_the_biggest_single_pass(self, gemm):
        full = cost(gemm, ALL_PASSES, True, "none")
        ratios = {
            dropped: cost(gemm, ALL_PASSES - {dropped}, True, "none") / full
            for dropped in ("licm", "cse", "strength", "dce")
        }
        assert ratios["licm"] >= max(ratios["strength"], ratios["dce"])
        assert ratios["licm"] > 1.10


class TestThpAblation:
    def test_thp_batching_bounds_mprotect_hold_times(self):
        """Replay the mprotect reset with and without THP zap batching."""
        from repro.cpu import Machine, MachineSpec, SimThread
        from repro.oskernel import Kernel
        from repro.oskernel.layout import PAGE_SIZE
        from repro.oskernel.vma import Prot
        from repro.sim import Engine

        def reset_cost(thp: bool) -> float:
            engine = Engine()
            machine = Machine(
                engine,
                MachineSpec("t", "x86_64", 1, 1e9, 1 << 30, switch_cost=0.0),
            )
            kernel = Kernel(engine, machine)
            proc = kernel.create_process("p")
            thread = SimThread(engine, "t", machine.core(0), tgid=proc.tgid)
            pages = 4096  # a 16 MiB arena

            def body():
                yield from thread.startup()
                area = yield from kernel.sys_mmap_reserve(
                    thread, proc, pages * PAGE_SIZE, "mem"
                )
                yield from kernel.sys_mprotect(
                    thread, proc, area, 0, pages * PAGE_SIZE, Prot.RW, thp=thp
                )
                yield from kernel.fault_anon_batch(
                    thread, proc, area, 0, pages * PAGE_SIZE, thp=thp
                )
                start = engine.now
                yield from kernel.sys_mprotect(
                    thread, proc, area, 0, pages * PAGE_SIZE, Prot.NONE, thp=thp
                )
                thread.finish()
                return engine.now - start

            return engine.run_process(body())

        assert reset_cost(thp=False) / reset_cost(thp=True) > 20.0
