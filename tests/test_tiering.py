"""Tests for the execution tiers (interpreter.py + vectorize.py).

Covers tier selection and its validation, tier-up at each function's
first call, bit-identical observables between the tiers (outputs,
memory counters, touched pages, per-pc profiles) on
every registered workload and on float constants whose bits no
literal spells, the entry-guard deopt path, loop-nest handlers (traps
mid-nest, branches across loops, if/else arms, each op's translation,
locals written while their old value is still on the stack, the depth
limit, and workload nests that run on one handler), versioned inner
loops (both sides of their guard, shapes, strides, wraps, zero steps),
f32 overflow to infinity, what tier 2 knows of a local (batched streams
told apart by the local's version, constants held in locals), the
lazy tier-1 build, and that a codegen failure in tier 2 or a loop
handler propagates instead of falling back.
"""

import hashlib
import math
import struct

import pytest

from repro.core import profiles
from repro.core.profiles import clear_profile_cache, module_for
from repro.runtime import interpreter, predecode, vectorize
from repro.runtime.interpreter import TIERS, Interpreter
from repro.wasm import decode_module, encode_module, opcodes, validate_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import Trap
from repro.wasm.types import ValType
from repro.wasm.wat_parser import parse_wat
from repro.workloads.base import instantiate
from repro.workloads.registry import WORKLOADS


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(profiles, "cache_dir", tmp_path)
    clear_profile_cache()
    yield tmp_path
    clear_profile_cache()


def _bits(value):
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _observables(module, tier):
    interp = Interpreter(
        module, collect_profile=True, track_pages=True, tier=tier,
    )
    out = _bits(interp.invoke("bench"))
    profile = interp.take_profile("x", "y")
    return {
        "out": out,
        "instr_counts": dict(profile.instr_counts),
        "op_totals": dict(profile.op_totals),
        "total_instrs": profile.total_instrs,
        "mem_loads": profile.mem_loads,
        "mem_stores": profile.mem_stores,
        "pages_touched": profile.pages_touched,
        "grow_events": list(profile.grow_events),
        "peak_pages": profile.peak_pages,
    }, interp


class TestTierResolution:
    def test_default_is_opt_on_fused_dispatch(self):
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module)
        assert interp.tier == "opt"
        assert interp._plans
        assert interp._tier2 is not None

    def test_tier_param_picks_dispatch(self):
        module, _ = module_for("trisolv", "mini")
        legacy = Interpreter(module, tier="legacy")
        assert legacy.tier == "legacy"
        assert not legacy._plans and legacy._tier2 is None
        fused = Interpreter(module, tier="fused")
        assert fused.tier == "fused"
        assert fused._plans and fused._tier2 is None
        assert Interpreter(module, tier="opt")._tier2 is not None

    def test_unknown_tier_rejected(self):
        module, _ = module_for("trisolv", "mini")
        with pytest.raises(ValueError):
            Interpreter(module, tier="turbofan")


#: ``run`` calls ``$inc`` twice; ``unused`` is exported but never called.
CALLS_WAT = """
(module
  (func $inc (param i32) (result i32)
    local.get 0
    i32.const 1
    i32.add)
  (func (export "run") (result i32)
    i32.const 1
    call $inc
    call $inc)
  (func (export "unused") (result i32)
    i32.const 7))
"""


class TestTierUpHeuristic:
    def test_hot_functions_tier_up(self):
        module, _ = module_for("gemm", "mini")
        _, interp = _observables(module, "opt")
        installed = [h for h in interp._tier2.values() if h]
        assert len(installed) >= 2  # init and kernel

    def test_each_function_compiles_once_at_its_first_call(self, monkeypatch):
        compiled = []
        gen_function = interpreter._gen_function

        def record(body, *args):
            compiled.append(body)
            return gen_function(body, *args)

        monkeypatch.setattr(interpreter, "_gen_function", record)
        module = parse_wat(CALLS_WAT)
        interp = Interpreter(module)
        inc, run, _unused = (func.body for func in module.funcs)
        assert not compiled  # nothing compiles before a call
        assert interp.invoke("run") == 3
        assert interp.invoke("run") == 3
        # ``run`` (outside the tier-2 shape: it calls) compiles before
        # the callee it calls, neither compiles again, and ``unused``
        # never compiles.
        assert [id(body) for body in compiled] == [id(run), id(inc)]
        assert interp._tier2[1] is None and interp._tier2[0] is not None
        assert 2 not in interp._tier2


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["gemm", "trisolv", "jacobi-2d"])
    def test_opt_matches_fused_mini(self, workload):
        module, _ = module_for(workload, "mini")
        reference, _ = _observables(module, "fused")
        observed, interp = _observables(module, "opt")
        assert any(interp._tier2.values())
        for key, value in reference.items():
            assert observed[key] == value, f"{workload}: {key} differs"

    def test_opt_matches_fused_small_numpy_path(self):
        # small trip counts reach vectorize.VEC_MIN, so the NumPy
        # batched path (not just the scalar codegen) is exercised.
        module, _ = module_for("gemm", "small")
        reference, _ = _observables(module, "fused")
        observed, _ = _observables(module, "opt")
        for key, value in reference.items():
            assert observed[key] == value, f"gemm-small: {key} differs"


DEOPT_WAT = """
(module
  (memory 1)
  (func (export "run") (result i32)
    (local i32) (local i32)
    block
      loop
        local.get 0
        i32.const 10000
        i32.ge_s
        br_if 1
        local.get 1
        local.get 0
        i32.const 8
        i32.mul
        i32.load
        i32.add
        local.set 1
        local.get 0
        i32.const 1
        i32.add
        local.set 0
        br 0
      end
    end
    local.get 1))
"""


class TestDeopt:
    def test_entry_guard_falls_back_to_tier1(self):
        """NEED (80 KiB) exceeds the one-page memory: the guard must
        deopt before any side effect and tier 1 must produce the trap,
        identically to the fused reference."""
        module = parse_wat(DEOPT_WAT)
        validate_module(module)

        def run(tier):
            interp = Interpreter(module, tier=tier)
            try:
                return ("value", interp.invoke("run")), interp
            except Exception as exc:
                return ("trap", type(exc).__name__, str(exc)), interp

        reference, _ = run("fused")
        observed, interp = run("opt")
        assert observed == reference
        assert reference[0] == "trap"
        # The handler *was* installed — the trap proves the deopt path
        # ran (tier-2 bodies never trap; the guard bailed first).
        assert any(interp._tier2.values())


def _fail_tier2_codegen(monkeypatch):
    def boom(*args):
        raise RuntimeError("injected tier-2 codegen failure")

    monkeypatch.setattr(interpreter, "_gen_function", boom)


def _fail_loop_codegen(monkeypatch):
    def boom(nest, body, matches, memory, counts):
        raise RuntimeError("injected loop codegen failure")

    monkeypatch.setattr(interpreter, "_gen_nest", boom)


def _loop_handlers(interp):
    """(function, block pc) of every installed loop handler."""
    return {
        (func_index, pc)
        for func_index, code in interp._code_cache.items()
        for pc, handler in enumerate(code)
        if handler.__name__ == "_nest"
    }


#: codegen point -> (injection, tier that reaches it).
CODEGEN = {
    "tier2": (_fail_tier2_codegen, "opt"),
    "loop": (_fail_loop_codegen, "fused"),
}


class TestStrictness:
    """No codegen failure is hidden behind a slower tier."""

    @pytest.mark.parametrize("point", sorted(CODEGEN))
    def test_strict_raises(self, point, monkeypatch):
        inject, tier = CODEGEN[point]
        inject(monkeypatch)
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module, tier=tier)
        with pytest.raises(RuntimeError, match="injected"):
            interp.invoke("bench")


# ----------------------------------------------------------------------
# Loop handlers: traps mid-loop must leave tier-1's exact counts
# ----------------------------------------------------------------------
#: ``run(base)`` loads mem[base + 4096*i] and stores it plus i at
#: offset 8, for i in 0..5.  base 118782 puts iteration 3's load
#: across the end of the two-page memory; base 118776 puts iteration
#: 3's store there while its load stays in bounds; base 4094 makes
#: every in-bounds access cross a 4 KiB page.
OOB_LOOP_WAT = """
(module
  (memory 2)
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32) (local i32)
    block
      loop
        local.get 1
        i32.const 6
        i32.ge_u
        br_if 1
        local.get 1
        i32.const 4096
        i32.mul
        local.get 0
        i32.add
        local.tee 3
        local.get 3
        i32.load
        local.get 1
        i32.add
        i32.store offset=8
        local.get 2
        local.get 3
        i32.load8_s offset=1
        i32.add
        local.set 2
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 2))
"""

#: ``run(k, bias)`` counts l1 down from k, stores the accumulator to
#: mem[0] every iteration, skips odd l1 with ``br_if 0`` and otherwise
#: adds 1000 / (l1 + bias) with ``i32.div_s``: bias 0 traps at l1 == 0.
DIV_LOOP_WAT = """
(module
  (memory 1)
  (func (export "run") (param i32) (param i32) (result i32)
    (local i32) (local i32) (local i32)
    local.get 0
    local.set 2
    block
      loop
        local.get 2
        i32.const -5
        i32.lt_s
        br_if 1
        local.get 2
        local.tee 4
        i32.const 1
        i32.sub
        local.set 2
        i32.const 0
        local.get 3
        i32.store
        local.get 4
        i32.const 1
        i32.and
        br_if 0
        local.get 3
        i32.const 1000
        local.get 4
        local.get 1
        i32.add
        i32.div_s
        i32.add
        local.set 3
        br 0
      end
    end
    local.get 3))
"""

#: No memory at all: ``run(k)`` loops k times over i64 and f64 locals
#: and divides 100 by (l0 - 3) unsigned, which traps once l0 == 3.
NOMEM_LOOP_WAT = """
(module
  (func (export "run") (param i32) (result i64)
    (local i64) (local f64)
    block
      loop
        local.get 0
        i32.eqz
        br_if 1
        local.get 1
        local.get 0
        i64.extend_i32_u
        i64.const -7
        i64.mul
        i64.add
        local.tee 1
        i64.const 0
        i64.lt_s
        drop
        local.get 2
        f64.const 1.5
        f64.add
        local.set 2
        i32.const 100
        local.get 0
        i32.const 3
        i32.sub
        i32.div_u
        drop
        local.get 0
        i32.const 1
        i32.sub
        local.set 0
        br 0
      end
    end
    local.get 1))
"""


def _loop_observables(wat, strategy, tier, *args):
    module = parse_wat(wat)
    validate_module(module)
    interp = Interpreter(module, strategy=strategy, tier=tier)
    try:
        outcome = ("value", interp.invoke("run", *args))
    except Trap as trap:
        outcome = ("trap", trap.kind)
    profile = interp.take_profile("x", "y")
    memory = interp.memory
    observed = {
        "outcome": outcome,
        "instr_counts": profile.instr_counts,
        "op_totals": profile.op_totals,
    }
    if memory is not None:
        observed.update(
            loads=memory.load_count,
            stores=memory.store_count,
            pages=set(memory.touched_pages),
            data=bytes(memory.data),
        )
    return observed, interp


def _assert_loop_matches_legacy(wat, strategy, *args):
    reference, _ = _loop_observables(wat, strategy, "legacy", *args)
    observed, interp = _loop_observables(wat, strategy, "fused", *args)
    assert _loop_handlers(interp), "the loop handler was not installed"
    for key, value in reference.items():
        assert observed[key] == value, f"{key} differs"
    return reference["outcome"]


#: ``run(base)`` sums mem[base + 16384*i + 4*j + 2] over a 4 x 4 nest
#: and stores the running sum at 16 + 4*i after each inner loop.  base
#: 16380 puts the load at i == 3, j == 0 past the end of the one-page
#: memory; base 4094 makes loads cross 4 KiB pages.
NEST_OOB_WAT = """
(module
  (memory 1)
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32) (local i32)
    block
      loop
        local.get 1
        i32.const 4
        i32.ge_u
        br_if 1
        i32.const 0
        local.set 2
        block
          loop
            local.get 2
            i32.const 4
            i32.ge_u
            br_if 1
            local.get 3
            local.get 0
            local.get 1
            i32.const 16384
            i32.mul
            i32.add
            local.get 2
            i32.const 4
            i32.mul
            i32.add
            i32.load offset=2
            i32.add
            local.set 3
            local.get 2
            i32.const 1
            i32.add
            local.set 2
            br 0
          end
        end
        local.get 1
        i32.const 4
        i32.mul
        local.get 3
        i32.store offset=16
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 3))
"""

#: ``run(bias)``: for i in 0..3, j in 0..4, odd j adds 100 / (j - i +
#: bias) with ``i32.div_s`` inside an ``if`` arm and stores the sum to
#: mem[0]; bias 0 divides by zero at i == j == 1.
NEST_DIV_WAT = """
(module
  (memory 1)
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32) (local i32)
    block
      loop
        local.get 1
        i32.const 3
        i32.ge_s
        br_if 1
        i32.const 0
        local.set 2
        block
          loop
            local.get 2
            i32.const 4
            i32.ge_s
            br_if 1
            local.get 2
            i32.const 1
            i32.and
            if
              local.get 3
              i32.const 100
              local.get 2
              local.get 1
              i32.sub
              local.get 0
              i32.add
              i32.div_s
              i32.add
              local.set 3
              i32.const 0
              local.get 3
              i32.store
            end
            local.get 2
            i32.const 1
            i32.add
            local.set 2
            br 0
          end
        end
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 3))
"""

#: ``run(k)``: the outer loop counts l1 up to k; its inner loop adds l2
#: to l3 and, once l2 reaches l1, continues the outer loop with
#: ``br 3`` from inside an ``if``.  From l1 == 4 on the inner loop ends
#: at l2 == 3 instead, and the code after it adds 1000.
NEST_CONTINUE_WAT = """
(module
  (memory 1)
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32) (local i32)
    block
      loop
        local.get 1
        local.get 0
        i32.ge_u
        br_if 1
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        i32.const 0
        local.set 2
        block
          loop
            local.get 2
            local.get 1
            i32.ge_u
            if
              br 3
            end
            local.get 2
            i32.const 3
            i32.ge_u
            br_if 1
            local.get 3
            local.get 2
            i32.add
            local.set 3
            i32.const 4
            local.get 3
            i32.store
            local.get 2
            i32.const 1
            i32.add
            local.set 2
            br 0
          end
        end
        local.get 3
        i32.const 1000
        i32.add
        local.set 3
        br 0
      end
    end
    local.get 3))
"""

#: ``run(k)``: for l1 in 0..k, odd l1 adds l1 to l2 and even l1 triples
#: it and stores it to mem[8].  The loop repeats with ``br_if 0`` at
#: its bottom, so for k > 0 it ends by running off both ``end``s.
NEST_IF_ELSE_WAT = """
(module
  (memory 1)
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32)
    block
      loop
        local.get 1
        local.get 0
        i32.ge_u
        br_if 1
        local.get 1
        i32.const 1
        i32.and
        if
          local.get 2
          local.get 1
          i32.add
          local.set 2
        else
          local.get 2
          i32.const 3
          i32.mul
          local.set 2
          i32.const 8
          local.get 2
          i32.store
        end
        local.get 1
        i32.const 1
        i32.add
        local.tee 1
        local.get 0
        i32.lt_u
        br_if 0
      end
    end
    local.get 2))
"""


#: ``run(k)``: starting from l1 = 1, l2 = 10, k times swaps l1 and l2
#: through the stack (``local.get 1; local.get 2; local.set 1;
#: local.set 2``) and triples l2; returns l1 * 1000 + l2.
NEST_SWAP_WAT = """
(module
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32) (local i32)
    i32.const 1
    local.set 1
    i32.const 10
    local.set 2
    block
      loop
        local.get 3
        local.get 0
        i32.ge_u
        br_if 1
        local.get 1
        local.get 2
        local.set 1
        local.set 2
        local.get 2
        i32.const 3
        i32.mul
        local.set 2
        local.get 3
        i32.const 1
        i32.add
        local.set 3
        br 0
      end
    end
    local.get 1
    i32.const 1000
    i32.mul
    local.get 2
    i32.add))
"""

#: The same swap in straight-line code, which only tier 2 generates
#: code for.
STRAIGHT_SWAP_WAT = """
(module
  (func (export "run") (param i32) (param i32) (result i32)
    local.get 0
    local.get 1
    local.set 0
    local.set 1
    local.get 0
    i32.const 1000
    i32.mul
    local.get 1
    i32.add))
"""

#: Inner constructs that write l1: a loop and a block + loop pair that
#: each add 3 twice, an ``if`` that adds 3 on odd l4 and a block that
#: a ``br_if`` leaves on odd l4 before adding 3.
_WRITES_L1 = {
    "loop": """
        i32.const 0
        local.set 2
        loop
          local.get 1
          i32.const 3
          i32.add
          local.set 1
          local.get 2
          i32.const 1
          i32.add
          local.tee 2
          i32.const 2
          i32.lt_u
          br_if 0
        end""",
    "pair": """
        i32.const 0
        local.set 2
        block
          loop
            local.get 2
            i32.const 2
            i32.ge_u
            br_if 1
            local.get 1
            i32.const 3
            i32.add
            local.set 1
            local.get 2
            i32.const 1
            i32.add
            local.set 2
            br 0
          end
        end""",
    "if": """
        local.get 4
        i32.const 1
        i32.and
        if
          local.get 1
          i32.const 3
          i32.add
          local.set 1
        end""",
    "block": """
        block
          local.get 4
          i32.const 1
          i32.and
          br_if 0
          local.get 1
          i32.const 3
          i32.add
          local.set 1
        end""",
}


def _kept_across_wat(construct):
    """``run(k)``: for l4 in 0..k, keeps l1 on the stack across an inner
    ``construct`` that writes l1, then adds old l1 + 100 * new l1 to
    l3; returns l3."""
    return f"""
(module
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32) (local i32) (local i32)
    i32.const 5
    local.set 1
    block
      loop
        local.get 4
        local.get 0
        i32.ge_u
        br_if 1
        local.get 1
        {_WRITES_L1[construct]}
        local.get 1
        i32.const 100
        i32.mul
        i32.add
        local.get 3
        i32.add
        local.set 3
        local.get 4
        i32.const 1
        i32.add
        local.set 4
        br 0
      end
    end
    local.get 3))
"""


def _deep_nest_module(depth):
    """``run`` opens a block + loop pair and ``depth - 2`` more labels
    inside it, alternating plain loops that run twice and blocks a
    ``br_if`` leaves; the innermost body adds 3 to a local.  The nest
    is ``depth`` labels deep."""
    mb = ModuleBuilder()
    mb.add_memory(1)
    fb = mb.func("run", results=(ValType.I32,), export=True)
    acc = fb.add_local(ValType.I32)
    trips = [fb.add_local(ValType.I32) for _ in range(depth)]

    def nest(level):
        if level == depth:
            fb.emit("local.get", acc).emit("i32.const", 3).emit("i32.add")
            fb.emit("local.set", acc)
            return
        if level % 2:
            with fb.block() as label:
                fb.emit("local.get", acc).emit("i32.const", 1).emit("i32.and")
                fb.br_if(label)
                nest(level + 1)
            return
        fb.emit("i32.const", 0).emit("local.set", trips[level])
        with fb.loop() as label:
            nest(level + 1)
            fb.emit("local.get", trips[level]).emit("i32.const", 1).emit("i32.add")
            fb.emit("local.tee", trips[level]).emit("i32.const", 2).emit("i32.lt_u")
            fb.br_if(label)

    with fb.block() as done:
        with fb.loop() as again:
            fb.emit("local.get", trips[0]).emit("i32.const", 2).emit("i32.ge_u")
            fb.br_if(done)
            fb.emit("local.get", trips[0]).emit("i32.const", 1).emit("i32.add")
            fb.emit("local.set", trips[0])
            nest(2)
            fb.br(again)
    fb.emit("local.get", acc)
    module = decode_module(encode_module(mb.build()))
    validate_module(module)
    return module


class TestLoopHandlerTraps:
    """A loop handler leaves ``legacy``'s observables, traps included.

    Tier-1 dispatch counts a unit before running it, so a trap mid-nest
    must leave exactly the counts dispatch leaves: the handler takes
    back what its trapping segment counted past the trap.
    """

    @pytest.mark.parametrize("strategy", ["trap", "clamp", "none"])
    @pytest.mark.parametrize("base", [0, 4094, 118776, 118782])
    def test_out_of_bounds_access(self, strategy, base):
        outcome = _assert_loop_matches_legacy(OOB_LOOP_WAT, strategy, base)
        in_bounds = base in (0, 4094)
        if strategy == "trap" and not in_bounds:
            assert outcome == ("trap", "out-of-bounds-memory")
        else:
            assert outcome[0] == "value"

    @pytest.mark.parametrize("k,bias", [(9, 0), (8, 0), (9, 100)])
    def test_divide_by_zero(self, k, bias):
        outcome = _assert_loop_matches_legacy(DIV_LOOP_WAT, "trap", k, bias)
        if bias:
            assert outcome[0] == "value"
        else:
            assert outcome == ("trap", "integer-divide-by-zero")

    @pytest.mark.parametrize("k", [2, 10])
    def test_module_without_memory(self, k):
        outcome = _assert_loop_matches_legacy(NOMEM_LOOP_WAT, "trap", k)
        assert outcome[0] == ("value" if k < 3 else "trap")

    @pytest.mark.parametrize("strategy", ["trap", "clamp", "none"])
    @pytest.mark.parametrize("base", [0, 4094, 16380])
    def test_out_of_bounds_load_in_inner_loop(self, strategy, base):
        outcome = _assert_loop_matches_legacy(NEST_OOB_WAT, strategy, base)
        if strategy == "trap" and base == 16380:
            assert outcome == ("trap", "out-of-bounds-memory")
        else:
            assert outcome[0] == "value"

    @pytest.mark.parametrize("bias", [0, 10])
    def test_divide_by_zero_in_if_arm_of_inner_loop(self, bias):
        outcome = _assert_loop_matches_legacy(NEST_DIV_WAT, "trap", bias)
        if bias:
            assert outcome[0] == "value"
        else:
            assert outcome == ("trap", "integer-divide-by-zero")

    def test_profiling_off_still_installs_and_runs(self):
        module = parse_wat(OOB_LOOP_WAT)
        results = []
        for tier in ("legacy", "fused"):
            interp = Interpreter(module, tier=tier, collect_profile=False)
            results.append(interp.invoke("run", 4094))
        assert _loop_handlers(interp)
        assert results[0] == results[1]


class TestNestHandlers:
    """Whole loop nests run on one handler with tier-1's exact counts."""

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_br_from_inner_loop_continues_outer_loop(self, k):
        outcome = _assert_loop_matches_legacy(NEST_CONTINUE_WAT, "trap", k)
        expected = sum(
            i * (i - 1) // 2 if i < 4 else 3 + 1000 for i in range(1, k + 1)
        )
        assert outcome == ("value", expected)

    @pytest.mark.parametrize("k", [0, 7])
    def test_if_and_else_arms_both_taken(self, k):
        outcome = _assert_loop_matches_legacy(NEST_IF_ELSE_WAT, "trap", k)
        expected = 0
        for i in range(k):
            expected = expected + i if i % 2 else expected * 3
        assert outcome == ("value", expected)

    def test_nest_runs_on_one_handler_at_its_outer_block(self):
        module = parse_wat(NEST_OOB_WAT)
        interp = Interpreter(module, tier="fused")
        interp.invoke("run", 0)
        assert _loop_handlers(interp) == {(0, 0)}

    @pytest.mark.parametrize(
        "depth", [predecode.MAX_NEST_DEPTH, predecode.MAX_NEST_DEPTH + 1]
    )
    def test_depth_limit_falls_back_and_matches_legacy(self, depth):
        module = _deep_nest_module(depth)
        observed = {}
        for tier in ("legacy", "fused"):
            interp = Interpreter(module, tier=tier)
            out = interp.invoke("run")
            observed[tier] = (out, interp.take_profile("x", "y").instr_counts)
        assert observed["fused"] == observed["legacy"]
        # The outer pair's block is pc 0: a handler there runs the nest.
        assert ((0, 0) in _loop_handlers(interp)) == (
            depth <= predecode.MAX_NEST_DEPTH
        )

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_swap_through_the_stack(self, k):
        outcome = _assert_loop_matches_legacy(NEST_SWAP_WAT, "trap", k)
        a, b = 1, 10
        for _ in range(k):
            a, b = b, a * 3
        assert outcome == ("value", a * 1000 + b)

    @pytest.mark.parametrize("construct", sorted(_WRITES_L1))
    def test_local_kept_on_stack_across_inner_construct(self, construct):
        k = 4
        outcome = _assert_loop_matches_legacy(_kept_across_wat(construct), "trap", k)
        l1, acc = 5, 0
        for i in range(k):
            old = l1
            if construct in ("loop", "pair"):
                l1 += 6
            elif (i % 2 == 1) == (construct == "if"):
                l1 += 3
            acc += old + 100 * l1
        assert outcome == ("value", acc)

    @pytest.mark.parametrize("tier", ["fused", "opt"])
    def test_swap_in_straight_line_code(self, tier):
        module = parse_wat(STRAIGHT_SWAP_WAT)
        interp = Interpreter(module, tier=tier)
        assert interp.invoke("run", 7, 9) == 9007
        assert interp.take_profile("x", "y").instr_counts == (
            _loop_observables(STRAIGHT_SWAP_WAT, "trap", "legacy", 7, 9)[0][
                "instr_counts"
            ]
        )

    @pytest.mark.parametrize("name,share", [("505.mcf", 0.75), ("wasi-grep", 0.98)])
    def test_workload_hot_nest_runs_on_one_handler(self, name, share):
        """The kernel nest of a workload that calls around it (505.mcf's
        bench, wasi-grep's read loop) runs on a single handler."""
        built = WORKLOADS[name].build("mini")
        interp, _env = instantiate(
            built.module, built.env_factory, collect_profile=True, tier="fused"
        )
        interp.invoke("bench")
        profile = interp.take_profile(name, "mini")
        shares = [
            sum(profile.instr_counts[func][pc : interp._plans[
                func - interp._num_imported
            ].matches[pc][0] + 1]) / profile.total_instrs
            for func, pc in _loop_handlers(interp)
        ]
        assert max(shares) >= share


#: Boundary operands per type, as tests/test_interpreter.py uses them.
_BOUNDARIES = {
    "i32": (0, 1, 5, 2**31 - 1, 2**31, 2**32 - 1),
    "i64": (0, 1, 5, 2**63 - 1, 2**63, 2**64 - 1),
    "f32": (0.0, -0.0, 1.0, -1.5, 3.4028234663852886e38, math.inf, math.nan),
    "f64": (0.0, -0.0, 1.0, -1.5, 2.0**-1074, 1e308, -math.inf, math.nan),
}


def _nest_op_module(op, const=None):
    """``run(a, b)`` applies ``op`` in a one-pass loop nest twice: to
    ``a`` and ``b`` (or the constant ``const``), and to ``a + b`` and
    ``b - a`` (for integers, values whose wrap masks are still
    pending), and returns both results."""
    info = opcodes.BY_NAME[op]
    ty = ValType(info.params[0])
    result_ty = ValType(info.results[0])
    mb = ModuleBuilder()
    fb = mb.func(
        "run", params=(ty, ty), results=(result_ty, result_ty), export=True
    )
    results = [fb.add_local(result_ty) for _ in range(2)]
    with fb.block() as done:
        with fb.loop():
            for pending, result in zip((False, True), results):
                fb.emit("local.get", 0)
                if pending:
                    fb.emit("local.get", 1).emit(f"{ty.value}.add")
                if len(info.params) == 2:
                    if const is not None:
                        fb.emit(f"{ty.value}.const", const)
                    else:
                        fb.emit("local.get", 1)
                        if pending:
                            fb.emit("local.get", 0).emit(f"{ty.value}.sub")
                fb.emit(op).emit("local.set", result)
            fb.br(done)
    for result in results:
        fb.emit("local.get", result)
    module = decode_module(encode_module(mb.build()))
    validate_module(module)
    return module


def _outcomes(module, tier, operands):
    """Each operand pair's result or trap, then the per-pc counts."""
    interp = Interpreter(module, tier=tier)
    outcomes = []
    for a in operands:
        for b in operands:
            try:
                outcomes.append(_bits(interp.invoke("run", a, b)))
            except Trap as trap:
                outcomes.append(trap.kind)
    outcomes.append(interp.take_profile("x", "y").instr_counts)
    return outcomes, interp


class TestNestOpTranslation:
    """Every op a loop handler translates computes what its table
    function does, on boundary operands, pending wrap masks and
    constant operands included."""

    @pytest.mark.parametrize(
        "op", sorted(predecode.BINOP_NAMES | predecode.UNOP_NAMES)
    )
    def test_matches_legacy(self, op):
        operands = _BOUNDARIES[opcodes.BY_NAME[op].params[0]]
        module = _nest_op_module(op)
        observed, interp = _outcomes(module, "fused", operands)
        assert _loop_handlers(interp)
        assert observed == _outcomes(module, "legacy", operands)[0]

    @pytest.mark.parametrize("op", sorted(
        op for op in predecode.BINOP_NAMES if op.startswith("i")
    ))
    def test_constant_right_operand_matches_legacy(self, op):
        operands = _BOUNDARIES[op[:3]]
        for const in operands + (-1,):
            module = _nest_op_module(op, const)
            observed, interp = _outcomes(module, "fused", operands)
            assert _loop_handlers(interp)
            assert observed == _outcomes(module, "legacy", operands)[0], const


def _nest_store_module(op, store):
    """``run(a, b)`` stores ``op(a, b)`` (its wrap mask still pending in
    generated code) at address 8 with ``store``, in a one-pass loop
    nest, and returns the 8 bytes there as an i64."""
    ty = ValType(op[:3])
    mb = ModuleBuilder()
    mb.add_memory(1)
    fb = mb.func("run", params=(ty, ty), results=(ValType.I64,), export=True)
    with fb.block() as done:
        with fb.loop():
            fb.emit("i32.const", 8).emit("local.get", 0).emit("local.get", 1)
            fb.emit(op).emit(store, 0, 0)
            fb.br(done)
    fb.emit("i32.const", 8).emit("i64.load", 0, 0)
    module = decode_module(encode_module(mb.build()))
    validate_module(module)
    return module


class TestRegionStores:
    """A loop handler stores the canonical value of an op whose wrap
    mask its straight-line code leaves pending."""

    @pytest.mark.parametrize("op,store", [
        (op, store)
        for op in ("i32.add", "i32.mul", "i32.shl", "i64.add", "i64.sub", "i64.mul")
        for store in sorted(predecode.STORE_NAMES)
        if store.startswith(op[:3]) and not store.startswith("f")
    ])
    def test_matches_legacy(self, op, store):
        operands = _BOUNDARIES[op[:3]]
        module = _nest_store_module(op, store)
        observed, interp = _outcomes(module, "fused", operands)
        assert _loop_handlers(interp)
        assert observed == _outcomes(module, "legacy", operands)[0]


class TestLazyTier1Build:
    def test_tier2_from_first_call_builds_no_tier1_code(self):
        module, _ = module_for("gemm", "mini")
        reference, _ = _observables(module, "fused")
        observed, interp = _observables(module, "opt")
        tier2 = {i for i, h in interp._tier2.items() if h}
        assert tier2
        assert not tier2 & set(interp._code_cache)
        assert observed == reference


# ----------------------------------------------------------------------
# Float constants whose bits no literal spells
# ----------------------------------------------------------------------
def _float_of(ty, bits):
    fmt = ("<f", "<I") if ty == "f32" else ("<d", "<Q")
    return struct.unpack(fmt[0], struct.pack(fmt[1], bits))[0]


def _const_store_module(consts):
    """``run`` stores each (type, bits) constant at 8*k, in order, then
    reloads every slot as an integer of the same width.

    Built with ``ModuleBuilder`` and sent through the binary encoder
    and decoder: the WAT parser reads float literals with ``float()``,
    which cannot spell a NaN payload.
    """
    mb = ModuleBuilder()
    mb.add_memory(1)
    results = tuple(ValType.I32 if ty == "f32" else ValType.I64 for ty, _ in consts)
    fb = mb.func("run", results=results, export=True)
    for k, (ty, bits) in enumerate(consts):
        fb.emit("i32.const", 8 * k)
        fb.emit(f"{ty}.const", _float_of(ty, bits))
        fb.emit(f"{ty}.store", 2, 0)
    for k, (ty, _) in enumerate(consts):
        fb.emit("i32.const", 8 * k)
        fb.emit("i32.load" if ty == "f32" else "i64.load", 2, 0)
    module = decode_module(encode_module(mb.build()))
    validate_module(module)
    return module


def _const_fill_module(bits, trips):
    """``run`` stores one f64 constant to slots 0..trips-1 in a counted
    loop (NumPy-batched under tier 2 from ``VEC_MIN`` trips), then
    reloads the last slot as an i64."""
    mb = ModuleBuilder()
    mb.add_memory(1)
    fb = mb.func("run", results=(ValType.I64,), export=True)
    i = fb.add_local(ValType.I32)
    with fb.block() as done:
        with fb.loop() as again:
            fb.emit("local.get", i).emit("i32.const", trips).emit("i32.ge_s")
            fb.br_if(done)
            fb.emit("local.get", i).emit("i32.const", 8).emit("i32.mul")
            fb.emit("f64.const", _float_of("f64", bits))
            fb.emit("f64.store", 3, 0)
            fb.emit("local.get", i).emit("i32.const", 1).emit("i32.add")
            fb.emit("local.set", i)
            fb.br(again)
    fb.emit("i32.const", 8 * (trips - 1)).emit("i64.load", 3, 0)
    module = decode_module(encode_module(mb.build()))
    validate_module(module)
    return module


#: Each case's constants, stored and reloaded in one function.
FLOAT_CONSTS = {
    "f64-signalling-nan": [("f64", 0x7FF0000000000001)],
    "f64-negative-nan": [("f64", 0xFFF8000000000123)],
    "f32-nan-payload": [("f32", 0x7FC00001)],
    "f32-negative-nan": [("f32", 0xFFC00123)],
    "two-f64-payloads": [("f64", 0x7FF8000000000001), ("f64", 0x7FF8000000000002)],
    "two-f32-payloads": [("f32", 0x7FC00001), ("f32", 0x7FC00002)],
    "infinities": [("f64", 0xFFF0000000000000), ("f32", 0x7F800000)],
}


class TestFloatConstantBits:
    """Every tier stores a float constant's exact bits, NaN or not."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("case", sorted(FLOAT_CONSTS))
    def test_stored_bits_survive(self, case, tier):
        consts = FLOAT_CONSTS[case]
        interp = Interpreter(_const_store_module(consts), tier=tier)
        out = interp.invoke("run")
        out = out if isinstance(out, tuple) else (out,)
        assert [hex(v) for v in out] == [hex(bits) for _, bits in consts]
        if tier == "opt":
            assert interp._tier2[0] is not None

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("trips", [3, vectorize.VEC_MIN + 16])
    def test_nan_fill_loop(self, tier, trips):
        bits = 0xFFF8000000000123
        interp = Interpreter(_const_fill_module(bits, trips), tier=tier)
        assert hex(interp.invoke("run")) == hex(bits)
        if tier == "opt":
            # A loop whose trip count can reach VEC_MIN holds the
            # NumPy-batched loop and the scalar one, and the trip count
            # picks one of them at run time; any other holds the scalar
            # loop alone.
            handler = interp._tier2[0]
            assert handler is not None
            batched = "_np" in handler.__code__.co_varnames
            assert batched == (trips >= vectorize.VEC_MIN)


# ----------------------------------------------------------------------
# f32 results too large for single precision round to infinity
# ----------------------------------------------------------------------
F32_WAT = """
(module
  (func (export "add") (param f32) (param f32) (result f32)
    local.get 0
    local.get 1
    f32.add)
  (func (export "mul") (param f32) (param f32) (result f32)
    local.get 0
    local.get 1
    f32.mul)
  (func (export "demote") (param f64) (result f32)
    local.get 0
    f32.demote_f64)
  (func (export "steps") (result i32)
    (local f32) (local i32)
    f32.const 1
    local.set 0
    block
      loop
        local.get 0
        f32.const inf
        f32.eq
        br_if 1
        local.get 0
        f32.const 1e10
        f32.mul
        local.set 0
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 1))
"""

#: FLT_MAX as a double.
FLT_MAX = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]


class TestF32Overflow:
    """IEEE rounding: an f32 result past FLT_MAX by half an ulp or more
    is a signed infinity, on every tier."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("export,args,expected", [
        ("add", (3e38, 3e38), math.inf),
        ("add", (-3e38, -3e38), -math.inf),
        ("mul", (3e38, 10.0), math.inf),
        ("mul", (-3e38, 3e38), -math.inf),
        ("demote", (1e39,), math.inf),
        ("demote", (-1e39,), -math.inf),
        ("demote", (3.4028235677973366e38,), math.inf),
        ("demote", (3.4028235e38 * (1 + 1e-10),), FLT_MAX),
    ])
    def test_rounds_to_infinity(self, tier, export, args, expected):
        interp = Interpreter(parse_wat(F32_WAT), tier=tier)
        assert interp.invoke(export, *args) == expected

    @pytest.mark.parametrize("tier", TIERS)
    def test_loop_multiplies_up_to_infinity(self, tier):
        interp = Interpreter(parse_wat(F32_WAT), tier=tier)
        assert interp.invoke("steps") == 4  # 1e10 ** 4 > FLT_MAX


# ----------------------------------------------------------------------
# Tier 2's proofs: what it knows of a local's value
# ----------------------------------------------------------------------
#: ``run`` fills A (at 0) with i and B (at 4096) with 1000 + i, sets
#: locals 2 and 3 to the two bases as ``{bases}`` computes them, then
#: stores C[i] = [local 2 + 8i] + [local 3 + 8i] at 8192 for 32 i (a
#: loop NumPy can batch) and returns C[31].
_BASES_WAT = """
(module
  (memory 2)
  (func (export "run") (param i32) (param i32) (result f64)
    (local i32) (local i32) (local i32) (local i32)
    block
      loop
        local.get 4
        i32.const 32
        i32.ge_s
        br_if 1
        local.get 4
        i32.const 8
        i32.mul
        local.get 4
        f64.convert_i32_s
        f64.store
        local.get 4
        i32.const 8
        i32.mul
        local.get 4
        f64.convert_i32_s
        f64.const 1000
        f64.add
        f64.store offset=4096
        local.get 4
        i32.const 1
        i32.add
        local.set 4
        br 0
      end
    end
    {bases}
    block
      loop
        local.get 5
        i32.const 32
        i32.ge_s
        br_if 1
        local.get 5
        i32.const 8
        i32.mul
        local.get 2
        local.get 5
        i32.const 8
        i32.mul
        i32.add
        f64.load
        local.get 3
        local.get 5
        i32.const 8
        i32.mul
        i32.add
        f64.load
        f64.add
        f64.store offset=8192
        local.get 5
        i32.const 1
        i32.add
        local.set 5
        br 0
      end
    end
    i32.const 8440
    f64.load))
"""

#: Two ways to give locals 2 and 3 the bases 0 and 4096 (for params 1
#: and 1) with nothing telling the two values apart but the locals.
_BASES = {
    # two selects whose intervals are the same
    "select": """
    i32.const 0
    i32.const 4096
    local.get 0
    select
    local.set 2
    i32.const 4096
    i32.const 0
    local.get 1
    select
    local.set 3""",
    # one cell loaded before and after a store to it
    "reload": """
    i32.const 16384
    i32.load16_u
    local.set 2
    i32.const 16384
    i32.const 4096
    i32.store16
    i32.const 16384
    i32.load16_u
    local.set 3""",
}

#: ``run`` divides, takes the remainder and shifts by locals set to
#: constants, and loads from an address shifted by one.
_CONST_LOCALS_WAT = """
(module
  (memory 1)
  (func (export "run") (param i32) (result i32)
    (local i32) (local i32)
    i32.const 8
    local.set 1
    i32.const 3
    local.set 2
    i32.const 64
    i32.const 77
    i32.store
    local.get 0
    local.get 1
    i32.div_u
    local.get 2
    i32.shl
    local.get 0
    local.get 1
    i32.rem_s
    i32.add
    local.get 1
    local.get 2
    i32.shl
    i32.load
    i32.add))
"""


class TestTier2Locals:
    @pytest.mark.parametrize("bases", sorted(_BASES))
    def test_equal_looking_bases_stay_distinct(self, bases):
        """Two locals that tier 2 knows no more of than their intervals
        feed a NumPy-batched loop, which reads each through its own
        stream: C[31] = A[31] + B[31]."""
        module = parse_wat(_BASES_WAT.format(bases=_BASES[bases]))
        validate_module(module)
        for tier in TIERS:
            interp = Interpreter(module, tier=tier)
            assert interp.invoke("run", 1, 1) == 31.0 + 1031.0, tier
        handler = interp._tier2[0]
        assert handler is not None
        assert "_np" in handler.__code__.co_varnames

    def test_constant_divisor_and_shift_held_in_locals(self):
        """A divisor or shift amount held in a local set to a constant
        is as good as the constant: tier 2 takes the function."""
        module = parse_wat(_CONST_LOCALS_WAT)
        validate_module(module)
        for arg in (0, 7, 8, 1000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF):
            results = {
                tier: Interpreter(module, tier=tier).invoke("run", arg)
                for tier in TIERS
            }
            assert len(set(results.values())) == 1, (arg, results)
        interp = Interpreter(module, tier="opt")
        interp.invoke("run", 5)
        assert interp._tier2[0] is not None


# ----------------------------------------------------------------------
# Versioned loops: one guard per entry, counts and pages added in bulk
# ----------------------------------------------------------------------
#: ``run(a, b, v, bound, mismatch)`` stores 1 at mem[a + 4*mismatch],
#: then steps v by {step} while ``v {cmp} bound`` and mem[a + 4*v]
#: equals mem[b + 4*v] (the search shape: both loads run on every test)
#: and returns where it stopped.
SEARCH_WAT = """
(module
  (memory 2)
  (func (export "run") (param i32 i32 i32 i32 i32) (result i32)
    local.get 0
    local.get 4
    i32.const 4
    i32.mul
    i32.add
    i32.const 1
    i32.store
    block
      loop
        local.get 2
        local.get 3
        i32.{cmp}
        local.get 0
        local.get 2
        i32.const 4
        i32.mul
        i32.add
        i32.load
        local.get 1
        local.get 2
        i32.const 4
        i32.mul
        i32.add
        i32.load
        i32.eq
        i32.and
        i32.eqz
        br_if 1
        local.get 2
        i32.const {step}
        i32.add
        local.set 2
        br 0
      end
    end
    local.get 2))
"""

#: ``run(base, k)`` for v from 0 by {step} until ``v {cmp} k`` (the
#: counted shape) adds the i32 at 4*base + {stride}*v + {off} to a sum,
#: stores sum + v + 1 4 bytes further on (with stride 4 and step 1,
#: where the next iteration loads) and returns the sum; the address
#: goes through a local set in the body.  With ``off`` 0 every address
#: is a multiple of 4.
STRIDE_WAT = """
(module
  (memory 4)
  (func (export "run") (param i32 i32) (result i32)
    (local i32 i32 i32)
    block
      loop
        local.get 2
        local.get 1
        i32.{cmp}
        br_if 1
        local.get 0
        i32.const 4
        i32.mul
        local.get 2
        i32.const {stride}
        i32.mul
        i32.add
        local.set 4
        local.get 3
        local.get 4
        i32.load offset={off}
        i32.add
        local.set 3
        local.get 4
        local.get 3
        local.get 2
        i32.add
        i32.const 1
        i32.add
        i32.store offset={store_off}
        local.get 2
        i32.const {step}
        i32.add
        local.set 2
        br 0
      end
    end
    local.get 3))
"""


def _stride_wat(stride, off, cmp="ge_s", step=1):
    return STRIDE_WAT.format(stride=stride, off=off, store_off=off + 4, cmp=cmp, step=step)


def _search_wat(step=1, cmp="lt_s"):
    return SEARCH_WAT.format(step=step, cmp=cmp)


#: STRIDE_WAT's base (in words) whose stream leaves its four pages
#: mid-loop: at offset 2 the store leaves at v == 2, the load at v == 3.
_EDGE = 65536 - 4


def _versioned_loops(interp):
    return {
        (func_index, pc)
        for func_index, code in interp._code_cache.items()
        for handler in code
        for pc in getattr(handler, "versioned", ())
    }


def _assert_versioned_matches_legacy(wat, strategy, *args):
    """The loop's legacy outcome, after checking that the loop handler
    versions its one loop and leaves legacy's observables."""
    reference, _ = _loop_observables(wat, strategy, "legacy", *args)
    observed, interp = _loop_observables(wat, strategy, "fused", *args)
    for key, value in reference.items():
        assert observed[key] == value, f"{key} differs"
    body = interp.module.funcs[0].body
    assert _versioned_loops(interp) == {
        (0, next(pc for pc, ins in enumerate(body) if ins.op == "loop"))
    }
    return reference["outcome"]


def _deep_stream_module(depth):
    """``_deep_nest_module``'s nest with an innermost pair that sums
    mem[4*v] for v in 0..3: a versioned loop ``depth`` labels deep."""
    mb = ModuleBuilder()
    mb.add_memory(1)
    fb = mb.func("run", results=(ValType.I32,), export=True)
    acc, var = fb.add_local(ValType.I32), fb.add_local(ValType.I32)
    trips = [fb.add_local(ValType.I32) for _ in range(depth)]

    def nest(level):
        if level == depth - 2:
            fb.emit("i32.const", 0).emit("local.set", var)
            with fb.block() as done:
                with fb.loop() as again:
                    fb.emit("local.get", var).emit("i32.const", 4).emit("i32.ge_s")
                    fb.br_if(done)
                    fb.emit("local.get", acc).emit("local.get", var)
                    fb.emit("i32.const", 4).emit("i32.mul").emit("i32.load", 2, 0)
                    fb.emit("i32.add").emit("i32.const", 1).emit("i32.add")
                    fb.emit("local.set", acc)
                    fb.emit("local.get", var).emit("i32.const", 1).emit("i32.add")
                    fb.emit("local.set", var)
                    fb.br(again)
            return
        if level % 2:
            with fb.block() as label:
                fb.emit("local.get", acc).emit("i32.const", 1).emit("i32.and")
                fb.br_if(label)
                nest(level + 1)
            return
        fb.emit("i32.const", 0).emit("local.set", trips[level])
        with fb.loop() as label:
            nest(level + 1)
            fb.emit("local.get", trips[level]).emit("i32.const", 1).emit("i32.add")
            fb.emit("local.tee", trips[level]).emit("i32.const", 2).emit("i32.lt_u")
            fb.br_if(label)

    with fb.block() as done:
        with fb.loop() as again:
            fb.emit("local.get", trips[0]).emit("i32.const", 2).emit("i32.ge_u")
            fb.br_if(done)
            fb.emit("local.get", trips[0]).emit("i32.const", 1).emit("i32.add")
            fb.emit("local.set", trips[0])
            nest(2)
            fb.br(again)
    fb.emit("local.get", acc)
    module = decode_module(encode_module(mb.build()))
    validate_module(module)
    return module


class TestVersionedLoops:
    """A versioned loop leaves ``legacy``'s observables whichever way
    its guard goes: outcome, per-pc counts, load and store totals and
    touched pages."""

    @pytest.mark.parametrize("strategy", ["trap", "clamp", "none"])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("off", [0, 2])
    def test_stream_leaving_memory_mid_loop(self, strategy, k, off):
        # The guard fails and the per-access loop traps or takes the
        # strategy's path at the same pc and iteration as dispatch does.
        outcome = _assert_versioned_matches_legacy(_stride_wat(4, off), strategy, _EDGE, k)
        if strategy == "trap" and k == 5:
            assert outcome == ("trap", "out-of-bounds-memory")

    @pytest.mark.parametrize("v,bound", [(7, 7), (9, 3), (-4, -4)])
    def test_zero_trip_search_loads_once(self, v, bound):
        observed, _ = _loop_observables(_search_wat(), "trap", "fused", 64, 4096, v, bound, 0)
        assert observed["outcome"] == ("value", v & 0xFFFFFFFF)
        assert observed["loads"] == 2
        _assert_versioned_matches_legacy(_search_wat(), "trap", 64, 4096, v, bound, 0)

    @pytest.mark.parametrize("mismatch,expected", [(0, 0), (5, 5), (40, 20)])
    def test_search_exits_first_midway_and_at_bound(self, mismatch, expected):
        outcome = _assert_versioned_matches_legacy(
            _search_wat(), "trap", 4064, 8100, 0, 20, mismatch
        )
        assert outcome == ("value", expected)

    @pytest.mark.parametrize("stride", [0, -4, -4100, 4, 8192, 4100])
    @pytest.mark.parametrize("k", [0, 1, 9])
    @pytest.mark.parametrize("off", [0, 2])
    def test_strides(self, stride, k, off):
        # Offset 0 reads through a typed view; offset 2 unpacks, and
        # from base 4094 its accesses cross a page.
        base = 3 * 16384 if stride < 0 else 1023
        outcome = _assert_versioned_matches_legacy(_stride_wat(stride, off), "trap", base, k)
        assert outcome[0] == "value"

    @pytest.mark.parametrize("strategy", ["trap", "clamp", "none"])
    def test_address_wrapping_at_4gib_falls_back(self, strategy):
        # 4*base + -4*v starts at 8: from v == 3 on it wraps to just
        # below 4 GiB, which only the per-access loop computes.
        _assert_versioned_matches_legacy(_stride_wat(-4, 0), strategy, 2, 6)

    def test_loop_variable_wrapping_falls_back(self):
        # v steps by 3 from 2**31 - 6 past 2**31 - 1, wraps to a negative
        # value still below the bound and goes on to the mismatch; its
        # addresses stay in bounds, so only the wrap check sends it to
        # the per-access loop.
        wat = _search_wat(step=3)
        outcome = _assert_versioned_matches_legacy(
            wat, "trap", 64, 4160, 2**31 - 6, 2**31 - 1, 2**31 + 3
        )
        assert outcome == ("value", 2**31 + 3)

    @pytest.mark.parametrize("tier", ["fused", "opt"])
    @pytest.mark.parametrize("wat,args", [
        # A counted loop whose test holds at once: it never steps.
        (_stride_wat(4, 0, cmp="le_s", step=0), (100, 3)),
        # A search loop left through D at its first test.
        (_search_wat(step=0, cmp="gt_s"), (64, 4096, 5, 0, 5)),
    ], ids=["counted", "search"])
    def test_step_zero_is_not_versioned(self, tier, wat, args):
        # A zero step agrees with no test, so the loop keeps its
        # per-access code and leaves as dispatch does.
        reference, _ = _loop_observables(wat, "trap", "legacy", *args)
        observed, interp = _loop_observables(wat, "trap", tier, *args)
        assert observed == reference
        assert reference["outcome"] == ("value", 0 if len(args) == 2 else 5)
        assert _loop_handlers(interp) and not _versioned_loops(interp)

    def test_versioned_loop_at_depth_limit_compiles(self):
        module = _deep_stream_module(predecode.MAX_NEST_DEPTH)
        observed = {}
        for tier in ("legacy", "fused"):
            interp = Interpreter(module, tier=tier)
            out = interp.invoke("run")
            profile = interp.take_profile("x", "y")
            memory = interp.memory
            observed[tier] = (
                out, profile.instr_counts, memory.load_count,
                sorted(memory.touched_pages),
            )
        assert observed["fused"] == observed["legacy"]
        assert (0, 0) in _loop_handlers(interp)
        assert len(_versioned_loops(interp)) == 1


#: ``run`` stores v to mem[{mul}*v] for v from {start} while ``v {cmp}
#: {bound}`` is false, stepping by {step}: a tier-2 counted loop.
STEP_WAT = """
(module
  (memory 4)
  (func (export "run") (result i32)
    (local i32)
    i32.const {start}
    local.set 0
    block
      loop
        local.get 0
        i32.const {bound}
        i32.{cmp}
        br_if 1
        local.get 0
        i32.const {mul}
        i32.mul
        local.get 0
        i32.store
        local.get 0
        i32.const {step}
        i32.add
        local.set 0
        br 0
      end
    end
    local.get 0))
"""


@pytest.mark.parametrize("start,cmp,bound,step", [
    (40, "le_s", 0, -1), (0, "ge_s", 40, 2), (0, "ge_s", 40, 3),
])
@pytest.mark.parametrize("mul", [4, 1024, 4096])
def test_tier2_stream_pages_follow_the_loop_step(start, cmp, bound, step, mul):
    # A stream's pages span its per-iteration stride, coefficient times
    # step, not its coefficient alone.
    wat = STEP_WAT.format(start=start, cmp=cmp, bound=bound, step=step, mul=mul)
    reference, _ = _loop_observables(wat, "trap", "legacy")
    observed, interp = _loop_observables(wat, "trap", "opt")
    assert interp._tier2[0] is not None
    assert observed == reference


# ----------------------------------------------------------------------
# Every registered workload, every tier
# ----------------------------------------------------------------------
def _workload_observables(name, tier):
    built = WORKLOADS[name].build("mini")
    interp, _env = instantiate(
        built.module, built.env_factory,
        collect_profile=True, track_pages=True, tier=tier,
    )
    out = _bits(interp.invoke("bench"))
    profile = interp.take_profile(name, "mini")
    memory = interp.memory
    return {
        "out": out,
        "memory": hashlib.sha256(memory.data).hexdigest(),
        "instr_counts": profile.instr_counts,
        "mem_loads": profile.mem_loads,
        "mem_stores": profile.mem_stores,
        "touched_pages": sorted(memory.touched_pages),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_agrees_across_tiers(name):
    reference = _workload_observables(name, "legacy")
    for tier in ("fused", "opt"):
        observed = _workload_observables(name, tier)
        for key, value in reference.items():
            assert observed[key] == value, f"{name}: {key} differs on {tier}"
