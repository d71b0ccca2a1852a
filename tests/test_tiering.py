"""Tests for the execution tiers (tiering.py + vectorize.py).

Covers tier resolution and its validation, tier-up at first call,
bit-identical observables between the ``opt`` tier and the fused
reference (outputs, memory counters, touched pages, reconstructed
per-pc profiles), the entry-guard deopt path, traps inside a fused-tier
loop handler, the lazy tier-1 build, and ``REPRO_TIER_STRICT`` over
every silent fallback (tier-2 install, fused-region and loop-handler
codegen).
"""

import struct

import pytest

from repro.core import profiles
from repro.core.profiles import clear_profile_cache, module_for
from repro.runtime import interpreter, vectorize
from repro.runtime.interpreter import Interpreter
from repro.wasm import validate_module
from repro.wasm.errors import Trap
from repro.wasm.wat_parser import parse_wat


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
        assert interp._tiering is not None

    def test_tier_param_picks_dispatch(self):
        module, _ = module_for("trisolv", "mini")
        legacy = Interpreter(module, tier="legacy")
        assert legacy.tier == "legacy"
        assert not legacy._plans and legacy._tiering is None
        fused = Interpreter(module, tier="fused")
        assert fused.tier == "fused"
        assert fused._plans and fused._tiering is None
        assert Interpreter(module, tier="opt")._tiering is not None

    def test_tier_env_var(self, monkeypatch):
        module, _ = module_for("trisolv", "mini")
        monkeypatch.setenv("REPRO_TIER", "legacy")
        assert Interpreter(module).tier == "legacy"
        monkeypatch.setenv("REPRO_TIER", "opt")
        assert Interpreter(module)._tiering is not None

    def test_unknown_tier_rejected(self):
        module, _ = module_for("trisolv", "mini")
        with pytest.raises(ValueError):
            Interpreter(module, tier="turbofan")


class TestTierUpHeuristic:
    def test_hot_functions_tier_up(self):
        module, _ = module_for("gemm", "mini")
        _, interp = _observables(module, "opt")
        installed = [h for h in interp._tiering.handlers.values() if h]
        assert len(installed) >= 2  # init and kernel


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["gemm", "trisolv", "jacobi-2d"])
    def test_opt_matches_fused_mini(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module, _ = module_for(workload, "mini")
        reference, _ = _observables(module, "fused")
        observed, interp = _observables(module, "opt")
        assert any(interp._tiering.handlers.values())
        for key, value in reference.items():
            assert observed[key] == value, f"{workload}: {key} differs"

    def test_opt_matches_fused_small_numpy_path(self, monkeypatch):
        # small trip counts reach vectorize.VEC_MIN, so the NumPy
        # batched path (not just the scalar codegen) is exercised.
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
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
    def test_entry_guard_falls_back_to_tier1(self, monkeypatch):
        """NEED (80 KiB) exceeds the one-page memory: the guard must
        deopt before any side effect and tier 1 must produce the trap,
        identically to the fused reference."""
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
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
        assert any(interp._tiering.handlers.values())


def _fail_tier2_install(monkeypatch):
    def boom(artifact, memory):
        raise RuntimeError("injected tier-2 install failure")

    monkeypatch.setattr(vectorize, "install", boom)


def _fail_loop_codegen(monkeypatch):
    def boom(loop, body, memory, counts):
        raise RuntimeError("injected loop codegen failure")

    monkeypatch.setattr(interpreter, "_gen_loop", boom)


def _fail_fused_codegen(monkeypatch):
    def boom(region, body, memory, body_len):
        raise RuntimeError("injected fused codegen failure")

    monkeypatch.setattr(interpreter, "_gen_region", boom)
    _fail_loop_codegen(monkeypatch)


def _loop_handlers(interp):
    """(function, block pc) of every installed loop handler."""
    return {
        (func_index, pc)
        for func_index, code in interp._code_cache.items()
        for pc, handler in enumerate(code)
        if handler.__name__ == "_loop"
    }


#: (injection, tier that exercises it, how to read "it fell back").
FALLBACKS = {
    "tier2": (
        _fail_tier2_install, "opt",
        lambda interp: not any(interp._tiering.handlers.values()),
    ),
    "fused": (
        _fail_fused_codegen, "fused",
        lambda interp: not interp._fused_regions,
    ),
    "loop": (
        _fail_loop_codegen, "fused",
        lambda interp: interp._fused_regions and not _loop_handlers(interp),
    ),
}


class TestStrictness:
    """One switch, ``REPRO_TIER_STRICT``, governs every silent fallback."""

    @pytest.mark.parametrize("point", sorted(FALLBACKS))
    def test_strict_raises(self, point, monkeypatch):
        inject, tier, _ = FALLBACKS[point]
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        inject(monkeypatch)
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module, tier=tier)
        with pytest.raises(RuntimeError, match="injected"):
            interp.invoke("bench")

    @pytest.mark.parametrize("point", sorted(FALLBACKS))
    def test_non_strict_falls_back(self, point, monkeypatch):
        inject, tier, fell_back = FALLBACKS[point]
        monkeypatch.delenv("REPRO_TIER_STRICT", raising=False)
        module, _ = module_for("trisolv", "mini")
        reference, _ = _observables(module, "legacy")
        inject(monkeypatch)
        observed, interp = _observables(module, tier)
        assert fell_back(interp)
        assert observed == reference


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


class TestLoopHandlerTraps:
    """A loop handler leaves ``legacy``'s observables, traps included.

    Tier-1 dispatch counts a unit before running it, so a trap mid-loop
    must leave the counts the handler's ``finally`` adds.
    """

    @pytest.fixture(autouse=True)
    def strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")

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

    def test_profiling_off_still_installs_and_runs(self):
        module = parse_wat(OOB_LOOP_WAT)
        results = []
        for tier in ("legacy", "fused"):
            interp = Interpreter(module, tier=tier, collect_profile=False)
            results.append(interp.invoke("run", 4094))
        assert _loop_handlers(interp)
        assert results[0] == results[1]


class TestLazyTier1Build:
    def test_tier2_from_first_call_builds_no_tier1_code(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        module, _ = module_for("gemm", "mini")
        reference, _ = _observables(module, "fused")
        observed, interp = _observables(module, "opt")
        tier2 = {i for i, h in interp._tiering.handlers.items() if h}
        assert tier2
        assert not tier2 & set(interp._code_cache)
        assert observed == reference
