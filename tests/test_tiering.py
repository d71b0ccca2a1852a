"""Tests for the execution tiers (tiering.py + vectorize.py).

Covers tier resolution and its validation, the tier-up heuristic,
bit-identical observables between the ``opt`` tier and the fused
reference (outputs, memory counters, touched pages, reconstructed
per-pc profiles), the entry-guard deopt path, and ``REPRO_TIER_STRICT``
over both silent fallbacks (tier-2 install and fused-region codegen).
"""

import struct

import pytest

from repro.core.profiles import clear_profile_cache, module_for
from repro.runtime import interpreter, vectorize
from repro.runtime.interpreter import Interpreter
from repro.wasm import validate_module
from repro.wasm.wat_parser import parse_wat


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
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

    def test_malformed_threshold_rejected(self, monkeypatch):
        # A typo must not silently stop forcing tier-up.
        module, _ = module_for("trisolv", "mini")
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "O")
        with pytest.raises(ValueError):
            Interpreter(module, tier="opt")


class TestTierUpHeuristic:
    def test_cold_functions_stay_on_tier1(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", str(10**9))
        module, _ = module_for("gemm", "mini")
        _, interp = _observables(module, "opt")
        assert not any(interp._tiering.handlers.values())

    def test_hot_functions_tier_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        module, _ = module_for("gemm", "mini")
        _, interp = _observables(module, "opt")
        installed = [h for h in interp._tiering.handlers.values() if h]
        assert len(installed) >= 2  # init and kernel

    def test_score_accumulates_across_calls(self, monkeypatch):
        # Threshold just above one kernel-body score: the second call
        # must tier up even though the first did not.
        module, _ = module_for("gemm", "mini")
        body_len = len(module.funcs[0].body)
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", str(body_len + 1))
        interp = Interpreter(module, tier="opt")
        interp.invoke("bench")
        first = sum(1 for h in interp._tiering.handlers.values() if h)
        interp.invoke("bench")
        second = sum(1 for h in interp._tiering.handlers.values() if h)
        assert second >= first
        assert second >= 1


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["gemm", "trisolv", "jacobi-2d"])
    def test_opt_matches_fused_mini(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
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
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
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
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
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


def _fail_fused_codegen(monkeypatch):
    def boom(region, body, memory, body_len):
        raise RuntimeError("injected fused codegen failure")

    monkeypatch.setattr(interpreter, "_gen_region", boom)


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
}


class TestStrictness:
    """One switch, ``REPRO_TIER_STRICT``, governs both silent fallbacks."""

    @pytest.mark.parametrize("point", sorted(FALLBACKS))
    def test_strict_raises(self, point, monkeypatch):
        inject, tier, _ = FALLBACKS[point]
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        inject(monkeypatch)
        module, _ = module_for("trisolv", "mini")
        interp = Interpreter(module, tier=tier)
        with pytest.raises(RuntimeError, match="injected"):
            interp.invoke("bench")

    @pytest.mark.parametrize("point", sorted(FALLBACKS))
    def test_non_strict_falls_back(self, point, monkeypatch):
        inject, tier, fell_back = FALLBACKS[point]
        monkeypatch.setenv("REPRO_TIER_THRESHOLD", "0")
        monkeypatch.delenv("REPRO_TIER_STRICT", raising=False)
        module, _ = module_for("trisolv", "mini")
        reference, _ = _observables(module, "legacy")
        inject(monkeypatch)
        observed, interp = _observables(module, tier)
        assert fell_back(interp)
        assert observed == reference
