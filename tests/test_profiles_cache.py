"""Tests for the profile cache (memory + disk)."""

import json

import pytest

from repro.core.profiles import clear_profile_cache, profile_for


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_profile_cache()
    yield tmp_path
    clear_profile_cache()


class TestProfileCache:
    def test_profile_contents(self, isolated_cache):
        module, profile = profile_for("gemm", "mini")
        assert profile.workload == "gemm"
        assert profile.total_instrs > 1000
        assert profile.mem_loads > 0
        assert profile.pages_touched > 0
        assert profile.peak_pages >= 1
        # Per-pc counts exist for the executed functions.
        assert profile.instr_counts

    def test_memory_cache_returns_same_objects(self, isolated_cache):
        first = profile_for("gemm", "mini")
        second = profile_for("gemm", "mini")
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_disk_cache_round_trip(self, isolated_cache):
        _, original = profile_for("gemm", "mini")
        # Profiling leaves the profile and nothing else: the interpreter
        # keeps its pre-decode plans and tier-2 artifacts in memory.
        files = list(isolated_cache.iterdir())
        assert len(files) == 1
        assert files[0].name.startswith("gemm-mini-")
        clear_profile_cache()
        _, reloaded = profile_for("gemm", "mini")
        assert reloaded.instr_counts == original.instr_counts
        assert reloaded.op_totals == original.op_totals
        assert reloaded.grow_events == original.grow_events

    def test_corrupt_disk_entry_recomputed(self, isolated_cache):
        profile_for("gemm", "mini")
        path = next(isolated_cache.glob("gemm-mini-*.json"))
        path.write_text("{not json")
        clear_profile_cache()
        _, profile = profile_for("gemm", "mini")
        assert profile.total_instrs > 1000

    def test_sizes_cached_separately(self, isolated_cache):
        _, mini = profile_for("gemm", "mini")
        _, small = profile_for("gemm", "small")
        assert small.total_instrs > 3 * mini.total_instrs

    def test_profiles_are_deterministic(self, isolated_cache):
        _, first = profile_for("505.mcf", "mini")
        clear_profile_cache()
        for f in isolated_cache.glob("*.json"):
            f.unlink()
        _, second = profile_for("505.mcf", "mini")
        assert first.instr_counts == second.instr_counts
