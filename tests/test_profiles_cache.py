"""Tests for the profile cache (memory + disk)."""

import json
from pathlib import Path

import pytest

from repro.core import profiles
from repro.core.profiles import (
    _profile_from_json,
    clear_profile_cache,
    module_digest,
    profile_for,
)

#: The profiles committed with the repository.
COMMITTED = Path(__file__).resolve().parents[1] / ".cache" / "profiles"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(profiles, "cache_dir", tmp_path)
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

    @pytest.mark.parametrize("content", [
        "[]",
        "null",
        # A profile with a field of the wrong type.
        pytest.param({"instr_counts": []}, id="instr_counts-list"),
        pytest.param({"grow_events": 5}, id="grow_events-int"),
    ])
    def test_non_object_disk_entry_recomputed(self, isolated_cache, content):
        # Valid JSON that is not a profile is as corrupt as invalid JSON.
        profile_for("gemm", "mini")
        path = next(isolated_cache.glob("gemm-mini-*.json"))
        original = path.read_text()
        if isinstance(content, dict):
            raw = json.loads(original)
            raw.update(content)
            content = json.dumps(raw)
        path.write_text(content)
        clear_profile_cache()
        _, profile = profile_for("gemm", "mini")
        assert profile.total_instrs > 1000
        assert json.loads(path.read_text())["workload"] == "gemm"
        assert path.read_text() == original  # overwritten, not skipped

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


def _assert_recomputes_equal(path):
    committed = _profile_from_json(json.loads(path.read_text()))
    workload, size = committed.workload, committed.size
    assert path.name == (
        f"{workload.replace('/', '_')}-{size}-"
        f"{module_digest(workload, size)[:16]}.json"
    ), "stale file: its module digest is not the workload's"
    _, recomputed = profile_for(workload, size)
    assert recomputed == committed


def _committed(size):
    return pytest.mark.parametrize(
        "path",
        sorted(COMMITTED.glob(f"*-{size}-*.json")),
        ids=lambda path: path.name.rsplit("-", 1)[0],
    )


class TestCommittedProfiles:
    """Every committed profile holds what this interpreter computes.

    Profile files are named by workload, size and module digest only,
    so nothing else notices an interpreter change that moves a count.
    Parsed content is compared, not bytes: files written before the
    ``syscalls`` key existed lack it, and it reads back as empty.
    """

    @_committed("mini")
    def test_mini_profile_recomputes_equal(self, path, isolated_cache):
        _assert_recomputes_equal(path)

    @_committed("small")
    def test_small_profile_recomputes_equal(self, path, isolated_cache):
        _assert_recomputes_equal(path)

    def test_committed_profiles_are_found(self):
        for size in ("mini", "small"):
            assert list(COMMITTED.glob(f"*-{size}-*.json"))
