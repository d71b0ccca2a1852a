"""Tests for the profile cache (memory + disk), the functions tier 2
compiles and the loops tier 1 versions while profiling, and the
interpreter build digest."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import profiles
from repro.core.profiles import (
    _profile_from_json,
    clear_profile_cache,
    module_digest,
    profile_for,
)
from repro.runtime.predecode import interpreter_sources
from repro.workloads.base import instantiate

#: The profiles committed with the repository.
COMMITTED = Path(__file__).resolve().parents[1] / ".cache" / "profiles"

#: size -> workload -> the functions tier 2 compiles while profiling it
#: (absent: none); a function it newly takes is added here.
TIER2_FUNCTIONS = json.loads(
    (Path(__file__).parent / "tier2_functions.json").read_text()
)

#: size -> workload -> the [function, loop pc] of every loop that a loop
#: handler versions while profiling it (absent: none).
VERSIONED_LOOPS = json.loads(
    (Path(__file__).parent / "versioned_loops.json").read_text()
)


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

    def test_profiling_builds_the_workload_once(self, monkeypatch):
        # The module digest and the profiling run's host environment
        # both come from one build.
        builds = []
        workload_named = profiles.workload_named

        def counting(name):
            workload = workload_named(name)

            def build(size):
                builds.append((name, size))
                return workload.build(size)

            return dataclasses.replace(workload, build=build)

        monkeypatch.setattr(profiles, "workload_named", counting)
        _, profile = profile_for("wasi-grep", "mini")
        assert builds == [("wasi-grep", "mini")]
        assert profile.syscalls  # linked against the WASI environment

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


def _assert_recomputes_equal(path, monkeypatch):
    """The profile recomputes equal, tier 2 compiling exactly the
    recorded functions and deopting no call, and loop handlers
    versioning exactly the recorded loops."""
    committed = _profile_from_json(json.loads(path.read_text()))
    workload, size = committed.workload, committed.size
    assert path.name == (
        f"{workload.replace('/', '_')}-{size}-"
        f"{module_digest(workload, size)[:16]}.json"
    ), "stale file: its module digest is not the workload's"
    made = []

    def recording(*args, **kwargs):
        made.append(instantiate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(profiles, "instantiate", recording)
    _, recomputed = profile_for(workload, size)
    assert recomputed == committed
    [(interp, _env)] = made
    compiled = {index for index, handler in interp._tier2.items() if handler}
    assert sorted(compiled) == TIER2_FUNCTIONS[size].get(workload, [])
    # A deopted call runs on tier 1, which builds the function's code.
    assert not compiled & set(interp._code_cache)
    versioned = sorted(
        [index, pc]
        for index, code in interp._code_cache.items()
        for handler in code
        for pc in getattr(handler, "versioned", ())
    )
    assert versioned == VERSIONED_LOOPS[size].get(workload, [])


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
    def test_mini_profile_recomputes_equal(self, path, isolated_cache, monkeypatch):
        _assert_recomputes_equal(path, monkeypatch)

    @_committed("small")
    def test_small_profile_recomputes_equal(self, path, isolated_cache, monkeypatch):
        _assert_recomputes_equal(path, monkeypatch)

    def test_tier2_fixture_names_committed_workloads(self):
        for fixture in (TIER2_FUNCTIONS, VERSIONED_LOOPS):
            for size, entries in fixture.items():
                named = {p.name.rsplit("-", 2)[0] for p in COMMITTED.glob(f"*-{size}-*.json")}
                assert set(entries) <= named

    def test_committed_profiles_are_found(self):
        for size in ("mini", "small"):
            assert list(COMMITTED.glob(f"*-{size}-*.json"))


#: Profiles one compute and one WASI workload with the profile cache
#: off, then prints the file of every ``repro.runtime`` module loaded.
_LOADED_RUNTIME = """
import json, sys
from repro.core import profiles
profiles.set_cache_dir(None)
profiles.profile_for("gemm", "mini")
profiles.profile_for("wasi-grep", "mini")
print(json.dumps(sorted(
    module.__file__ for name, module in sys.modules.items()
    if name == "repro.runtime" or name.startswith("repro.runtime.")
)))
"""


class TestInterpreterDigest:
    def test_every_loaded_runtime_module_is_hashed(self):
        """A profiling run loads no ``repro.runtime`` module that the
        interpreter build digest (in every measurement key) leaves out."""
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", _LOADED_RUNTIME],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        loaded = {Path(name).resolve() for name in json.loads(out)}
        hashed = {path.resolve() for path in interpreter_sources()}
        assert {"hostiface.py", "profile.py", "wasi.py"} <= {p.name for p in loaded}
        assert loaded <= hashed
