"""Profile cache: one functional execution per (workload, size).

The profiling interpreter run is the expensive step of the pipeline
(it executes the whole workload in Python), so results are cached both
in-process and on disk (``.cache/profiles/`` under the repository or
current directory).  Profiles are deterministic, so the cache never
needs invalidation except when workload definitions change — the cache
key includes a hash of the workload's encoded Wasm module.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.runtime.interpreter import Interpreter
from repro.runtime.profile import ExecutionProfile
from repro.wasm.encoder import encode_module
from repro.wasm.module import Module
from repro.workloads import workload_named

_memory_cache: Dict[Tuple[str, str], Tuple[Module, ExecutionProfile]] = {}
_module_cache: Dict[Tuple[str, str], Tuple[Module, str]] = {}


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path(".cache") / "profiles"


def _profile_to_json(profile: ExecutionProfile) -> dict:
    return {
        "workload": profile.workload,
        "size": profile.size,
        "instr_counts": {str(k): v for k, v in profile.instr_counts.items()},
        "op_totals": profile.op_totals,
        "mem_loads": profile.mem_loads,
        "mem_stores": profile.mem_stores,
        "pages_touched": profile.pages_touched,
        "grow_events": profile.grow_events,
        "peak_pages": profile.peak_pages,
        "total_instrs": profile.total_instrs,
        "syscalls": profile.syscalls,
    }


def _profile_from_json(raw: dict) -> ExecutionProfile:
    return ExecutionProfile(
        workload=raw["workload"],
        size=raw["size"],
        instr_counts={int(k): v for k, v in raw["instr_counts"].items()},
        op_totals=raw["op_totals"],
        mem_loads=raw["mem_loads"],
        mem_stores=raw["mem_stores"],
        pages_touched=raw["pages_touched"],
        grow_events=[tuple(e) for e in raw["grow_events"]],
        peak_pages=raw["peak_pages"],
        total_instrs=raw["total_instrs"],
        # Pre-WASI cache entries lack the key; they are compute-family
        # profiles, for which the census is legitimately empty.
        syscalls=raw.get("syscalls", {}),
    )


def module_for(workload_name: str, size: str) -> Tuple[Module, str]:
    """The (module, content digest) pair for a workload at a size.

    Building and encoding a module is cheap compared to profiling it,
    but the digest is needed on its own by the measurement cache
    (:mod:`repro.core.engine`), so it gets its own memo — computing a
    cache key must never trigger a profiling interpreter run.
    """
    key = (workload_name, size)
    if key not in _module_cache:
        module = workload_named(workload_name).build(size).module
        digest = hashlib.sha256(encode_module(module)).hexdigest()
        _module_cache[key] = (module, digest)
    return _module_cache[key]


def module_digest(workload_name: str, size: str) -> str:
    """Content digest of a workload's encoded Wasm module."""
    return module_for(workload_name, size)[1]


def profile_for(workload_name: str, size: str) -> Tuple[Module, ExecutionProfile]:
    """The (module, dynamic profile) pair for a workload at a size."""
    key = (workload_name, size)
    if key in _memory_cache:
        return _memory_cache[key]

    module, full_digest = module_for(workload_name, size)
    digest = full_digest[:16]
    disk_path = _cache_dir() / f"{workload_name.replace('/', '_')}-{size}-{digest}.json"

    profile: Optional[ExecutionProfile] = None
    if disk_path.exists():
        try:
            profile = _profile_from_json(json.loads(disk_path.read_text()))
        except (ValueError, KeyError):
            profile = None  # stale/corrupt cache entry: recompute
    if profile is None:
        # WASI workloads link against a fresh host environment; the
        # module itself stays the memoised one (same digest) since
        # builds are deterministic.
        built = workload_named(workload_name).build(size)
        env = built.env_factory() if built.env_factory is not None else None
        interp = Interpreter(
            module,
            imports=env.imports() if env is not None else None,
            collect_profile=True,
            track_pages=True,
        )
        if env is not None:
            env.bind(interp)
        interp.invoke("bench")
        profile = interp.take_profile(workload_name, size)
        if env is not None:
            profile.syscalls = env.recorder.snapshot()
        try:
            disk_path.parent.mkdir(parents=True, exist_ok=True)
            disk_path.write_text(json.dumps(_profile_to_json(profile)))
        except OSError:
            pass  # read-only filesystem: in-memory cache still works

    _memory_cache[key] = (module, profile)
    return module, profile


def clear_profile_cache() -> None:
    _memory_cache.clear()
    _module_cache.clear()
