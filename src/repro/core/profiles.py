"""Profile cache: one functional execution per (workload, size).

The profiling interpreter run is the expensive step of the pipeline
(it executes the whole workload in Python), so results are cached both
in-process and on disk, under :data:`cache_dir` (``.cache/profiles/``
under the current directory unless the measurement engine's
``configure`` moves it).  Profiles are deterministic, so the cache never
needs invalidation except when workload definitions change — the cache
key includes a hash of the workload's encoded Wasm module.

:func:`read_entry` and :func:`write_entry` read and write every cache
file, profiles and measurements alike.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.runtime.profile import ExecutionProfile
from repro.wasm.encoder import encode_module
from repro.wasm.module import Module
from repro.workloads import workload_named
from repro.workloads.base import instantiate

_memory_cache: Dict[Tuple[str, str], Tuple[Module, ExecutionProfile]] = {}
#: (workload, size) -> (module, content digest, the build's env factory).
_module_cache: Dict[Tuple[str, str], Tuple[Module, str, Optional[Callable]]] = {}

#: Where profile files live unless the engine is configured otherwise.
DEFAULT_DIR = Path(".cache") / "profiles"

#: The directory profile files are read from and written to; None reads
#: and writes none.  Set it with :func:`set_cache_dir`.
cache_dir: Optional[Path] = DEFAULT_DIR

_T = TypeVar("_T")

#: What decoding a malformed entry raises (a missing field, a list where
#: a mapping belongs): its reader recomputes the value.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


def set_cache_dir(directory: Optional[os.PathLike]) -> None:
    """Read and write profile files under ``directory`` (None: nowhere).

    The measurement engine's ``configure`` calls this, and so does each
    of its pool workers at start-up, with the parent's setting: a
    worker started by ``spawn`` inherits no module state.
    """
    global cache_dir
    cache_dir = None if directory is None else Path(directory)


def read_entry(path: Path, decode: Callable[[dict], Optional[_T]]) -> Optional[_T]:
    """``decode`` of the JSON object stored at ``path``.

    None, so the caller recomputes, when the file is missing, corrupt,
    not a JSON object, or holds a field of the wrong type (a list where
    a mapping belongs).
    """
    try:
        raw = json.loads(path.read_text())
        return decode(raw) if isinstance(raw, dict) else None
    except (OSError, *MALFORMED):
        return None


def write_entry(path: Path, entry: dict) -> None:
    """Store ``entry`` as JSON at ``path``, atomically.

    The bytes go to a file of this process's own, which then replaces
    ``path``: a concurrent reader sees the old entry or the new one,
    never a half-written file.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry))
        tmp.replace(path)
    except OSError:
        pass  # read-only filesystem: the caller keeps its value


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
        built = workload_named(workload_name).build(size)
        digest = hashlib.sha256(encode_module(built.module)).hexdigest()
        # Keep the factory, not the build: the rest of it is garbage now.
        _module_cache[key] = (built.module, digest, built.env_factory)
    module, digest, _ = _module_cache[key]
    return module, digest


def module_digest(workload_name: str, size: str) -> str:
    """Content digest of a workload's encoded Wasm module."""
    return module_for(workload_name, size)[1]


def file_name(workload_name: str, size: str) -> str:
    """The name of a workload's cache file at a size, in either cache:
    ``<workload>-<size>-<module digest[:16]>.json``."""
    digest = module_digest(workload_name, size)
    return f"{workload_name.replace('/', '_')}-{size}-{digest[:16]}.json"


def profile_for(workload_name: str, size: str) -> Tuple[Module, ExecutionProfile]:
    """The (module, dynamic profile) pair for a workload at a size."""
    key = (workload_name, size)
    if key in _memory_cache:
        return _memory_cache[key]

    module = module_for(workload_name, size)[0]
    path = profile = None
    if cache_dir is not None:
        path = cache_dir / file_name(workload_name, size)
        profile = read_entry(path, _profile_from_json)
    if profile is None:
        # WASI workloads link against a fresh host environment, made
        # by the memoised build's factory.
        env_factory = _module_cache[key][2]
        interp, env = instantiate(
            module, env_factory, collect_profile=True, track_pages=True
        )
        interp.invoke("bench")
        profile = interp.take_profile(workload_name, size)
        if env is not None:
            profile.syscalls = env.recorder.snapshot()
        if path is not None:
            write_entry(path, _profile_to_json(profile))

    _memory_cache[key] = (module, profile)
    return module, profile


def clear_profile_cache() -> None:
    _memory_cache.clear()
    _module_cache.clear()
