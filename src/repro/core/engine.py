"""The measurement engine: parallel sweeps + content-addressed caching.

Regenerating the paper's figures walks a grid of
(41 workloads × 7 runtimes × 8 strategies × 3 ISAs × {1,4,16} threads);
the figure experiments also overlap heavily (fig3–fig6 all need the
same thread-scaling measurements).  This module is the execution layer
under :func:`repro.api.run`/:func:`repro.api.measure`:

* **fan-out** — a grid's cache misses run across a
  ``ProcessPoolExecutor`` with a ``--jobs N`` knob, opened for that
  one run and shut down before it returns.  Every simulation RNG
  stream is seeded, so results are bit-identical to a serial run
  regardless of worker count or scheduling order.
* **measurement cache** — each finished :class:`RunMeasurement` is
  stored on disk under a content-addressed key:
  SHA-256 over (module digest, runtime, strategy, isa, threads, size,
  iterations, warmup, the BCE flag when off, calibration-constants
  hash).  Any change to a workload's encoded Wasm or to the
  calibration tables changes the key and silently invalidates the
  entry.  BCE is an input of each cell, not process state, so BCE-on
  and BCE-off cells share one grid, one engine and one cache
  directory.  The cache lives beside the profile cache
  (``.cache/measurements/`` next to ``.cache/profiles/``).
* **shards** — the entries of one workload at one size share one file,
  named like its profile file
  (``<workload>-<size>-<module digest[:16]>.json``): a JSON object
  mapping each full key to ``{"request", "measurement"}``, written
  sorted by key, so a shard's bytes depend only on what it holds and
  not on the order its cells finished.  A run reads each shard it
  needs at most once, before any miss runs, and keeps none of them
  while it simulates; it writes each shard it added entries to once,
  when that shard's last miss finishes: it reads the file again,
  merges its new entries in and replaces the file atomically.  A run
  that raises still writes the cells it finished; failed cells are
  never written.  A missing or corrupt shard reads as empty, and an
  entry that does not decode is a miss for its cell alone.  Two
  processes that update one shard at once can drop each other's
  newest entries (the last replace wins), and the next run recomputes
  them; no reader ever sees a torn file or a value stored under
  another key.  A run killed by a signal that Python does not raise
  as an exception (SIGTERM by default, SIGKILL) keeps only the shards
  it had already written.  Nothing is ever removed from a shard: an
  entry whose key no longer matches (after an edit to the interpreter
  or the calibration constants) stays in it, read and rewritten with
  the live ones, until the shard file is deleted.
* **workers** — each worker profiles, compiles and prices its cells
  itself, reading the shared on-disk profile cache, instead of being
  shipped modules over pickle, so the pool never serialises on the
  parent.  Within one process the compile store every runtime model
  shares and the per-runtime block-costing caches
  (:mod:`repro.runtimes.base`) compile each distinct input once and
  make repeated configurations near-free.

An engine keeps no worker and no result between runs: what one run
leaves the next is the files under its cache directory.  A serial run
(``jobs=1``, or a single miss) never starts a worker, so library users
and tests pay nothing for the machinery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import profiles
from repro.core.harness import RunMeasurement, run_benchmark
from repro.core.profiles import MALFORMED, module_digest, read_entry, write_entry
from repro.runtime.predecode import interpreter_build_digest
from repro.oskernel.procstat import UtilisationSample
from repro.trace.events import MEASURE_REQUEST
from repro.trace.tracer import TRACE

#: Bump when the cache entry format (not the measured values) changes.
_CACHE_VERSION = 3  # v3: syscall_seconds/syscall_stats on each measurement


@dataclass(frozen=True)
class MeasurementRequest:
    """One cell of a sweep grid."""

    workload: str
    runtime: str
    strategy: str
    isa: str
    threads: int = 1
    size: str = "small"
    iterations: int = 3
    warmup: int = 1
    #: Whether the compiler runs its bounds-check elimination passes.
    bce: bool = True

    def to_json(self) -> Dict[str, object]:
        """The :func:`run_benchmark` keyword arguments for this cell.

        ``bce`` is omitted when on, so every cache entry and cache key
        (:meth:`MeasurementEngine.key_for`) written before the field
        existed keeps its bytes.
        """
        # Shallow: every field is a scalar, and ``asdict``'s deep copy
        # would cost more than the rest of a cache key.
        raw = dict(vars(self))
        if self.bce:
            del raw["bce"]
        return raw

    def label(self) -> str:
        return (
            f"{self.workload} {self.runtime}/{self.strategy}/"
            f"{self.isa}/t{self.threads}" + ("" if self.bce else "/nobce")
        )


@dataclass(frozen=True)
class MeasurementError:
    """A structured per-request failure (the request did not measure)."""

    request: MeasurementRequest
    #: Exception class name of the underlying failure.
    kind: str
    message: str

    def label(self) -> str:
        return f"{self.request.label()}: {self.kind}: {self.message}"


@dataclass(frozen=True)
class MeasurementResult:
    """A measurement plus how the engine produced it.

    ``measurement`` is None exactly when ``error`` is set: the request
    failed, and the result reaches the caller only through
    :attr:`SweepFailure.results`.
    """

    measurement: Optional[RunMeasurement]
    cache_hit: bool
    #: Wall-clock seconds spent producing this result (≈0 for hits).
    elapsed: float
    error: Optional[MeasurementError] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepFailure(RuntimeError):
    """Raised by :meth:`MeasurementEngine.run` after the whole grid ran.

    One poisoned configuration no longer aborts the sweep: every other
    request still executes (and its result is cached) before this is
    raised, so a retry after fixing the bad config is all cache hits.
    ``errors`` lists each failed request once; ``results`` holds one
    result per request in request order, failed rows included (those
    carry an ``error`` and no measurement).
    """

    def __init__(
        self,
        errors: List[MeasurementError],
        results: List[MeasurementResult],
    ) -> None:
        self.errors = errors
        self.results = results
        lines = "; ".join(e.label() for e in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"{len(errors)} of {len(results)} sweep requests failed: "
            f"{lines}{more}"
        )


# --------------------------------------------------------------------------
# Calibration hash: every constant that feeds one measurement's values.

#: RuntimeModel fields that are presentation/availability metadata, not
#: cost calibration — excluded so a runtime's strategy list can grow
#: (``cheri`` on wavm, wasmtime and v8) without moving the cache key of
#: any cell it already had.
_NON_CALIBRATION_FIELDS = {"display", "strategies", "default_strategy"}


def _plain(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {}
        for f in dataclasses.fields(value):
            if f.name.startswith("_") or f.name in _NON_CALIBRATION_FIELDS:
                continue
            fields[f.name] = _plain(getattr(value, f.name))
        return fields
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (frozenset, set)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


#: Calibration hashes per (runtime, strategy, isa, workload), and the
#: plain-data payload components they are built from per (kind, name):
#: one ``clear()`` drops both.
_calibration_memo: Dict[tuple, object] = {}


def _calibration_source(kind: str, name: str) -> object:
    """The model object one payload component is read from."""
    from repro.compiler import timing
    from repro.core.config import PAPER_TARGETS
    from repro.cpu.machine import MACHINE_SPECS
    from repro.isa import ISAS
    from repro.oskernel.syscalls import SyscallCosts
    from repro.runtime.strategies import STRATEGIES
    from repro.runtimes import runtime_named

    sources = {
        "syscall_costs": SyscallCosts,
        "runtime": lambda: runtime_named(name),
        "strategy": lambda: STRATEGIES[name],
        "isa": lambda: ISAS[name],
        "machine": lambda: MACHINE_SPECS[name],
        "target": lambda: PAPER_TARGETS[name],
        "interp_op_work": lambda: timing._INTERP_OP_WORK,
        "interp_expensive": lambda: timing._INTERP_EXPENSIVE,
    }
    return sources[kind]()


def _component(kind: str, name: str = "") -> object:
    """One payload component as plain data, memoised per (kind, name)."""
    key = (kind, name)
    plain = _calibration_memo.get(key)
    if plain is None:
        plain = _calibration_memo[key] = _plain(_calibration_source(kind, name))
    return plain


def _calibration_payload(
    runtime: str, strategy: str, isa: str, workload: str
) -> object:
    """The model constants one measurement depends on, canonically.

    Every measurement is priced by: its runtime model (compiler config,
    scheduling overhead, helper/GC behaviour), its strategy, its ISA
    cost table and machine spec, the interpreter cost tables, and —
    through the paper-scale anchor in :func:`run_benchmark` — the
    native-Clang model on x86-64 plus the workload's paper target.
    """
    return {
        # The WASI service-latency table prices every syscall batch;
        # the ISA entry cost is covered by the "isa" entry below.
        "syscall_costs": _component("syscall_costs"),
        "runtime": _component("runtime", runtime),
        "strategy": _component("strategy", strategy),
        "isa": _component("isa", isa),
        "machine": _component("machine", isa),
        "anchor": {
            "runtime": _component("runtime", "native-clang"),
            "strategy": _component("strategy", "none"),
            "isa": _component("isa", "x86_64"),
            "machine": _component("machine", "x86_64"),
            "target": _component("target", workload),
        },
        "interp_op_work": _component("interp_op_work"),
        "interp_expensive": _component("interp_expensive"),
    }


def calibration_hash(
    runtime: str, strategy: str, isa: str, workload: str
) -> str:
    """SHA-256 over a measurement's calibration constants.

    Part of each cache key: editing a cost table, machine spec, runtime
    model or paper-scale target changes the hash and silently
    invalidates the affected cached measurements — the cache never
    needs manual flushing after model work.  Hashes are memoised per
    configuration at first use, and the payload components they share
    (runtime, strategy, ISA, machine, paper target, fixed tables) are
    built once each.
    """
    memo_key = (runtime, strategy, isa, workload)
    cached = _calibration_memo.get(memo_key)
    if cached is None:
        canonical = json.dumps(
            _calibration_payload(runtime, strategy, isa, workload),
            sort_keys=True,
            default=repr,
        )
        cached = hashlib.sha256(canonical.encode()).hexdigest()
        _calibration_memo[memo_key] = cached
    return cached


# --------------------------------------------------------------------------
# RunMeasurement (de)serialisation for the disk cache.

def measurement_to_json(m: RunMeasurement) -> dict:
    return {
        "workload": m.workload,
        "runtime": m.runtime,
        "strategy": m.strategy,
        "isa": m.isa,
        "threads": m.threads,
        "size": m.size,
        "iteration_seconds": m.iteration_seconds,
        "wall_seconds": m.wall_seconds,
        # Shallow: every field is a float.
        "utilisation": dict(vars(m.utilisation)),
        "mem_avg_bytes": m.mem_avg_bytes,
        "kernel_stats": m.kernel_stats,
        "mmap_read_wait": m.mmap_read_wait,
        "mmap_write_wait": m.mmap_write_wait,
        "compute_seconds": m.compute_seconds,
        "bounds_checks": {str(k): int(v) for k, v in m.bounds_checks.items()},
        "syscall_seconds": m.syscall_seconds,
        "syscall_stats": {
            str(k): {"calls": int(v["calls"]), "seconds": float(v["seconds"])}
            for k, v in m.syscall_stats.items()
        },
    }


def measurement_from_json(raw: dict) -> RunMeasurement:
    return RunMeasurement(
        workload=raw["workload"],
        runtime=raw["runtime"],
        strategy=raw["strategy"],
        isa=raw["isa"],
        threads=raw["threads"],
        size=raw["size"],
        iteration_seconds=[float(v) for v in raw["iteration_seconds"]],
        wall_seconds=raw["wall_seconds"],
        utilisation=UtilisationSample(**raw["utilisation"]),
        mem_avg_bytes=raw["mem_avg_bytes"],
        kernel_stats={str(k): int(v) for k, v in raw["kernel_stats"].items()},
        mmap_read_wait=raw["mmap_read_wait"],
        mmap_write_wait=raw["mmap_write_wait"],
        compute_seconds=raw["compute_seconds"],
        bounds_checks={
            str(k): int(v) for k, v in raw.get("bounds_checks", {}).items()
        },
        syscall_seconds=raw.get("syscall_seconds", 0.0),
        syscall_stats={
            str(k): {"calls": int(v["calls"]), "seconds": float(v["seconds"])}
            for k, v in raw.get("syscall_stats", {}).items()
        },
    )


def _pool_context():
    """Prefer ``fork`` workers: they inherit the parent's in-memory
    profile/compile caches (newer Pythons default to forkserver, which
    would not)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: workers rebuild state
        return multiprocessing.get_context()


# --------------------------------------------------------------------------
# Worker entry point (module-level so it pickles under 'spawn' too).

def _execute(request: MeasurementRequest) -> MeasurementResult:
    """Run one request in a (possibly worker) process."""
    started = time.perf_counter()
    measurement = run_benchmark(**request.to_json())
    return MeasurementResult(
        measurement, False, time.perf_counter() - started
    )


def _failed(
    request: MeasurementRequest, exc: Exception, elapsed: float
) -> MeasurementResult:
    """The result of a request whose execution raised instead of
    measuring."""
    error = MeasurementError(request, type(exc).__name__, str(exc))
    return MeasurementResult(None, False, elapsed, error=error)


def resolve_jobs(jobs) -> int:
    """Worker count for a ``jobs`` request on *this* machine.

    ``"auto"`` sizes the pool to the host: serial on single-CPU
    machines (forking workers and importing the stack in each costs
    time, and with one CPU there is nothing for them to overlap),
    otherwise one worker per CPU capped at 8 (the figure grids rarely
    have more independent misses than that).
    """
    if jobs == "auto":
        cpus = os.cpu_count() or 1
        return 1 if cpus < 2 else min(cpus, 8)
    return max(1, int(jobs))


#: Where measurement files live unless an engine is given a directory.
DEFAULT_DIR = Path(".cache") / "measurements"


@dataclass
class _PendingShard:
    """One shard's part of a run: its misses not yet finished, and the
    entries finished since it was last written."""

    left: int = 0
    entries: Dict[str, dict] = field(default_factory=dict)


class MeasurementEngine:
    """Executes measurement requests with caching and optional fan-out."""

    def __init__(
        self,
        jobs=1,
        cache: bool = True,
        cache_dir: Optional[os.PathLike] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache_enabled = cache
        self.cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_DIR

    # -- keys ------------------------------------------------------------

    def key_for(self, request: MeasurementRequest) -> str:
        """Content-addressed cache key for one request.

        The request's own fields enter as :meth:`MeasurementRequest.to_json`
        writes them, the workload's name replaced by its module digest.
        """
        payload = request.to_json()
        del payload["workload"]
        payload.update(
            version=_CACHE_VERSION,
            module=module_digest(request.workload, request.size),
            # Measurements derive from interpreter-produced profiles, so
            # the key pins the exact interpreter build that profiled.
            interp=interpreter_build_digest()[:16],
            calibration=calibration_hash(
                request.runtime, request.strategy, request.isa, request.workload
            ),
        )
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path_for(self, request: MeasurementRequest) -> Path:
        """The shard that holds ``request``'s entry: one file per
        workload, size and module digest, named like its profile file."""
        return self.cache_dir / profiles.file_name(request.workload, request.size)

    # -- cache I/O -------------------------------------------------------

    def _read(self, path: Path) -> Dict[str, object]:
        """The shard at ``path`` as key -> raw entry; empty when the file
        is missing, corrupt or not a JSON object."""
        return read_entry(path, lambda raw: raw) or {}

    def _load(
        self, path: Path, key: str, shards: Dict[Path, Dict[str, object]]
    ) -> Optional[RunMeasurement]:
        """The measurement cached under ``key`` in the shard at ``path``.

        ``shards`` holds every shard the run has read so far, so none is
        read twice.  None, so the cell recomputes, when the cache is off
        or the entry is absent or malformed.
        """
        if not self.cache_enabled:
            return None
        shard = shards.get(path)
        if shard is None:
            shard = shards[path] = self._read(path)
        try:
            return measurement_from_json(shard[key]["measurement"])
        except MALFORMED:
            return None

    def _store(self, path: Path, entries: Dict[str, dict]) -> None:
        """Merge ``entries`` into the shard at ``path`` as it is on disk
        now, and replace the file with every entry sorted by key."""
        merged = self._read(path)
        merged.update(entries)
        write_entry(path, {key: merged[key] for key in sorted(merged)})

    # -- execution -------------------------------------------------------

    def run(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        """Execute requests, returning results in request order.

        Duplicate requests are computed once.  Misses run serially
        in-process when ``jobs == 1`` or there is only one, and
        otherwise across a process pool that lives for this call only;
        either way the values are identical.

        Fault isolation: a request whose execution raises does not
        abort the sweep — every other request still runs and every
        completed result is cached.  Once the whole grid has been
        attempted, a :class:`SweepFailure` names the failed requests
        and carries every row.
        """
        keys = [self.key_for(req) for req in requests]
        results: Dict[str, MeasurementResult] = {}
        misses: List[tuple] = []
        scheduled = set()
        shards: Dict[Path, Dict[str, object]] = {}
        for request, key in zip(requests, keys):
            if key in results or key in scheduled:
                continue
            started = time.perf_counter()
            path = self._path_for(request)
            cached = self._load(path, key, shards)
            if cached is not None:
                result = MeasurementResult(
                    cached, True, time.perf_counter() - started
                )
                self._resolve(request, key, result, results)
            else:
                scheduled.add(key)
                misses.append((request, key, path))
        # No decoded shard is held while the misses simulate.
        shards.clear()

        # Workload-major order: run serially, a module is profiled and
        # compiled once and its later cells re-price it from the
        # process's in-memory caches; the pool gets one ``submit`` per
        # cell, in this same order.
        misses.sort(key=lambda miss: (miss[0].workload, miss[0].size))

        pending: Dict[Path, _PendingShard] = {}
        if self.cache_enabled:
            for _, _, path in misses:
                pending.setdefault(path, _PendingShard()).left += 1
        try:
            if len(misses) > 1 and self.jobs > 1:
                self._run_pooled(misses, results, pending)
            else:
                for miss in misses:
                    request = miss[0]
                    started = time.perf_counter()
                    try:
                        result = _execute(request)
                    except Exception as exc:
                        result = _failed(request, exc, time.perf_counter() - started)
                    self._finish(miss, result, results, pending)
        finally:
            # A run that raises keeps every cell it finished.
            for path, shard in pending.items():
                if shard.entries:
                    self._store(path, shard.entries)

        ordered = [results[key] for key in keys]
        errors, seen = [], set()
        for key, result in zip(keys, ordered):
            if result.error is not None and key not in seen:
                seen.add(key)
                errors.append(result.error)
        if errors:
            raise SweepFailure(errors, ordered)
        return ordered

    def _run_pooled(self, misses: List[tuple], results: dict, pending: dict) -> None:
        """Measure ``misses`` across a pool opened for them alone.

        Each worker starts on the parent's profile directory.  The pool
        is shut down, pending cells cancelled, before this returns or
        raises, so no worker outlives the run.
        """
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(misses)),
            mp_context=_pool_context(),
            initializer=profiles.set_cache_dir,
            initargs=(profiles.cache_dir,),
        )
        try:
            started = time.perf_counter()
            futures = {pool.submit(_execute, miss[0]): miss for miss in misses}
            for future in as_completed(futures):
                miss = futures[future]
                try:
                    result = future.result()
                except Exception as exc:
                    # One worker exception does not poison the grid:
                    # the other futures keep running and their results
                    # are kept (and cached).
                    result = _failed(
                        miss[0], exc, time.perf_counter() - started
                    )
                self._finish(miss, result, results, pending)
        finally:
            pool.shutdown(cancel_futures=True)

    def _finish(self, miss, result, results, pending) -> None:
        """Resolve one finished miss; write its shard once its last
        miss in this run has finished."""
        request, key, path = miss
        if self.cache_enabled:
            shard = pending[path]
            if result.ok:
                shard.entries[key] = {
                    "request": request.to_json(),
                    "measurement": measurement_to_json(result.measurement),
                }
            shard.left -= 1
            if not shard.left and shard.entries:
                self._store(path, shard.entries)
                shard.entries = {}
        self._resolve(request, key, result, results)

    def _resolve(self, request, key, result, results) -> None:
        results[key] = result
        if TRACE.enabled:
            TRACE.emit(
                0.0, MEASURE_REQUEST, label=request.label(),
                cache_hit=result.cache_hit, error=result.error is not None,
            )

    def measure_one(self, request: MeasurementRequest) -> MeasurementResult:
        return self.run([request])[0]


# --------------------------------------------------------------------------
# Process-wide default engine shared by every experiment.

_default_engine: Optional[MeasurementEngine] = None


def default_engine() -> MeasurementEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = MeasurementEngine()
    return _default_engine


def configure(
    jobs=None,
    cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> MeasurementEngine:
    """(Re)configure the process-wide engine; returns it.

    ``jobs`` is an int or ``"auto"`` (see :func:`resolve_jobs`) and
    ``cache`` a bool; None keeps the current setting.  ``cache_dir`` is
    the base of both caches, measurements under ``measurements/`` and
    profiles under ``profiles/`` (None: their default directories).
    With the cache off, neither cache is read or written.
    """
    global _default_engine
    current = default_engine()
    base = Path(cache_dir) if cache_dir is not None else None
    engine = MeasurementEngine(
        jobs=current.jobs if jobs is None else jobs,
        cache=current.cache_enabled if cache is None else cache,
        cache_dir=base / "measurements" if base is not None else None,
    )
    profile_dir = base / "profiles" if base is not None else profiles.DEFAULT_DIR
    profiles.set_cache_dir(profile_dir if engine.cache_enabled else None)
    _default_engine = engine
    return engine


def reset_default_engine() -> None:
    """Drop the process-wide engine and restore the default profile
    directory (tests)."""
    global _default_engine
    _default_engine = None
    profiles.set_cache_dir(profiles.DEFAULT_DIR)
