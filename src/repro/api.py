"""The unified sweep facade: one spec type, two entry points.

Every figure experiment, diffcheck and the repo benchmark describe and
run their measurement grids through this module:

* :class:`SweepSpec` — the grid description (workloads × runtimes ×
  strategies × ISAs × thread counts, plus size/iterations/warmup).
* :func:`run` — execute the grid, return flat row dicts (CSV-ready,
  schema in :data:`ROW_SCHEMA`).
* :func:`measure` — execute the grid, return a
  :class:`SweepMeasurements` wrapping the full
  :class:`~repro.core.harness.RunMeasurement` objects with grouping
  helpers (``per_workload``, ``medians``) for the figure experiments.

Both entry points share the measurement engine (``--jobs`` fan-out +
content-addressed cache; see :mod:`repro.core.engine`).  Invalid
combinations (a runtime without the requested ISA backend or strategy,
thread counts beyond the machine) are skipped by default — pass
``strict=True`` to raise instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.engine import (
    MeasurementEngine,
    MeasurementRequest,
    MeasurementResult,
    default_engine,
)
from repro.core.harness import RunMeasurement
from repro.cpu.machine import MACHINE_SPECS
from repro.isa import isa_named
from repro.runtime.strategies import STRATEGIES
from repro.runtimes import runtime_named
from repro.trace.events import SWEEP_GRID
from repro.trace.tracer import TRACE
from repro.workloads import WORKLOADS

__all__ = [
    "FIELDS",
    "ROW_SCHEMA",
    "SweepMeasurements",
    "SweepSpec",
    "measure",
    "row_from",
    "run",
    "to_csv",
]

#: Row schema: column name → extractor over a MeasurementResult.  CSV
#: columns derive from this single table, so adding a column here is
#: the whole change.
ROW_SCHEMA: Dict[str, Callable[[MeasurementResult], object]] = {
    "workload": lambda r: r.measurement.workload,
    "runtime": lambda r: r.measurement.runtime,
    "strategy": lambda r: r.measurement.strategy,
    "isa": lambda r: r.measurement.isa,
    "threads": lambda r: r.measurement.threads,
    "median_ms": lambda r: r.measurement.median_iteration * 1e3,
    "utilisation_percent": lambda r: r.measurement.utilisation.utilisation_percent,
    "ctx_per_sec": lambda r: r.measurement.utilisation.context_switches_per_sec,
    "mem_avg_mib": lambda r: r.measurement.mem_avg_bytes / (1 << 20),
    "mmap_write_wait_ms": lambda r: r.measurement.mmap_write_wait * 1e3,
    "checks_emitted": lambda r: r.measurement.bounds_checks.get("emitted", 0),
    "checks_elided": lambda r: r.measurement.bounds_checks.get("elided", 0),
    "syscall_calls": lambda r: sum(
        int(entry["calls"]) for entry in r.measurement.syscall_stats.values()
    ),
    "syscall_ms": lambda r: r.measurement.syscall_seconds * 1e3,
    "cache_hit": lambda r: int(r.cache_hit),
    "elapsed_s": lambda r: round(r.elapsed, 6),
}

#: The columns a sweep row always carries (derived, not hand-kept).
FIELDS = list(ROW_SCHEMA)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of benchmark configurations to run.

    Sequence fields are normalised to tuples on construction, so two
    equal grids are ``==``, hash alike, and serialise to byte-identical
    canonical JSON regardless of whether the caller passed lists or
    tuples — which is what lets :meth:`digest` identify a grid.
    """

    workloads: Sequence[str]
    runtimes: Sequence[str] = ("wavm",)
    strategies: Sequence[str] = ("mprotect",)
    isas: Sequence[str] = ("x86_64",)
    threads: Sequence[int] = (1,)
    size: str = "small"
    iterations: int = 3
    warmup: int = 1
    #: Scenario axis: "compute" (PolyBench / SPEC proxies — cost is
    #: userspace work) or "wasi" (syscall-bound workloads crossing the
    #: simulated kernel).  Declares which family the grid means to
    #: measure: mismatched workloads are skipped (or rejected under
    #: ``strict``/``validate()``), like any other invalid combination.
    scenario: str = "compute"

    _SEQUENCE_FIELDS = ("workloads", "runtimes", "strategies", "isas", "threads")

    def __post_init__(self) -> None:
        # Frozen dataclass: normalise caller-supplied lists in place.
        for name in self._SEQUENCE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, str):
                raise TypeError(
                    f"SweepSpec.{name} wants a sequence of values, "
                    f"got the bare string {value!r}"
                )
            converted = (
                tuple(int(v) for v in value)
                if name == "threads"
                else tuple(str(v) for v in value)
            )
            object.__setattr__(self, name, converted)
        if self.scenario not in _SCENARIO_SUITES:
            raise ValueError(
                f"unknown scenario {self.scenario!r} "
                f"(choose from {sorted(_SCENARIO_SUITES)})"
            )

    # -- canonical (de)serialisation ----------------------------------

    def to_json(self) -> Dict[str, object]:
        """Plain-data form: lists for sequences, scalars otherwise.

        ``scenario`` is omitted at its default: every spec serialised
        before the axis existed implicitly meant "compute", and the
        omission keeps their canonical JSON — and hence every
        already-computed :meth:`digest` — byte-identical.
        """
        raw: Dict[str, object] = {
            "workloads": list(self.workloads),
            "runtimes": list(self.runtimes),
            "strategies": list(self.strategies),
            "isas": list(self.isas),
            "threads": list(self.threads),
            "size": self.size,
            "iterations": self.iterations,
            "warmup": self.warmup,
        }
        if self.scenario != "compute":
            raw["scenario"] = self.scenario
        return raw

    def canonical_json(self) -> str:
        """Byte-stable JSON text (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 over the canonical JSON: the grid's identity."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def configurations(self) -> Iterator[tuple]:
        """Valid (runtime, strategy, isa, threads) combinations."""
        for isa in self.isas:
            cores = MACHINE_SPECS[isa].cores
            for runtime in self.runtimes:
                model = runtime_named(runtime)
                if not model.supports(isa):
                    continue
                for strategy in self.strategies:
                    if strategy not in model.strategies:
                        continue
                    if not _isa_allows(isa, strategy):
                        continue
                    for threads in self.threads:
                        if threads <= cores:
                            yield (runtime, strategy, isa, threads)

    def requests(self) -> List[MeasurementRequest]:
        """The full grid, workloads outermost.

        Workload-major order keeps every configuration of one module
        adjacent, so the engine's profile/compile caches are warmed
        once per workload instead of being cycled through the whole
        workload set per configuration.
        """
        return [
            MeasurementRequest(
                workload, runtime, strategy, isa,
                threads=threads, size=self.size, iterations=self.iterations,
                warmup=self.warmup,
            )
            for workload in self.workloads
            if _workload_in_scenario(workload, self.scenario)
            for runtime, strategy, isa, threads in self.configurations()
        ]

    def validate(self) -> None:
        """Raise ValueError for any combination the grid would skip."""
        for workload in self.workloads:
            if not _workload_in_scenario(workload, self.scenario):
                suite = WORKLOADS[workload].suite
                raise ValueError(
                    f"workload {workload} belongs to the {suite!r} suite, "
                    f"outside the {self.scenario!r} scenario "
                    f"(families: {', '.join(_SCENARIO_SUITES[self.scenario])})"
                )
        for isa in self.isas:
            cores = MACHINE_SPECS[isa].cores
            for runtime in self.runtimes:
                model = runtime_named(runtime)
                if not model.supports(isa):
                    raise ValueError(
                        f"runtime {runtime} has no {isa} backend (§3.4)"
                    )
                for strategy in self.strategies:
                    if strategy not in model.strategies:
                        raise ValueError(
                            f"runtime {runtime} does not support "
                            f"strategy {strategy}"
                        )
                    if not _isa_allows(isa, strategy):
                        raise ValueError(
                            f"strategy {strategy} requires a hardware "
                            f"memory-tagging extension (Arm MTE); ISA {isa} "
                            "has none — request it on armv8 instead"
                        )
            for threads in self.threads:
                if threads > cores:
                    raise ValueError(
                        f"{threads} workers exceed the {cores}-core machine"
                    )


#: Scenario → the workload suites it measures.
_SCENARIO_SUITES: Dict[str, tuple] = {
    "compute": ("polybench", "spec"),
    "wasi": ("wasi",),
}


def _workload_in_scenario(workload: str, scenario: str) -> bool:
    """Whether a workload belongs to the spec's declared scenario.

    Unknown workload names pass through: the harness's
    ``workload_named`` failure carries the precise message, and
    skipping them here would silently shrink a typo'd grid to nothing.
    """
    entry = WORKLOADS.get(workload)
    if entry is None:
        return True
    return entry.suite in _SCENARIO_SUITES[scenario]


def _isa_allows(isa: str, strategy: str) -> bool:
    """Spec-time mirror of the harness's hardware gating.

    Rejecting (skipping) mte-on-x86_64 here means a strict sweep fails
    at submission with a clear message instead of deep inside a worker
    process.  Unknown strategy names fall through — the runtime-support
    check already handles those.
    """
    model = STRATEGIES.get(strategy)
    if model is None:
        return True
    return isa_named(isa).supports_strategy(model)


def row_from(result: MeasurementResult) -> Dict[str, object]:
    return {name: extract(result) for name, extract in ROW_SCHEMA.items()}


@dataclass
class SweepMeasurements:
    """The result of :func:`measure`: requests paired with results."""

    spec: SweepSpec
    requests: List[MeasurementRequest]
    results: List[MeasurementResult]

    @property
    def measurements(self) -> List[RunMeasurement]:
        return [result.measurement for result in self.results]

    def rows(self) -> List[Dict[str, object]]:
        return [row_from(result) for result in self.results]

    def by_workload(self) -> Dict[str, List[RunMeasurement]]:
        grouped: Dict[str, List[RunMeasurement]] = {}
        for result in self.results:
            grouped.setdefault(result.measurement.workload, []).append(
                result.measurement
            )
        return grouped

    def per_workload(self) -> Dict[str, RunMeasurement]:
        """Workload → its single measurement (single-config grids)."""
        out: Dict[str, RunMeasurement] = {}
        for workload, group in self.by_workload().items():
            if len(group) != 1:
                raise ValueError(
                    f"workload {workload} has {len(group)} measurements; "
                    "per_workload() needs a single-configuration spec"
                )
            out[workload] = group[0]
        return out

    def medians(self) -> Dict[str, float]:
        """Workload → median iteration seconds (single-config grids)."""
        return {
            name: m.median_iteration for name, m in self.per_workload().items()
        }


def _execute_spec(
    spec: SweepSpec,
    engine: Optional[MeasurementEngine],
    progress,
    strict: bool,
) -> SweepMeasurements:
    if strict:
        spec.validate()
    engine = engine if engine is not None else default_engine()
    requests = spec.requests()
    if TRACE.enabled:
        TRACE.emit(0.0, SWEEP_GRID, requests=len(requests))
    results = engine.run(requests, progress=progress)
    return SweepMeasurements(spec=spec, requests=requests, results=results)


def run(
    spec: SweepSpec,
    *,
    engine: Optional[MeasurementEngine] = None,
    progress: Optional[Callable[[str], None]] = None,
    strict: bool = False,
) -> List[Dict[str, object]]:
    """Run every valid configuration × workload; returns result rows."""
    return _execute_spec(spec, engine, progress, strict).rows()


def measure(
    spec: SweepSpec,
    *,
    engine: Optional[MeasurementEngine] = None,
    progress: Optional[Callable[[str], None]] = None,
    strict: bool = False,
    verbose: bool = False,
) -> SweepMeasurements:
    """Run the grid and keep the full measurement objects."""
    swept = _execute_spec(spec, engine, progress, strict)
    if verbose:
        for request, result in zip(swept.requests, swept.results):
            origin = "cache" if result.cache_hit else f"{result.elapsed:.1f}s"
            print(
                f"    {request.workload:16s} {request.runtime}/"
                f"{request.strategy}/{request.isa}/t{request.threads}: "
                f"{result.measurement.median_iteration * 1e3:.3f} ms "
                f"[{origin}]"
            )
    return swept


def to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Render sweep rows as CSV text.

    Columns are the schema-derived :data:`FIELDS` plus, appended in
    sorted order, any extra keys present in the rows — nothing a row
    carries is silently dropped.
    """
    extras = sorted(
        {key for row in rows for key in row} - set(FIELDS)
    )
    fieldnames = FIELDS + extras
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({key: row.get(key, "") for key in fieldnames})
    return buffer.getvalue()
