"""The unified sweep facade: one spec type, two entry points.

Every figure experiment, diffcheck and the repo benchmark describe and
run their measurement grids through this module:

* :class:`SweepSpec` — the grid description (workloads × runtimes ×
  strategies × ISAs × thread counts, plus size/iterations/warmup).
* :func:`run` — execute the grid, return flat row dicts (CSV-ready,
  schema in :data:`ROW_SCHEMA`).
* :func:`measure` — execute one or more grids as a single engine run,
  return a :class:`SweepMeasurements` wrapping the full
  :class:`~repro.core.harness.RunMeasurement` objects, looked up per
  cell with :meth:`SweepMeasurements.cell`.  Each figure experiment
  makes exactly one such call over its whole grid, so ``--jobs``
  workers share one pool of cells instead of waiting at a barrier per
  configuration.

Both entry points share the measurement engine (``--jobs`` fan-out +
content-addressed cache; see :mod:`repro.core.engine`).  Bounds-check
elimination is a field of each spec (``bce``), not process state, so
BCE-on and BCE-off grids can share one call.  Invalid combinations (a
runtime without the requested ISA backend or strategy, thread counts
beyond the machine; the one rule is
:func:`repro.core.harness.cell_problem`) are skipped by default — pass
``strict=True`` to raise instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import (
    MeasurementEngine,
    MeasurementRequest,
    MeasurementResult,
    default_engine,
)
from repro.core.harness import RunMeasurement, cell_problem
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
    #: Whether the compiler runs its bounds-check elimination passes.
    bce: bool = True

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

        ``scenario`` and ``bce`` are omitted at their defaults: every
        spec serialised before those fields existed implicitly meant
        "compute" with BCE on, and the omission keeps their canonical
        JSON — and hence every already-computed :meth:`digest` —
        byte-identical.
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
        if not self.bce:
            raw["bce"] = False
        return raw

    def canonical_json(self) -> str:
        """Byte-stable JSON text (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 over the canonical JSON: the grid's identity."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def _cells(self) -> Iterator[tuple]:
        """Every (runtime, strategy, isa, threads) cell, valid or not."""
        for isa, runtime, strategy, threads in itertools.product(
            self.isas, self.runtimes, self.strategies, self.threads
        ):
            yield runtime, strategy, isa, threads

    def configurations(self) -> Iterator[tuple]:
        """Valid (runtime, strategy, isa, threads) combinations."""
        for cell in self._cells():
            if cell_problem(*cell) is None:
                yield cell

    def requests(self) -> List[MeasurementRequest]:
        """The full grid, workloads outermost.

        Workload-major order keeps every configuration of one module
        adjacent, so the engine's profile/compile caches are warmed
        once per workload instead of being cycled through the whole
        workload set per configuration.
        """
        cells = list(self.configurations())
        return [
            MeasurementRequest(
                workload, runtime, strategy, isa,
                threads=threads, size=self.size, iterations=self.iterations,
                warmup=self.warmup, bce=self.bce,
            )
            for workload in self.workloads
            if _workload_in_scenario(workload, self.scenario)
            for runtime, strategy, isa, threads in cells
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
        for cell in self._cells():
            problem = cell_problem(*cell)
            if problem is not None:
                raise ValueError(problem)


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


def row_from(result: MeasurementResult) -> Dict[str, object]:
    return {name: extract(result) for name, extract in ROW_SCHEMA.items()}


@dataclass
class SweepMeasurements:
    """The result of :func:`measure`: requests paired with results."""

    requests: List[MeasurementRequest]
    results: List[MeasurementResult]

    @property
    def measurements(self) -> List[RunMeasurement]:
        return [result.measurement for result in self.results]

    def rows(self) -> List[Dict[str, object]]:
        return [row_from(result) for result in self.results]

    @cached_property
    def _by_cell(self) -> Dict[tuple, Tuple[MeasurementRequest, MeasurementResult]]:
        index: Dict[tuple, Tuple[MeasurementRequest, MeasurementResult]] = {}
        for r, result in zip(self.requests, self.results):
            cell = (r.workload, r.runtime, r.strategy, r.isa, r.threads, r.bce)
            if index.setdefault(cell, (r, result))[0] != r:
                raise ValueError(
                    f"{r.label()} was measured at two sizes or iteration "
                    "counts; cell() cannot tell them apart"
                )
        return index

    def cell(
        self,
        workload: str,
        runtime: str,
        strategy: str,
        isa: str,
        threads: int = 1,
        bce: bool = True,
    ) -> RunMeasurement:
        """The measurement of one cell of the measured grids.

        A cell whose measurement failed (results taken from a
        :class:`~repro.core.engine.SweepFailure`) raises, naming the
        cell and its error.
        """
        result = self._by_cell[workload, runtime, strategy, isa, threads, bce][1]
        if result.error is not None:
            raise RuntimeError(f"failed cell {result.error.label()}")
        return result.measurement


def _execute_specs(
    specs: Sequence[SweepSpec],
    engine: Optional[MeasurementEngine],
    strict: bool,
) -> SweepMeasurements:
    if strict:
        for spec in specs:
            spec.validate()
    engine = engine if engine is not None else default_engine()
    requests = [request for spec in specs for request in spec.requests()]
    if TRACE.enabled:
        TRACE.emit(0.0, SWEEP_GRID, requests=len(requests))
    results = engine.run(requests)
    return SweepMeasurements(requests=requests, results=results)


def run(
    spec: SweepSpec,
    *,
    engine: Optional[MeasurementEngine] = None,
    strict: bool = False,
) -> List[Dict[str, object]]:
    """Run every valid configuration × workload; returns result rows."""
    return _execute_specs((spec,), engine, strict).rows()


def measure(
    *specs: SweepSpec,
    engine: Optional[MeasurementEngine] = None,
    strict: bool = False,
    verbose: bool = False,
) -> SweepMeasurements:
    """Run the grids as one engine run; keep the full measurements.

    The requests of every spec, in spec order, form one grid: cells
    shared between specs are measured once, and ``--jobs`` workers
    draw from the whole grid.
    """
    swept = _execute_specs(specs, engine, strict)
    if verbose:
        for request, result in zip(swept.requests, swept.results):
            origin = "cache" if result.cache_hit else f"{result.elapsed:.1f}s"
            print(
                f"    {request.label()}: "
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
