"""``repro.trace`` — event-level observability for the simulated stack.

The package has three layers:

* :mod:`repro.trace.events` / :mod:`repro.trace.tracer` — the record
  type, the process-local :data:`TRACE` singleton the instrumented
  modules guard on, and the sinks (list, JSONL);
* :mod:`repro.trace.summary` — aggregation of a trace into per-phase /
  per-lock / per-strategy counters, structural invariant checks, and
  *reconciliation* of trace-derived totals against a
  ``RunMeasurement`` (the second, independent accounting path through
  the stack);
* :mod:`repro.trace.chrome` — a ``chrome://tracing`` /
  `trace_event-format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`__
  exporter for visual inspection.

This ``__init__`` deliberately re-exports only the tracer layer:
``summary`` and ``chrome`` import simulation modules (which themselves
import the tracer), so they must be imported as submodules to keep the
dependency graph acyclic.
"""

from repro.trace.events import TraceEvent, event_from_json, event_to_json
from repro.trace.tracer import (
    TRACE,
    JsonlSink,
    ListSink,
    TraceError,
    Tracer,
    read_jsonl,
    tracing,
    write_jsonl,
)

__all__ = [
    "TRACE",
    "TraceEvent",
    "Tracer",
    "TraceError",
    "ListSink",
    "JsonlSink",
    "tracing",
    "read_jsonl",
    "write_jsonl",
    "event_to_json",
    "event_from_json",
]
