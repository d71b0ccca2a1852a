"""The process-local tracer and its pluggable sinks.

Design constraints (ISSUE 2 tentpole):

* **Off by default, ~free when off.**  Instrumented call sites across
  the stack are written as ``if TRACE.enabled: TRACE.emit(...)`` — a
  single attribute check on the module-level singleton when tracing is
  disabled, so sweep outputs are byte-identical to an uninstrumented
  build.
* **Observation only.**  Emitting an event never schedules simulation
  work, takes a lock, or perturbs RNG state; an enabled tracer produces
  the same measurements as a disabled one.
* **Pluggable sinks.**  A sink is anything with ``append(event)``:
  an unbounded list (tests, summaries) or a JSONL file (persist for
  ``trace summarize`` / ``chrome://tracing``).

The tracer is process-local, like the measurement engine's default
instance: worker processes of a parallel sweep have their own disabled
tracer, so ``--jobs N`` runs are unaffected by tracing in the parent.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.trace.events import TraceEvent, category_of, event_from_json, event_to_json


class TraceError(RuntimeError):
    """Raised for misuse of the tracing subsystem."""


class ListSink:
    """Unbounded in-memory sink; ``events`` is the list itself."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlSink:
    """Stream events to a JSON-lines file as they are emitted."""

    __slots__ = ("path", "_file", "count")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file = self.path.open("w", encoding="utf-8")
        self.count = 0

    def append(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event_to_json(event)) + "\n")
        self.count += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Sequence-stamping event dispatcher.

    ``enabled`` is the hot-path guard; ``emit`` assumes the caller
    checked it (calling emit on a stopped tracer is a no-op rather than
    an error, so guards and emits need not be atomic).
    """

    __slots__ = ("enabled", "sink", "_seq")

    def __init__(self) -> None:
        self.enabled = False
        self.sink = None
        self._seq = 0

    def start(self, sink) -> None:
        if self.enabled:
            raise TraceError("tracer already active; stop() it first")
        self.sink = sink
        self._seq = 0
        self.enabled = True

    def stop(self):
        """Disable tracing; returns the sink that was attached."""
        sink, self.sink = self.sink, None
        self.enabled = False
        return sink

    def emit(
        self,
        ts: float,
        name: str,
        cat: str = "",
        thread: str = "",
        core: int = -1,
        tgid: int = 0,
        **args,
    ) -> None:
        sink = self.sink
        if sink is None:
            return
        self._seq += 1
        sink.append(
            TraceEvent(
                seq=self._seq,
                ts=ts,
                name=name,
                cat=cat or category_of(name),
                thread=thread,
                core=core,
                tgid=tgid,
                args=args,
            )
        )


#: The process-local tracer every instrumented module guards on.
TRACE = Tracer()


@contextmanager
def tracing(sink=None) -> Iterator:
    """Enable tracing for a block; yields the sink (default: ListSink).

    ::

        with tracing() as sink:
            run_benchmark(...)
        summary = summarize(sink.events)
    """
    sink = sink if sink is not None else ListSink()
    TRACE.start(sink)
    try:
        yield sink
    finally:
        TRACE.stop()
        if isinstance(sink, JsonlSink):
            sink.close()


def write_jsonl(events: Iterable[TraceEvent], path: Union[str, Path]) -> int:
    """Persist events as JSONL; returns the number written."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event_to_json(event)) + "\n")
            count += 1
    return count


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL trace back into event records (blank lines skipped)."""
    events: List[TraceEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_json(json.loads(line)))
    return events
