"""Unit tests for the event-tracing layer: tracer, sinks, JSONL,
Chrome export, CLI — plus the headline acceptance checks (tracing off
changes nothing; mprotect contends on mmap_lock where uffd does not).
"""

import json

import pytest

from repro.core.engine import measurement_to_json
from repro.core.harness import run_benchmark
from repro.trace import chrome as trace_chrome
from repro.trace import summary as trace_summary
from repro.trace.cli import main as trace_main
from repro.trace.events import (
    LOCK_ACQUIRE,
    TraceEvent,
    category_of,
    event_from_json,
    event_to_json,
)
from repro.trace.tracer import (
    TRACE,
    JsonlSink,
    ListSink,
    TraceError,
    read_jsonl,
    tracing,
    write_jsonl,
)


def _run(strategy, threads, **kw):
    kw.setdefault("size", "mini")
    kw.setdefault("iterations", 2)
    kw.setdefault("warmup", 1)
    return run_benchmark("trisolv", "wavm", strategy, "x86_64",
                         threads=threads, **kw)


class TestTracer:
    def test_disabled_by_default(self):
        assert not TRACE.enabled
        TRACE.emit(1.0, "lock.acquire", lock="x")  # no-op, no error

    def test_start_stop_collects(self):
        sink = ListSink()
        TRACE.start(sink)
        try:
            assert TRACE.enabled
            TRACE.emit(0.5, LOCK_ACQUIRE, thread="t", lock="l",
                       mode="read", wait=0.0, contended=False)
        finally:
            assert TRACE.stop() is sink
        assert not TRACE.enabled
        [event] = sink.events
        assert event.name == LOCK_ACQUIRE
        assert event.ts == 0.5
        assert event.cat == category_of(LOCK_ACQUIRE) == "lock"
        assert event.args["lock"] == "l"

    def test_nested_start_raises(self):
        with tracing():
            with pytest.raises(TraceError):
                TRACE.start(ListSink())

    def test_seq_strictly_increasing(self):
        with tracing() as sink:
            for _ in range(5):
                TRACE.emit(0.0, "sim.spawn", thread="t")
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing() as sink:
            TRACE.emit(0.25, LOCK_ACQUIRE, thread="w0", core=3, tgid=7,
                       lock="mmap_lock.7", mode="write", wait=1e-6,
                       contended=True)
            TRACE.emit(0.5, "run.end", wall=0.5)
        write_jsonl(sink.events, str(path))
        back = read_jsonl(str(path))
        assert back == sink.events

    def test_event_json_omits_defaults(self):
        event = TraceEvent(seq=1, ts=0.0, name="run.end", cat="run")
        record = event_to_json(event)
        assert "thread" not in record and "core" not in record
        assert event_from_json(record) == event

    def test_jsonl_sink_streams(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with tracing(JsonlSink(str(path))) as sink:
            TRACE.emit(0.0, "sim.spawn", thread="a")
            TRACE.emit(1.0, "sim.exit", thread="a")
        assert sink.count == 2
        events = read_jsonl(str(path))
        assert [event.name for event in events] == ["sim.spawn", "sim.exit"]


class TestChrome:
    def test_structure(self):
        with tracing() as sink:
            _run("mprotect", 2)
        doc = trace_chrome.to_chrome(sink.events)
        assert doc["displayTimeUnit"] == "ms"
        records = doc["traceEvents"]
        phases = {record["ph"] for record in records}
        assert {"B", "E", "i", "M"} <= phases
        begins = sum(1 for r in records if r["ph"] == "B")
        ends = sum(1 for r in records if r["ph"] == "E")
        assert begins == ends > 0
        # B/E records drop the .begin/.end suffix and µs timestamps.
        spans = [r for r in records if r["ph"] in "BE"]
        assert all(not r["name"].endswith((".begin", ".end")) for r in spans)
        names = {r["args"]["name"] for r in records if r["ph"] == "M"}
        assert "worker0" in names and "worker1" in names

    def test_write_chrome(self, tmp_path):
        with tracing() as sink:
            TRACE.emit(0.0, "iter.begin", thread="w", tgid=1, index=0)
            TRACE.emit(1.0, "iter.end", thread="w", tgid=1, index=0)
        path = tmp_path / "c.json"
        trace_chrome.write_chrome(sink.events, str(path))
        doc = json.loads(path.read_text())
        timestamps = [r["ts"] for r in doc["traceEvents"] if r["ph"] == "E"]
        assert timestamps == [1e6]


class TestAcceptance:
    """The ISSUE's acceptance criteria, verified directly."""

    def test_tracing_disabled_output_identical(self):
        baseline = measurement_to_json(_run("mprotect", 2))
        with tracing():
            traced = measurement_to_json(_run("mprotect", 2))
        untraced = measurement_to_json(_run("mprotect", 2))
        # Identical whether traced or not — instrumentation is inert.
        assert json.dumps(baseline, sort_keys=True) == \
            json.dumps(traced, sort_keys=True) == \
            json.dumps(untraced, sort_keys=True)

    def test_mprotect_contends_where_uffd_does_not(self):
        with tracing() as sink:
            _run("mprotect", 4)
        mprotect_summary = trace_summary.summarize(sink.events)
        with tracing() as sink:
            _run("uffd", 4)
        uffd_summary = trace_summary.summarize(sink.events)
        assert trace_summary.contention_events(mprotect_summary) > 0
        assert trace_summary.contention_events(uffd_summary) == 0


class TestCli:
    def test_record_summarize_export(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        chrome_path = tmp_path / "c.json"
        rc = trace_main([
            "record", "--workload", "trisolv", "--runtime", "wavm",
            "--strategy", "mprotect", "--threads", "2", "--size", "mini",
            "--iterations", "2", "-o", str(trace_path),
            "--chrome", str(chrome_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mmap_lock" in out and "timed window" in out
        assert trace_path.exists() and chrome_path.exists()

        rc = trace_main(["summarize", str(trace_path), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert summary["window"]["context_switches"] >= 0

        export_path = tmp_path / "c2.json"
        rc = trace_main(["export", str(trace_path), "-o", str(export_path)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(export_path.read_text())
        assert doc["traceEvents"]

    def test_top_level_dispatch(self, tmp_path, capsys, monkeypatch):
        from repro.core.cli import main as top_main

        monkeypatch.chdir(tmp_path)
        rc = top_main([
            "trace", "record", "--workload", "trisolv", "--runtime", "wavm",
            "--strategy", "clamp", "--threads", "1", "--size", "mini",
            "--iterations", "1", "-o", "t.jsonl",
        ])
        assert rc == 0
        assert (tmp_path / "t.jsonl").exists()
        capsys.readouterr()

    def test_unknown_command_still_errors(self, capsys):
        from repro.core.cli import main as top_main

        assert top_main(["nonsense"]) == 2
        assert "trace" in capsys.readouterr().err
