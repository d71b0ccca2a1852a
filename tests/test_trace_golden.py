"""Golden-trace regression suite.

One PolyBench workload (trisolv) on WAVM crossed with the four wasm
bounds-checking strategies and two thread counts, each run traced and
checked three ways:

* structural invariants (every mmap_lock acquire has a release, no
  negative wait/hold, exclusive VMA mutations only under the writer);
* strategy-specific lock-discipline assertions (uffd's grow path never
  touches the kernel, mprotect's takes the writer every iteration);
* the integer-only :func:`golden_counters` projection against the
  committed golden file.

WAVM has no helper threads or GC, so two 16-thread V8 cells (gemm under
mprotect and uffd) pin the scheduler paths only V8 reaches: GC sleeps,
helper-thread sleeps and migrations, and workers preempted by helpers
that share their core.

The goldens pin event *counts*, not simulated durations, so cost-table
recalibrations that only move timestamps do not churn them.  After an
intentional behaviour change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_trace_golden.py --regen-golden
"""

import json
from pathlib import Path

import pytest

from repro.core.harness import run_benchmark
from repro.trace import summary as trace_summary
from repro.trace.events import (
    SCHED_SWITCH,
    STRATEGY_GROW_BEGIN,
    STRATEGY_GROW_END,
)
from repro.trace.tracer import tracing

pytestmark = pytest.mark.trace

GOLDEN_DIR = Path(__file__).parent / "golden_traces"

WORKLOAD, RUNTIME, ISA = "trisolv", "wavm", "x86_64"
ITERATIONS, WARMUP = 2, 1
GRID = [
    (strategy, threads)
    for strategy in ("clamp", "trap", "mprotect", "uffd")
    for threads in (1, 4)
]


V8_WORKLOAD, V8_THREADS = "gemm", 16
V8_STRATEGIES = ("mprotect", "uffd")


def _traced_run(strategy, threads, workload=WORKLOAD, runtime=RUNTIME):
    with tracing() as sink:
        run_benchmark(
            workload, runtime, strategy, ISA,
            threads=threads, size="mini",
            iterations=ITERATIONS, warmup=WARMUP,
        )
    return sink.events


def _check_golden(events, golden_path, regen_golden):
    """Assert the invariants hold and the counters match the golden file."""
    assert trace_summary.check_invariants(events) == []
    summary = trace_summary.summarize(events)
    counters = trace_summary.golden_counters(summary)
    if regen_golden:
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(counters, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {golden_path.name}")
    expected = json.loads(golden_path.read_text())
    assert counters == expected, (
        f"trace counters diverged from {golden_path.name}; if the change "
        "is intentional, rerun with --regen-golden"
    )
    return counters


def _window_lock_modes(summary):
    """Mode tables for mmap_lock entries inside the timed window."""
    merged = {}
    for name, modes in summary["window"]["locks"].items():
        if name.startswith("mmap_lock"):
            for mode, entry in modes.items():
                bucket = merged.setdefault(
                    mode, {"acquisitions": 0, "contended": 0}
                )
                bucket["acquisitions"] += entry["acquisitions"]
                bucket["contended"] += entry["contended"]
    return merged


@pytest.mark.parametrize("strategy,threads", GRID)
def test_golden_trace(strategy, threads, regen_golden):
    events = _traced_run(strategy, threads)
    golden_path = GOLDEN_DIR / f"{WORKLOAD}-{RUNTIME}-{strategy}-t{threads}.json"
    _check_golden(events, golden_path, regen_golden)


@pytest.mark.parametrize("strategy", V8_STRATEGIES)
def test_v8_golden_trace(strategy, regen_golden):
    events = _traced_run(strategy, V8_THREADS, V8_WORKLOAD, "v8")
    golden_path = GOLDEN_DIR / f"{V8_WORKLOAD}-v8-{strategy}-t{V8_THREADS}.json"
    counters = _check_golden(events, golden_path, regen_golden)
    # The cell must exercise what WAVM cannot: GC sleeps, helpers that
    # migrate between cores, and workers switched out for a helper.
    assert counters["counts"]["gc.pause"] > 0
    switches = [event for event in events if event.name == SCHED_SWITCH]
    helper_cores = {}
    for event in switches:
        if event.args["next"].startswith("helper"):
            helper_cores.setdefault(event.args["next"], set()).add(event.core)
    assert helper_cores and all(len(cores) > 1 for cores in helper_cores.values())
    assert any(
        event.args["prev"].startswith("worker") and event.args["next"].startswith("helper")
        for event in switches
    )


@pytest.mark.parametrize("strategy,threads", GRID)
def test_lock_discipline(strategy, threads):
    events = _traced_run(strategy, threads)
    summary = trace_summary.summarize(events)
    modes = _window_lock_modes(summary)
    write_acq = modes.get("write", {}).get("acquisitions", 0)
    if strategy == "mprotect":
        # Grow and reset both take the writer, every timed iteration.
        assert write_acq >= threads * ITERATIONS
    else:
        # clamp/trap reset via madvise (read lock); uffd grows with an
        # atomic store — the timed window never sees the global writer.
        assert write_acq == 0


def test_mprotect_contends_at_four_threads():
    summary = trace_summary.summarize(_traced_run("mprotect", 4))
    assert trace_summary.contention_events(summary) > 0


def test_uffd_never_contends_in_timed_window():
    summary = trace_summary.summarize(_traced_run("uffd", 4))
    assert trace_summary.contention_events(summary) == 0
    modes = _window_lock_modes(summary)
    for entry in modes.values():
        assert entry["contended"] == 0


def test_uffd_grow_is_kernel_free():
    """Inside every uffd grow span, the growing thread makes no syscalls."""
    events = _traced_run("uffd", 4)
    open_since = {}  # thread -> seq of grow begin
    checked = 0
    for event in events:
        if event.name == STRATEGY_GROW_BEGIN:
            assert event.args["mechanism"] == "atomic"
            open_since[event.thread] = event.seq
        elif event.name == STRATEGY_GROW_END:
            open_since.pop(event.thread, None)
            checked += 1
        elif event.thread in open_since and event.name.startswith("syscall."):
            pytest.fail(
                f"{event.thread} made {event.name} inside an atomic grow "
                f"(seq {event.seq})"
            )
    assert checked >= 4 * ITERATIONS
