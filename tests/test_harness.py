"""Tests for the benchmark harness and instance lifecycle.

These assert the *system-level* shapes the paper reports: strategy
parity at one thread, mmap_lock collapse for mprotect at 16 threads,
V8's helper/GC behaviour, native process isolation, and the
THP-granularity memory accounting.
"""

import dataclasses
import gc
import signal

import pytest

from repro.core.engine import MeasurementEngine, MeasurementRequest, SweepFailure
from repro.core.harness import RunMeasurement, run_benchmark
from repro.core.lifecycle import InstanceLifecycle
from repro.sim.engine import PARK, SimError


def bench(workload="trisolv", runtime="wavm", strategy="none", threads=1,
          iterations=3, isa="x86_64"):
    return run_benchmark(
        workload, runtime, strategy, isa,
        threads=threads, size="mini", iterations=iterations,
    )


class TestBasicOperation:
    def test_returns_expected_iteration_count(self):
        m = bench(threads=2, iterations=4)
        assert len(m.iteration_seconds) == 8  # 2 workers x 4 timed

    def test_iteration_time_positive_and_sane(self):
        m = bench()
        assert 0 < m.median_iteration < 1.0

    def test_single_thread_saturates_one_core(self):
        m = bench()
        assert m.utilisation.utilisation_percent == pytest.approx(100.0, abs=3.0)

    def test_sixteen_threads_saturate_machine_with_none(self):
        m = bench(threads=16)
        assert m.utilisation.utilisation_percent > 1550.0

    def test_unsupported_combination_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            bench(runtime="wavm", isa="riscv64")
        with pytest.raises(ValueError, match="strategy"):
            bench(runtime="wasm3", strategy="clamp")
        with pytest.raises(ValueError, match="exceed"):
            run_benchmark("gemm", "v8", "none", "riscv64", threads=4, size="mini")

    def test_deterministic(self):
        a = bench(threads=4, iterations=3)
        b = bench(threads=4, iterations=3)
        assert a.iteration_seconds == b.iteration_seconds
        assert a.utilisation.utilisation_percent == b.utilisation.utilisation_percent


class TestStrategySystemEffects:
    def test_one_thread_strategy_parity(self):
        """§4.1: mprotect/uffd within a few points of none at 1 thread."""
        none = bench(strategy="none").median_iteration
        mprotect = bench(strategy="mprotect").median_iteration
        uffd = bench(strategy="uffd").median_iteration
        assert mprotect / none < 1.08
        assert uffd / none < 1.10

    def test_mprotect_collapses_at_16_threads(self):
        """§4.1.1: the headline contention result, on a short benchmark."""
        none = bench(strategy="none", threads=16)
        mprotect = bench(strategy="mprotect", threads=16)
        # Utilisation visibly below full saturation...
        assert mprotect.utilisation.utilisation_percent < 1450.0
        # ...driven by write-side mmap_lock waiting...
        assert mprotect.mmap_write_wait > 10 * none.mmap_write_wait
        # ...and slower measured iterations.
        assert mprotect.median_iteration > 1.05 * none.median_iteration

    def test_uffd_scales_like_none(self):
        """§4.2.1: uffd avoids the exclusive lock entirely."""
        none = bench(strategy="none", threads=16)
        uffd = bench(strategy="uffd", threads=16)
        assert uffd.utilisation.utilisation_percent > 1550.0
        assert uffd.median_iteration < 1.10 * none.median_iteration

    def test_mprotect_triggers_shootdowns(self):
        m = bench(strategy="mprotect", threads=4, iterations=3)
        assert m.kernel_stats["shootdowns"] > 0
        assert m.kernel_stats["mprotect_calls"] > 0

    def test_uffd_uses_uffd_faults(self):
        m = bench(strategy="uffd")
        assert m.kernel_stats["uffd_faults"] > 0
        m2 = bench(strategy="none")
        assert m2.kernel_stats["uffd_faults"] == 0
        assert m2.kernel_stats["anon_faults"] > 0


class TestV8Behaviour:
    def test_helper_threads_push_utilisation_above_one_core(self):
        m = bench(workload="gemm", runtime="v8", strategy="mprotect")
        assert m.utilisation.utilisation_percent > 110.0

    def test_v8_cannot_saturate_16_cores(self):
        v8 = bench(workload="gemm", runtime="v8", strategy="mprotect", threads=16)
        wavm = bench(workload="gemm", runtime="wavm", strategy="mprotect", threads=16)
        assert v8.utilisation.utilisation_percent < wavm.utilisation.utilisation_percent

    def test_v8_context_switch_blowup_at_16_threads(self):
        """Fig. 5b: an order of magnitude more switches."""
        v8 = bench(workload="gemm", runtime="v8", strategy="none", threads=16)
        wavm = bench(workload="gemm", runtime="wavm", strategy="none", threads=16)
        assert (
            v8.utilisation.context_switches_per_sec
            > 8 * wavm.utilisation.context_switches_per_sec
        )


class TestNativeBaseline:
    def test_native_runs_and_reports(self):
        m = bench(runtime="native-clang", strategy="none", threads=4)
        assert m.kernel_stats["munmap_calls"] > 0  # per-iteration teardown
        assert m.median_iteration > 0

    def test_native_scales_cleanly(self):
        """Per-process mmap_locks: no cross-worker serialisation."""
        one = bench(runtime="native-clang", strategy="none", threads=1)
        sixteen = bench(runtime="native-clang", strategy="none", threads=16)
        assert sixteen.median_iteration < 1.05 * one.median_iteration
        assert sixteen.utilisation.utilisation_percent > 1550.0


class TestMemoryAccounting:
    def test_thp_granularity_differs_across_isas(self):
        """Fig. 6: same workload appears bigger on x86-64 than Armv8."""
        x86 = bench(workload="gemm", threads=4, isa="x86_64")
        arm = bench(workload="gemm", threads=4, isa="armv8")
        assert x86.mem_avg_bytes > arm.mem_avg_bytes

    def test_memory_scales_with_workers(self):
        one = bench(workload="gemm", threads=1, isa="armv8")
        four = bench(workload="gemm", threads=4, isa="armv8")
        assert four.mem_avg_bytes > 2 * one.mem_avg_bytes

    def test_spec_uses_more_memory_than_polybench(self):
        pbc = bench(workload="gemm", threads=1, isa="armv8")
        spec = bench(workload="505.mcf", threads=1, isa="armv8", iterations=2)
        assert spec.mem_avg_bytes > 5 * pbc.mem_avg_bytes


def alarm_after(seconds, message):
    """Fail with ``message`` if the test runs longer than ``seconds``."""

    def hung(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCrashedWorker:
    """A simulated worker that raises fails its request at once.

    The meminfo sampler keeps waking until the workers stop, so a crash
    the simulation swallowed would keep the run going forever; the alarm
    turns that into a failure.
    """

    BAD = MeasurementRequest(
        "trisolv", "wavm", "mprotect", "x86_64", threads=1, size="mini",
        iterations=2,
    )
    GOOD = dataclasses.replace(BAD, strategy="none")

    @pytest.fixture(autouse=True)
    def crash_under_mprotect(self, monkeypatch):
        run_iteration = InstanceLifecycle.run_iteration

        def crashing(lifecycle):
            if lifecycle.plan.strategy.name == "mprotect":
                raise ValueError("boom in worker")
            return run_iteration(lifecycle)

        monkeypatch.setattr(InstanceLifecycle, "run_iteration", crashing)
        yield from alarm_after(60, "the simulation hung on a crashed worker")

    def test_run_benchmark_raises_the_workers_exception(self):
        with pytest.raises(ValueError, match="boom in worker"):
            run_benchmark(**dataclasses.asdict(self.BAD))

    def test_sweep_fails_the_row_and_measures_the_rest(self, tmp_path):
        engine = MeasurementEngine(jobs=1, cache_dir=tmp_path)
        with pytest.raises(SweepFailure) as failure:
            engine.run([self.BAD, self.GOOD])
        errors = failure.value.errors
        assert [(e.request, e.kind) for e in errors] == [(self.BAD, "ValueError")]
        bad, good = failure.value.results
        assert bad.measurement is None
        assert good.error is None and good.measurement.median_iteration > 0


class TestLostWakeup:
    """A worker parked with no waker fails the run instead of hanging it.

    The meminfo sampler is the one process that keeps waking on its
    own, so when it finds nothing else queued while the workers have
    not stopped, it raises.  V8's helper threads sleep and wake until
    the workers stop, so the guard covers cells without helper threads:
    in a V8 cell it fires only once every helper has queued behind a
    core that a lost worker holds, and a worker lost off its core (a
    lock or gate wake that never comes) still hangs the run.
    """

    @pytest.fixture(autouse=True)
    def park_forever(self, monkeypatch):
        def parked(lifecycle):
            yield PARK  # nothing ever wakes it

        monkeypatch.setattr(InstanceLifecycle, "run_iteration", parked)
        yield from alarm_after(10, "the simulation hung on a lost wake-up")

    def test_run_benchmark_reports_the_lost_wakeup(self):
        with pytest.raises(SimError, match="lost wake-up"):
            run_benchmark(
                "trisolv", "wavm", "mprotect", "x86_64", threads=1,
                size="mini", iterations=2,
            )


class TestNoCycles:
    def test_cells_leave_nothing_for_the_cycle_collector(self):
        """A finished run is freed by reference counting alone: its
        processes, threads, work items and continuations included."""
        cells = [
            ("gemm", "wavm", "mprotect", "x86_64", 4),
            ("gemm", "v8", "uffd", "x86_64", 4),  # GC pauses and helpers
            ("atax", "native-clang", "none", "armv8", 2),
            ("trisolv", "wasm3", "trap", "x86_64", 1),
        ]
        for cell in cells:  # fill the profile and compile memos first
            bench(*cell[:3], threads=cell[4], isa=cell[3])
        gc.collect()
        gc.disable()
        try:
            for cell in cells:
                bench(*cell[:3], threads=cell[4], isa=cell[3])
            assert gc.collect() == 0
        finally:
            gc.enable()
