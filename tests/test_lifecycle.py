"""Unit tests for the instance lifecycle and iteration plans."""

import pytest

from repro.core.lifecycle import (
    FAULT_PHASE_FRACTION,
    InstanceLifecycle,
    IterationPlan,
    make_plan,
)
from repro.cpu import Machine, MachineSpec, SimThread
from repro.oskernel import Kernel
from repro.oskernel.layout import GUARD_REGION_BYTES, PAGE_SIZE
from repro.runtime import strategy_named
from repro.sim import Engine


def system(cores=2):
    engine = Engine()
    machine = Machine(
        engine,
        MachineSpec("t", "x86_64", cores, 1e9, 1 << 30, switch_cost=0.0),
    )
    kernel = Kernel(engine, machine)
    return engine, machine, kernel


def run_lifecycle(plan, iterations=2, cores=2):
    engine, machine, kernel = system(cores)
    proc = kernel.create_process("p")
    proc.cpumask.add(0)
    thread = SimThread(engine, "w", machine.core(0), tgid=proc.tgid)
    lifecycle = InstanceLifecycle(kernel, proc, thread, plan)
    timings = []

    def body():
        yield from thread.startup()
        yield from lifecycle.setup()
        for _ in range(iterations):
            timed = yield from lifecycle.run_iteration()
            timings.append(timed)
        thread.finish()

    engine.run_process(body())
    return proc, timings


def plan_for(strategy_name, compute=1e-3, memory=1 << 20, native=False, **kw):
    return make_plan(
        cycles=compute * 1e9,
        frequency_hz=1e9,
        strategy=strategy_named(strategy_name),
        time_scale=1.0,
        memory_bytes=memory,
        native=native,
        **kw,
    )


class TestMakePlan:
    def test_compute_scaling(self):
        plan = make_plan(1e6, 1e9, strategy_named("none"), 100.0, 1 << 20)
        assert plan.compute_seconds == pytest.approx(0.1)

    def test_memory_clamped_to_guard_region(self):
        plan = make_plan(1e6, 1e9, strategy_named("none"), 1.0, 1 << 60)
        assert plan.memory_bytes == GUARD_REGION_BYTES

    def test_touched_pages_cover_footprint(self):
        plan = plan_for("none", memory=10 * PAGE_SIZE)
        assert plan.touched_pages >= 10


class TestStrategies:
    def test_mprotect_calls_per_iteration(self):
        proc, _ = run_lifecycle(plan_for("mprotect"), iterations=3)
        # Setup reserve (mmap) + grow/reset mprotect per iteration.
        assert proc.stats["mprotect_calls"] == 6
        assert proc.stats["madvise_calls"] == 0

    def test_none_uses_madvise_reset(self):
        proc, _ = run_lifecycle(plan_for("none"), iterations=3)
        assert proc.stats["madvise_calls"] == 3
        # One mprotect at setup (map reservation RW), none per iteration.
        assert proc.stats["mprotect_calls"] == 1

    def test_uffd_registers_and_faults_via_sigbus(self):
        proc, _ = run_lifecycle(plan_for("uffd"), iterations=2)
        assert proc.stats["uffd_faults"] > 0
        assert proc.stats["anon_faults"] == 0

    def test_every_iteration_refaults(self):
        proc, _ = run_lifecycle(plan_for("none", memory=2 << 20), iterations=3)
        # 2 MiB footprint -> one THP fault per iteration.
        assert proc.stats["anon_faults"] == 3
        assert proc.stats["pages_zapped"] == 3 * 512

    def test_native_maps_per_iteration(self):
        proc, _ = run_lifecycle(plan_for("none", native=True), iterations=3)
        assert proc.stats["mmap_calls"] == 3
        assert proc.stats["munmap_calls"] == 3

    def test_timed_exceeds_compute_by_fault_overhead_only(self):
        plan = plan_for("none", compute=5e-3, memory=1 << 20)
        _, timings = run_lifecycle(plan, iterations=2)
        for timed in timings:
            assert plan.compute_seconds <= timed < plan.compute_seconds * 1.2


class TestGcPacing:
    def test_gc_pauses_extend_timed_region(self):
        base = plan_for("none", compute=10e-3)
        with_gc = make_plan(
            cycles=10e6, frequency_hz=1e9, strategy=strategy_named("none"),
            time_scale=1.0, memory_bytes=1 << 20,
            gc_interval=1e-3, gc_duration=0.5e-3,
        )
        _, plain = run_lifecycle(base, iterations=1)
        _, paced = run_lifecycle(with_gc, iterations=1)
        # ~10 pauses of 0.5ms inside a 10ms region.
        assert paced[0] > plain[0] + 8 * 0.5e-3

    def test_gc_debt_carries_across_iterations(self):
        plan = make_plan(
            cycles=0.4e6, frequency_hz=1e9, strategy=strategy_named("none"),
            time_scale=1.0, memory_bytes=1 << 20,
            gc_interval=1e-3, gc_duration=0.5e-3,
        )
        _, timings = run_lifecycle(plan, iterations=6)
        # 0.4ms compute per iteration, 1ms interval: a pause roughly
        # every third iteration — so not every timing is equal.
        assert len(set(round(t, 7) for t in timings)) > 1

    def test_paced_compute_parks_the_worker_once(self):
        """GC-paced compute runs as callbacks: however many pauses a
        chunk holds, its process parks once and resumes once."""
        plan = make_plan(
            cycles=10e6, frequency_hz=1e9, strategy=strategy_named("none"),
            time_scale=1.0, memory_bytes=1 << 20,
            gc_interval=1e-3, gc_duration=0.5e-3,
        )
        engine, machine, kernel = system()
        proc = kernel.create_process("p")
        thread = SimThread(engine, "w", machine.core(0), tgid=proc.tgid)
        lifecycle = InstanceLifecycle(kernel, proc, thread, plan)
        parks = []

        def body():
            yield from thread.startup()
            chunk = lifecycle._run_compute(plan.compute_seconds)
            for yielded in chunk:
                parks.append(engine.now)
                yield yielded
            thread.finish()

        engine.run_process(body())
        assert parks == [0.0]
        # Ten steps of 1 ms, each followed by a 0.5 ms pause.
        assert engine.now == pytest.approx(15e-3)
        assert machine.core(0).acct.user == pytest.approx(10e-3)


class TestFaultSpread:
    def test_faults_confined_to_first_phase(self):
        """The fault batches replay across the first 40% of compute."""
        assert 0.0 < FAULT_PHASE_FRACTION < 1.0
        plan = plan_for("none", compute=2e-3, memory=64 << 20)
        proc, timings = run_lifecycle(plan, iterations=1)
        assert proc.stats["pages_populated"] == plan.touched_pages
