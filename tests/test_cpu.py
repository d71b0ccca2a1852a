"""Tests for the multicore machine model."""

import pytest

from repro.cpu import Machine, MachineSpec, MACHINE_SPECS, SimThread
from repro.cpu.core import USER
from repro.sim import Engine, RWLock, SimError


def small_machine(cores=2, quantum=1.0, switch_cost=0.0):
    spec = MachineSpec(
        name="test",
        isa="x86_64",
        cores=cores,
        frequency_hz=1e9,
        memory_bytes=1 << 30,
        quantum=quantum,
        switch_cost=switch_cost,
    )
    engine = Engine()
    return engine, Machine(engine, spec)


class TestSingleThread:
    def test_exec_accounts_user_time(self):
        engine, machine = small_machine()
        thread = SimThread(engine, "t0", machine.core(0))

        def body():
            yield from thread.startup()
            yield from thread.run(5.0, "user")
            yield from thread.run(1.0, "sys")
            thread.finish()

        engine.run_process(body())
        assert machine.core(0).acct.user == pytest.approx(5.0)
        assert machine.core(0).acct.sys == pytest.approx(1.0)
        assert engine.now == pytest.approx(6.0)

    def test_nan_duration_exec_raises(self):
        engine, machine = small_machine()
        thread = SimThread(engine, "t0", machine.core(0))

        def body():
            yield from thread.startup()
            yield from thread.run(float("nan"))

        with pytest.raises(SimError, match="non-negative"):
            engine.run_process(body())

    def test_zero_duration_exec(self):
        engine, machine = small_machine()
        thread = SimThread(engine, "t0", machine.core(0))

        def body():
            yield from thread.startup()
            yield from thread.run(0.0)
            thread.finish()

        engine.run_process(body())
        assert machine.core(0).acct.busy == 0.0


class TestTwoThreadsOneCore:
    def test_round_robin_interleaving(self):
        engine, machine = small_machine(cores=1, quantum=1.0)
        core = machine.core(0)
        done = {}

        def body(name):
            thread = SimThread(engine, name, core)
            yield from thread.startup()
            yield from thread.run(3.0)
            done[name] = engine.now
            thread.finish()

        engine.process(body("a"))
        engine.process(body("b"))
        engine.run()
        # Total work is 6s on one core.
        assert engine.now == pytest.approx(6.0)
        assert core.acct.user == pytest.approx(6.0)
        # Interleaving: neither finishes before ~5s.
        assert min(done.values()) >= 5.0
        # Context switches happened (at least one per quantum handoff).
        assert core.context_switches >= 4

    def test_uncontended_thread_runs_whole_segment(self):
        engine, machine = small_machine(cores=1, quantum=1.0)
        core = machine.core(0)
        thread = SimThread(engine, "solo", core)

        def body():
            yield from thread.startup()
            yield from thread.run(10.0)
            thread.finish()

        engine.run_process(body())
        # No preemption: one install plus the switch to idle at exit.
        assert core.context_switches == 2
        assert engine.now == pytest.approx(10.0)

    def test_switch_cost_accounted_as_sys(self):
        engine, machine = small_machine(cores=1, quantum=1.0, switch_cost=0.1)
        core = machine.core(0)

        def body(name):
            thread = SimThread(engine, name, core)
            yield from thread.startup()
            yield from thread.run(2.0)
            thread.finish()

        engine.process(body("a"))
        engine.process(body("b"))
        engine.run()
        assert core.acct.sys > 0.0


class TestBlocking:
    def test_block_on_releases_core_to_other_thread(self):
        engine, machine = small_machine(cores=1, quantum=10.0)
        core = machine.core(0)
        lock = RWLock(engine)
        trace = []

        def locker():
            thread = SimThread(engine, "locker", core)
            yield from thread.startup()
            yield from thread.block_on(lock.acquire_write())
            yield from thread.run(1.0)
            # Hold the lock while sleeping so `waiter` must block.
            yield from thread.sleep(5.0)
            lock.release_write()
            trace.append(("locker-release", engine.now))
            thread.finish()

        def waiter():
            thread = SimThread(engine, "waiter", core)
            yield from thread.startup()
            yield from thread.run(0.5)
            yield from thread.block_on(lock.acquire_write())
            trace.append(("waiter-acquired", engine.now))
            yield from thread.run(1.0)
            lock.release_write()
            thread.finish()

        engine.process(locker())
        engine.process(waiter())
        engine.run()
        # Timeline: locker's block_on bounces the core, letting waiter run
        # its 0.5s first; locker then computes 1.0s and sleeps 5.0s while
        # holding the lock, releasing at t=6.5.
        assert ("waiter-acquired", 6.5) in trace
        # While locker slept, waiter could use the core: total busy time
        # is 2.5s of work even though wall time is 7s.
        assert core.acct.user == pytest.approx(2.5)

    def test_sleep_leaves_core_idle(self):
        engine, machine = small_machine(cores=1)
        core = machine.core(0)
        thread = SimThread(engine, "sleeper", core)

        def body():
            yield from thread.startup()
            yield from thread.run(1.0)
            yield from thread.sleep(4.0)
            yield from thread.run(1.0)
            thread.finish()

        engine.run_process(body())
        assert engine.now == pytest.approx(6.0)
        assert core.acct.busy == pytest.approx(2.0)


class TestIrq:
    def test_irq_on_idle_core_accounts_time(self):
        engine, machine = small_machine()
        core = machine.core(0)
        core.post_irq(0.25)
        assert core.acct.irq == pytest.approx(0.25)

    def test_irq_extends_running_segment(self):
        engine, machine = small_machine(cores=1)
        core = machine.core(0)
        thread = SimThread(engine, "victim", core)

        def body():
            yield from thread.startup()
            yield from thread.run(10.0)
            thread.finish()

        engine.process(body())
        # Interrupt in the middle of the segment steals 2s of wall time.
        engine.call_after(5.0, lambda: core.post_irq(2.0))
        engine.run()
        assert engine.now == pytest.approx(12.0)
        assert core.acct.user == pytest.approx(10.0)
        assert core.acct.irq == pytest.approx(2.0)

    def test_multiple_irqs_accumulate(self):
        engine, machine = small_machine(cores=1)
        core = machine.core(0)
        thread = SimThread(engine, "victim", core)

        def body():
            yield from thread.startup()
            yield from thread.run(4.0)
            thread.finish()

        engine.process(body())
        engine.call_after(1.0, lambda: core.post_irq(0.5))
        engine.call_after(2.0, lambda: core.post_irq(0.5))
        engine.run()
        assert engine.now == pytest.approx(5.0)


def never():
    raise AssertionError("the continuation ran, but the call finished in place")


class TestContinuations:
    """The two continuation-passing operations under the generator API."""

    def test_zero_duration_on_a_held_core_finishes_without_parking(self):
        engine, machine = small_machine()
        core = machine.core(0)
        thread = SimThread(engine, "t0", core)

        def body():
            yield from thread.startup()
            assert core.exec_then(thread, 0.0, USER, never)
            assert list(thread.run(0.0)) == []  # the wrapper never parks
            thread.finish()

        engine.run_process(body())
        assert core.acct.busy == 0.0

    def test_stale_slice_end_after_an_irq_is_ignored(self):
        engine, machine = small_machine(cores=1)
        core = machine.core(0)
        thread = SimThread(engine, "victim", core)
        ends = []

        def start():
            assert core.acquire_then(thread, never)
            done = lambda: ends.append(engine.now)  # noqa: E731
            assert not core.exec_then(thread, 10.0, USER, done)

        engine.call_at(0.0, start)
        # Stretches the slice to 12.0; its first end, at 10.0, still fires.
        engine.call_at(5.0, lambda: core.post_irq(2.0))
        engine.run()
        assert ends == [12.0]
        assert core.acct.user == 10.0

    def test_thread_arriving_mid_step_preempts_at_the_quantum(self):
        engine, machine = small_machine(cores=1, quantum=1.0)
        core = machine.core(0)
        done = {}

        def worker():
            thread = SimThread(engine, "a", core)
            yield from thread.startup()
            yield from thread.run(2.0)  # uncontended when it starts
            yield from thread.run(3.0)  # b waits: one quantum, then b
            done["a"] = engine.now
            thread.finish()

        def arrival():
            thread = SimThread(engine, "b", core)
            yield from thread.startup()
            yield from thread.run(1.0)
            done["b"] = engine.now
            thread.finish()

        engine.process(worker())
        engine.call_at(0.5, lambda: engine.process(arrival()))
        engine.run()
        assert done == {"a": 6.0, "b": 4.0}
        # a in, b in at 3.0, a back at 4.0, idle at 6.0.
        assert core.context_switches == 4

    def test_idle_core_is_taken_in_place_only_when_nothing_is_due(self):
        engine, machine = small_machine(cores=1)
        core = machine.core(0)
        first = SimThread(engine, "first", core)
        second = SimThread(engine, "second", core)
        calls = []

        def at_one():
            assert core.acquire_then(first, never)
            first.finish()
            engine.call_at(engine.now, lambda: calls.append("due now"))
            on_core = lambda: calls.append(core.current is second)  # noqa: E731
            assert not core.acquire_then(second, on_core)

        engine.call_at(1.0, at_one)
        engine.run()
        assert calls == ["due now", True]
        # first in, first out to idle, second in: no switch is skipped.
        assert core.context_switches == 3
        # The heap entry, the callback due now and second's dispatch.
        assert engine._sequence == 3

    def test_sleep_reacquires_the_core_before_its_continuation(self):
        engine, machine = small_machine(cores=1)
        core = machine.core(0)
        thread = SimThread(engine, "sleeper", core)
        seen = []

        def start():
            assert core.acquire_then(thread, never)
            thread.sleep_then(2.0, lambda: seen.append(
                (engine.now, core.current is thread, thread.runnable)
            ))
            assert core.current is None and not thread.runnable

        engine.call_at(1.0, start)
        engine.run()
        assert seen == [(3.0, True, True)]
        # Two heap entries: the wake and the re-acquire ran in place.
        assert engine._sequence == 2

    @pytest.mark.parametrize("wait", ["run", "sleep"])
    def test_exception_after_a_continuation_resumes_the_worker(self, wait):
        engine, machine = small_machine()
        thread = SimThread(engine, "t0", machine.core(0))

        def body():
            yield from thread.startup()
            yield from getattr(thread, wait)(1.0)
            raise ValueError(f"boom after {wait}")

        engine.process(body())
        with pytest.raises(ValueError, match=f"boom after {wait}"):
            engine.run()
        assert engine.now == 1.0


class TestMachine:
    def test_specs_present_for_all_three_isas(self):
        assert set(MACHINE_SPECS) == {"x86_64", "armv8", "riscv64"}
        assert MACHINE_SPECS["riscv64"].cores == 1
        assert MACHINE_SPECS["x86_64"].cores == 16
        assert MACHINE_SPECS["armv8"].cores == 16

    def test_riscv_memory_limit_matches_paper(self):
        # §3.4: the Nezha D1 has 1 GiB, which is why SPEC cannot run there.
        assert MACHINE_SPECS["riscv64"].memory_bytes == 1 << 30

    def test_round_robin_placement(self):
        engine, machine = small_machine(cores=3)
        indices = [machine.place().index for _ in range(5)]
        assert indices == [0, 1, 2, 0, 1]

    def test_cycle_conversion_roundtrip(self):
        engine, machine = small_machine()
        assert machine.cycles_to_seconds(2e9) == pytest.approx(2.0)
        assert machine.seconds_to_cycles(2.0) == pytest.approx(2e9)

    def test_parallel_threads_on_distinct_cores(self):
        engine, machine = small_machine(cores=2)
        finish = {}

        def body(name, core_index):
            thread = SimThread(engine, name, machine.core(core_index))
            yield from thread.startup()
            yield from thread.run(5.0)
            finish[name] = engine.now
            thread.finish()

        engine.process(body("a", 0))
        engine.process(body("b", 1))
        engine.run()
        # Perfect parallelism: both finish at t=5.
        assert finish == {"a": 5.0, "b": 5.0}
