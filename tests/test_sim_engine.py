"""Tests for the discrete-event simulation core."""

import gc
import weakref

import pytest

from repro.sim import Delay, Engine, SimError
from repro.sim.engine import PARK


def test_clock_starts_at_zero():
    engine = Engine()
    assert engine.now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    fired = []
    engine.call_after(5.0, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [5.0]
    assert engine.now == 5.0


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.call_after(3.0, lambda: order.append("c"))
    engine.call_after(1.0, lambda: order.append("a"))
    engine.call_after(2.0, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    engine = Engine()
    order = []
    for tag in ["first", "second", "third"]:
        engine.call_after(1.0, lambda t=tag: order.append(t))
    engine.run()
    assert order == ["first", "second", "third"]


def test_same_time_callbacks_keep_scheduling_order():
    # Entries scheduled for T before the clock reached T fire before
    # anything scheduled at T, which then fires first-in first-out.
    engine = Engine()
    when = 2.0
    order = []
    parked = {}

    def waiter():
        parked["process"] = engine.active
        yield PARK
        order.append("wake")

    def trigger():
        yield Delay(when)
        order.append("trigger")
        engine.call_at(when, lambda: order.append("call_at"))
        engine.wake(parked["process"])
        yield Delay(0.0)
        order.append("delay(0)")

    engine.process(waiter())  # 1: start
    engine.process(trigger())  # 2: start, then 4: Delay(when)
    # 3, then 5 from inside it: queued for ``when`` after the trigger.
    engine.call_at(1.0, lambda: engine.call_at(when, lambda: order.append("early")))
    engine.run()
    # 6: call_at, 7: the waiter's wake, 8: the Delay(0) resumption.
    assert order == ["trigger", "early", "call_at", "wake", "delay(0)"]
    assert engine.now == when
    assert engine._sequence == 8


def test_run_until_stops_early():
    engine = Engine()
    fired = []
    engine.call_after(10.0, lambda: fired.append("late"))
    engine.run(until=5.0)
    assert fired == []
    assert engine.now == 5.0
    engine.run()
    assert fired == ["late"]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.call_after(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimError):
        engine.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimError):
        Delay(-1.0)


def test_nan_time_rejected_instead_of_hanging():
    # ``nan == nan`` is false, so a NaN heap head would never reach the
    # lane and run() would spin forever.
    engine = Engine()
    with pytest.raises(SimError):
        engine.call_at(float("nan"), lambda: None)
    with pytest.raises(SimError):
        engine.call_after(float("nan"), lambda: None)
    assert engine._sequence == 0
    assert engine.run() == 0.0


def test_nan_delay_rejected():
    with pytest.raises(SimError):
        Delay(float("nan"))


def test_process_runs_and_returns_value():
    engine = Engine()

    def body():
        yield Delay(2.0)
        yield Delay(3.0)
        return "done"

    result = engine.run_process(body())
    assert result == "done"
    assert engine.now == 5.0


def test_process_crash_propagates_out_of_run():
    # Kept on the process, the crash would go unseen while the run went
    # on to the sampler's last tick; the harness's sampler never stops.
    engine = Engine()

    def crasher():
        yield Delay(1.0)
        raise RuntimeError("crash")

    def sampler():
        for _ in range(1000):
            yield Delay(0.25)

    process = engine.process(crasher())
    engine.process(sampler())
    with pytest.raises(RuntimeError, match="crash"):
        engine.run()
    assert engine.now == 1.0
    assert not process.alive


def test_yielding_garbage_raises():
    engine = Engine()

    def body():
        yield "not a waitable"

    with pytest.raises(SimError, match="unsupported"):
        engine.run_process(body())


def test_determinism_across_runs():
    def simulate():
        engine = Engine()
        trace = []

        def worker(tag, delay):
            for _ in range(3):
                yield Delay(delay)
                trace.append((engine.now, tag))

        engine.process(worker("x", 1.0))
        engine.process(worker("y", 1.0))
        engine.process(worker("z", 0.5))
        engine.run()
        return trace

    assert simulate() == simulate()


def test_wake_lands_in_the_event_wake_up_slot():
    # A heap callback at T wakes a parked process.  The wake joins the
    # lane behind what is already queued at T, so the other callbacks due
    # at T, and the one queued by the first of them, run before it.
    engine = Engine()
    order = []
    parked = {}

    def body():
        parked["process"] = engine.active
        yield PARK
        order.append("woken")

    def end_wait():
        order.append("waker")
        engine.wake(parked["process"])

    engine.process(body())
    # Due at T before the waker, scheduling more work at T when it fires.
    engine.call_at(1.0, lambda: engine.call_at(1.0, lambda: order.append("lane at T")))
    engine.call_at(1.0, end_wait)
    engine.call_at(1.0, lambda: order.append("due at T"))
    engine.run(until=0.5)
    before = engine._sequence
    engine.run()
    assert order == ["waker", "due at T", "lane at T", "woken"]
    # One lane entry each for the work scheduled at T and the wake.
    assert engine._sequence - before == 2


def test_wake_before_park_resumes_after_the_yield():
    # A process may queue its own wake and then park (an idle core
    # dispatching the thread that is asking for it).
    engine = Engine()
    order = []

    def body():
        engine.wake(engine.active)
        order.append("parking")
        value = yield PARK
        order.append(("resumed", value))

    engine.run_process(body())
    assert order == ["parking", ("resumed", None)]
    assert engine.active is None


def test_parked_process_without_waker_deadlocks():
    engine = Engine()

    def body():
        yield PARK

    with pytest.raises(SimError, match="deadlocked"):
        engine.run_process(body())


def test_finished_process_is_freed_without_the_cycle_collector():
    # A process left for the cycle collector keeps whatever its body
    # referenced alive past the run, which shows in peak memory.
    def body():
        yield Delay(1.0)
        yield Delay(0.0)

    engine = Engine()
    gc.disable()
    try:
        generator = body()
        ref = weakref.ref(generator)
        engine.process(generator)
        del generator
        engine.run()
        assert ref() is None
    finally:
        gc.enable()


def test_queue_runs_callbacks_in_lane_order():
    # A queued callable takes the lane slot ``call_at(now, ...)`` would.
    engine = Engine()
    order = []

    def first():
        engine.queue(lambda: order.append("queued"))
        engine.call_at(engine.now, lambda: order.append("call_at"))

    engine.call_at(1.0, first)
    engine.run()
    assert order == ["queued", "call_at"]
    assert engine._sequence == 3


def test_next_time_sees_the_lane_then_the_heap():
    engine = Engine()
    seen = []

    def probe():
        seen.append(engine.next_time())

    def at_one():
        probe()  # nothing due now: the heap entry at 3.0 is next
        engine.queue(probe)
        engine.call_at(1.0, lambda: None)
        probe()  # two lane entries wait: due now

    assert engine.next_time() == float("inf")
    engine.call_at(1.0, at_one)
    engine.call_at(3.0, probe)
    assert engine.next_time() == 1.0
    engine.run()
    # The queued probe still has the no-op behind it; the probe at 3.0
    # runs with nothing queued.
    assert seen == [3.0, 1.0, 1.0, float("inf")]


def test_wake_at_resumes_at_an_absolute_time():
    engine = Engine()
    woken = []

    def body():
        engine.wake_at(engine.active, 0.1 + 0.2)
        yield PARK
        woken.append(engine.now)

    engine.run_process(body())
    assert woken == [0.1 + 0.2]
