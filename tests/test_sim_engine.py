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
    wake = engine.event("wake")

    def waiter():
        yield wake
        order.append("event wake-up")

    def trigger():
        yield Delay(when)
        order.append("trigger")
        engine.call_at(when, lambda: order.append("call_at"))
        wake.succeed()
        yield Delay(0.0)
        order.append("delay(0)")

    engine.process(waiter())  # 1: start
    engine.process(trigger())  # 2: start, then 4: Delay(when)
    # 3, then 5 from inside it: queued for ``when`` after the trigger.
    engine.call_at(1.0, lambda: engine.call_at(when, lambda: order.append("early")))
    engine.run()
    # 6: call_at, 7: the waiter's wake-up, 8: the Delay(0) resumption.
    assert order == ["trigger", "early", "call_at", "event wake-up", "delay(0)"]
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


def test_process_waits_on_event():
    engine = Engine()
    event = engine.event("signal")
    log = []

    def waiter():
        value = yield event
        log.append((engine.now, value))

    engine.process(waiter())
    engine.call_after(4.0, lambda: event.succeed("payload"))
    engine.run()
    assert log == [(4.0, "payload")]


def test_multiple_waiters_resume_in_wait_order():
    engine = Engine()
    event = engine.event()
    log = []

    def waiter(tag):
        yield event
        log.append(tag)

    engine.process(waiter("a"))
    engine.process(waiter("b"))
    engine.call_after(1.0, lambda: event.succeed())
    engine.run()
    assert log == ["a", "b"]


def test_process_join():
    engine = Engine()

    def child():
        yield Delay(7.0)
        return 42

    def parent():
        value = yield engine.process(child())
        return value + 1

    assert engine.run_process(parent()) == 43
    assert engine.now == 7.0


def test_event_failure_propagates_into_process():
    engine = Engine()
    event = engine.event()
    caught = []

    def body():
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    engine.process(body())
    engine.call_after(1.0, lambda: event.fail(ValueError("boom")))
    engine.run()
    assert caught == ["boom"]


def test_process_crash_fails_done_event():
    engine = Engine()

    def body():
        yield Delay(1.0)
        raise RuntimeError("crash")

    process = engine.process(body())
    engine.run()
    with pytest.raises(RuntimeError, match="crash"):
        process.done_event.result()


def test_double_trigger_rejected():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimError):
        event.succeed(2)


def test_all_of_gathers_results():
    engine = Engine()
    first = engine.timeout(1.0, "one")
    second = engine.timeout(2.0, "two")
    results = []

    def body():
        values = yield engine.all_of([first, second])
        results.append(values)

    engine.process(body())
    engine.run()
    assert results == [["one", "two"]]
    assert engine.now == 2.0


def test_all_of_empty_triggers_immediately():
    engine = Engine()
    results = []

    def body():
        values = yield engine.all_of([])
        results.append(values)

    engine.process(body())
    engine.run()
    assert results == [[]]


def test_deadlock_detected_by_run_process():
    engine = Engine()

    def body():
        yield engine.event("never")

    with pytest.raises(SimError, match="deadlocked"):
        engine.run_process(body())


def test_interrupt_kills_process():
    engine = Engine()

    def body():
        yield Delay(100.0)

    process = engine.process(body())
    engine.call_after(1.0, lambda: process.interrupt())
    engine.run()
    assert not process.alive


def test_yielding_garbage_raises():
    engine = Engine()

    def body():
        yield "not a waitable"

    process = engine.process(body())
    engine.run()
    with pytest.raises(SimError, match="unsupported"):
        process.done_event.result()


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


def _wake_at_shared_timestamp(park: bool):
    """One process waits; a heap callback at T ends the wait, either by
    waking the parked process or by succeeding the event it waits on.
    Returns the firing order and the callbacks scheduled from T on."""
    engine = Engine()
    order = []
    signal = engine.event("signal")
    waiter = {}

    def body():
        waiter["process"] = engine.active
        yield PARK if park else signal
        order.append("woken")

    def end_wait():
        order.append("waker")
        if park:
            engine.wake(waiter["process"])
        else:
            signal.succeed()

    engine.process(body())
    # Due at T before the waker, scheduling more work at T when it fires.
    engine.call_at(1.0, lambda: engine.call_at(1.0, lambda: order.append("lane at T")))
    engine.call_at(1.0, end_wait)
    engine.call_at(1.0, lambda: order.append("due at T"))
    engine.run(until=0.5)
    before = engine._sequence
    engine.run()
    return order, engine._sequence - before


def test_wake_lands_in_the_event_wake_up_slot():
    parked = _wake_at_shared_timestamp(park=True)
    evented = _wake_at_shared_timestamp(park=False)
    # Everything already due at T runs before the woken process.
    assert parked[0] == ["waker", "due at T", "lane at T", "woken"]
    assert parked == evented


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


def test_interrupted_parked_process_does_not_run():
    engine = Engine()
    ran = []

    def body():
        yield PARK
        ran.append("resumed")

    process = engine.process(body())
    engine.run()
    process.interrupt()
    before = engine._sequence
    engine.wake(process)
    engine.run()
    assert ran == []
    assert not process.alive
    # The wake still costs its lane entry, as an event wake-up would.
    assert engine._sequence == before + 1
    with pytest.raises(SimError, match="interrupted"):
        process.done_event.result()


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
