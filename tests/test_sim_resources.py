"""Tests for simulated synchronisation primitives."""

import pytest

from repro.sim import Delay, Engine, Gate, RWLock
from repro.sim.engine import SimError


class TestRWLock:
    def test_readers_share(self):
        engine = Engine()
        lock = RWLock(engine)
        concurrent = []

        def reader(tag):
            token = yield from lock.acquire_read()
            concurrent.append(engine.now)
            yield Delay(3.0)
            lock.release_read(token)

        engine.process(reader("a"))
        engine.process(reader("b"))
        engine.run()
        # Both readers entered at t=0: fully concurrent.
        assert concurrent == [0.0, 0.0]
        assert engine.now == 3.0

    def test_writer_excludes_readers(self):
        engine = Engine()
        lock = RWLock(engine)
        trace = []

        def writer():
            yield from lock.acquire_write()
            trace.append(("w-enter", engine.now))
            yield Delay(2.0)
            trace.append(("w-exit", engine.now))
            lock.release_write()

        def reader():
            yield Delay(0.5)
            token = yield from lock.acquire_read()
            trace.append(("r-enter", engine.now))
            lock.release_read(token)

        engine.process(writer())
        engine.process(reader())
        engine.run()
        assert trace == [("w-enter", 0.0), ("w-exit", 2.0), ("r-enter", 2.0)]

    def test_waiting_writer_blocks_new_readers(self):
        """The mmap_lock behaviour that drives the paper's Fig. 3-5.

        Reader R1 holds the lock; writer W queues; reader R2 arrives
        after W and must NOT jump the queue even though R1 is active.
        """
        engine = Engine()
        lock = RWLock(engine)
        trace = []

        def r1():
            token = yield from lock.acquire_read()
            yield Delay(4.0)
            lock.release_read(token)
            trace.append(("r1-done", engine.now))

        def writer():
            yield Delay(1.0)
            yield from lock.acquire_write()
            trace.append(("w-enter", engine.now))
            yield Delay(2.0)
            lock.release_write()

        def r2():
            yield Delay(2.0)
            token = yield from lock.acquire_read()
            trace.append(("r2-enter", engine.now))
            lock.release_read(token)

        engine.process(r1())
        engine.process(writer())
        engine.process(r2())
        engine.run()
        assert trace == [
            ("r1-done", 4.0),
            ("w-enter", 4.0),
            ("r2-enter", 6.0),
        ]

    def test_reader_batch_granted_together(self):
        engine = Engine()
        lock = RWLock(engine)
        entries = []

        def writer():
            yield from lock.acquire_write()
            yield Delay(2.0)
            lock.release_write()

        def reader(tag, arrival):
            yield Delay(arrival)
            token = yield from lock.acquire_read()
            entries.append((tag, engine.now))
            yield Delay(1.0)
            lock.release_read(token)

        engine.process(writer())
        engine.process(reader("a", 0.5))
        engine.process(reader("b", 1.0))
        engine.run()
        assert entries == [("a", 2.0), ("b", 2.0)]

    def test_release_errors(self):
        engine = Engine()
        lock = RWLock(engine)
        with pytest.raises(SimError):
            lock.release_write()
        with pytest.raises(SimError):
            lock.release_read(0)

    def test_write_wait_time_recorded(self):
        engine = Engine()
        lock = RWLock(engine)

        def reader():
            token = yield from lock.acquire_read()
            yield Delay(3.0)
            lock.release_read(token)

        def writer():
            yield Delay(1.0)
            yield from lock.acquire_write()
            lock.release_write()

        engine.process(reader())
        engine.process(writer())
        engine.run()
        assert lock.write_stats.total_wait_time == pytest.approx(2.0)


class TestGate:
    def test_waiters_released_on_open(self):
        engine = Engine()
        gate = Gate(engine)
        released = []

        def waiter(tag):
            yield from gate.wait()
            released.append((tag, engine.now))

        engine.process(waiter("a"))
        engine.process(waiter("b"))
        engine.call_after(5.0, gate.open_gate)
        engine.run()
        assert released == [("a", 5.0), ("b", 5.0)]

    def test_open_gate_passes_immediately(self):
        engine = Engine()
        gate = Gate(engine)
        gate.open_gate()
        log = []

        def body():
            yield from gate.wait()
            log.append(engine.now)

        engine.process(body())
        engine.run()
        assert log == [0.0]
