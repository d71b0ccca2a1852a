"""Tests for /proc/stat-style accounting and the MemAvailable model."""

import pytest

from repro.cpu import Machine, MachineSpec, SimThread
from repro.oskernel import Kernel, MemInfoModel, ProcStat
from repro.oskernel.layout import PAGE_SIZE, THP_GRANULARITY
from repro.sim import Engine


def make_system(cores=2):
    engine = Engine()
    spec = MachineSpec(
        name="test",
        isa="x86_64",
        cores=cores,
        frequency_hz=1e9,
        memory_bytes=1 << 30,
        switch_cost=0.0,
    )
    machine = Machine(engine, spec)
    return engine, machine


class TestProcStat:
    def test_fully_busy_single_core(self):
        engine, machine = make_system(cores=2)
        stat = ProcStat(machine)
        start = stat.snapshot()
        thread = SimThread(engine, "t", machine.core(0))

        def body():
            yield from thread.startup()
            yield from thread.run(2.0, "user")
            thread.finish()

        engine.run_process(body())
        sample = stat.window(start, stat.snapshot())
        # One of two cores busy for the whole window = 100% (paper scale).
        assert sample.utilisation_percent == pytest.approx(100.0)
        assert sample.user_percent == pytest.approx(100.0)

    def test_two_busy_cores_read_200_percent(self):
        engine, machine = make_system(cores=2)
        stat = ProcStat(machine)
        start = stat.snapshot()

        def body(core_index):
            thread = SimThread(engine, f"t{core_index}", machine.core(core_index))
            yield from thread.startup()
            yield from thread.run(3.0, "user")
            thread.finish()

        engine.process(body(0))
        engine.process(body(1))
        engine.run()
        sample = stat.window(start, stat.snapshot())
        assert sample.utilisation_percent == pytest.approx(200.0)

    def test_half_idle(self):
        engine, machine = make_system(cores=1)
        stat = ProcStat(machine)
        start = stat.snapshot()
        thread = SimThread(engine, "t", machine.core(0))

        def body():
            yield from thread.startup()
            yield from thread.run(1.0, "user")
            yield from thread.sleep(1.0)
            thread.finish()

        engine.run_process(body())
        sample = stat.window(start, stat.snapshot())
        assert sample.utilisation_percent == pytest.approx(50.0)

    def test_sys_and_irq_buckets_counted(self):
        engine, machine = make_system(cores=1)
        stat = ProcStat(machine)
        start = stat.snapshot()
        machine.core(0).post_irq(0.5)
        thread = SimThread(engine, "t", machine.core(0))

        def body():
            yield from thread.startup()
            yield from thread.run(0.5, "sys")
            thread.finish()

        engine.run_process(body())
        engine.run(until=1.0)
        sample = stat.window(start, stat.snapshot())
        assert sample.sys_percent > 0
        assert sample.irq_percent > 0

    def test_zero_window_rejected(self):
        engine, machine = make_system()
        stat = ProcStat(machine)
        snap = stat.snapshot()
        with pytest.raises(ValueError):
            stat.window(snap, snap)

    def test_context_switch_rate(self):
        engine, machine = make_system(cores=1)
        stat = ProcStat(machine)
        start = stat.snapshot()

        def body(name):
            thread = SimThread(engine, name, machine.core(0))
            yield from thread.startup()
            yield from thread.run(1.0, "user")
            thread.finish()

        engine.process(body("a"))
        engine.process(body("b"))
        engine.run()
        sample = stat.window(start, stat.snapshot())
        assert sample.context_switches_per_sec > 0


class TestMemInfo:
    def test_unknown_isa_rejected(self):
        with pytest.raises(ValueError):
            MemInfoModel("sparc")

    def test_empty_usage_is_zero(self):
        engine, machine = make_system()
        kernel = Kernel(engine, machine)
        proc = kernel.create_process("p")
        model = MemInfoModel("x86_64")
        assert model.usage_bytes([proc]) == 0

    def _populate(self, isa, pages):
        engine, machine = make_system()
        kernel = Kernel(engine, machine)
        proc = kernel.create_process("p")
        area = proc.aspace.map_area(1 << 30, "mem")
        area.populate(0, pages * PAGE_SIZE)
        return MemInfoModel(isa).usage_bytes([proc])

    def test_x86_rounds_to_coarser_granularity_than_arm(self):
        """Fig. 6's x86-vs-Arm gap: same population, larger x86 charge."""
        pages = 512  # 2 MiB populated
        assert self._populate("x86_64", pages) > self._populate("armv8", pages)

    def test_arm_rounding_is_2mib(self):
        usage = self._populate("armv8", 1)  # one 4 KiB page
        assert usage == THP_GRANULARITY["armv8"]

    def test_charge_never_exceeds_area_length(self):
        engine, machine = make_system()
        kernel = Kernel(engine, machine)
        proc = kernel.create_process("p")
        area = proc.aspace.map_area(1 << 20, "small")  # 1 MiB area
        area.populate(0, area.length)
        usage = MemInfoModel("x86_64").usage_bytes([proc])
        assert usage == area.length

    def test_time_weighted_average(self):
        engine, machine = make_system()
        kernel = Kernel(engine, machine)
        proc = kernel.create_process("p")
        area = proc.aspace.map_area(1 << 30, "mem")
        model = MemInfoModel("armv8")
        model.sample([proc], weight=1.0)  # zero usage
        area.populate(0, 2 << 20)
        model.sample([proc], weight=1.0)  # 2 MiB charged
        assert model.average_bytes == pytest.approx((2 << 20) / 2)

    def test_average_with_no_samples_is_zero(self):
        assert MemInfoModel("x86_64").average_bytes == 0.0

    def test_usage_is_reread_after_every_kind_of_change(self):
        engine, machine = make_system()
        kernel = Kernel(engine, machine)
        proc = kernel.create_process("p")
        model = MemInfoModel("armv8")
        two_mib = THP_GRANULARITY["armv8"]
        area = proc.aspace.map_area(1 << 30, "mem")
        assert model.usage_bytes([proc]) == 0
        area.populate(0, PAGE_SIZE)
        assert model.usage_bytes([proc]) == two_mib
        area.populate(0, two_mib + PAGE_SIZE)
        assert model.usage_bytes([proc]) == 2 * two_mib
        area.zap(0, two_mib)
        assert model.usage_bytes([proc]) == two_mib
        other = proc.aspace.map_area(1 << 30, "other")
        other.populate(0, PAGE_SIZE)
        assert model.usage_bytes([proc]) == 2 * two_mib
        proc.aspace.unmap_area(area)
        assert model.usage_bytes([proc]) == two_mib
        # Another process list is another reading.
        assert model.usage_bytes([]) == 0

    def test_sample_until_matches_one_sample_per_period(self):
        engine, machine = make_system()
        kernel = Kernel(engine, machine)
        proc = kernel.create_process("p")
        proc.aspace.map_area(1 << 30, "mem").populate(0, 3 * PAGE_SIZE)
        period = 10e-3
        one_by_one = MemInfoModel("x86_64")
        when = 0.0
        while when < 0.05:  # the samples due before 0.05 ...
            one_by_one.sample([proc], weight=period)
            when = when + period
        batched = MemInfoModel("x86_64")
        # ... and the first sample time not before it.
        assert batched.sample_until([proc], 0.0, 0.05, period) == when
        assert batched._weighted_usage == one_by_one._weighted_usage
        assert batched._weight == one_by_one._weight
        # The first sample is taken even when something is due now.
        assert batched.sample_until([proc], when, when, period) == when + period
