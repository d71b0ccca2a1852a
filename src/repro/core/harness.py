"""The benchmarking harness (§3.5).

Mirrors the paper's 2000-line C++ harness:

* worker threads pinned to CPU cores 0..N-1, one runtime instance each;
* a warm-up phase with a gate so all workers enter the timed region
  together, and a cool-down phase where finished workers keep running
  extra iterations until every worker's measured runs are complete, so
  late measurements are not flattered by an emptying machine;
* only module execution is timed; setup/teardown per iteration is not
  part of the reported time (but *is* part of the system-level
  utilisation/context-switch/memory measurements, exactly as the
  paper's /proc/stat sampling sees it);
* native baselines spawn one process per instance (vfork+fexecve) —
  each with its own address space and mmap_lock;
* V8 additionally runs its helper threads (JIT/GC/IO) placed after the
  workers, plus periodic stop-the-world GC pauses.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import PAPER_TARGETS
from repro.core.lifecycle import InstanceLifecycle, make_plan
from repro.core.profiles import profile_for
from repro.cpu.core import USER
from repro.cpu.machine import MACHINE_SPECS, Machine
from repro.cpu.thread import SimThread
from repro.isa import isa_named
from repro.oskernel.kernel import Kernel
from repro.oskernel.meminfo import MemInfoModel
from repro.oskernel.procstat import ProcStat, UtilisationSample
from repro.oskernel.syscalls import SyscallCostModel
from repro.runtime.strategies import strategy_named
from repro.runtimes import runtime_named
from repro.sim.engine import PARK, Engine, SimError
from repro.sim.resources import Gate
from repro.trace.events import (
    PHASE_TIMED_BEGIN,
    PHASE_TIMED_END,
    RUN_END,
    RUN_META,
)
from repro.trace.tracer import TRACE
from repro.workloads import workload_named

#: Memory-usage sampling period for the Fig. 6 model.
_MEMINFO_PERIOD = 10e-3


@dataclass
class RunMeasurement:
    """Everything one harness run reports."""

    workload: str
    runtime: str
    strategy: str
    isa: str
    threads: int
    size: str
    #: Timed iteration durations across all workers (seconds).
    iteration_seconds: List[float]
    wall_seconds: float
    utilisation: UtilisationSample
    mem_avg_bytes: float
    kernel_stats: Dict[str, int]
    mmap_read_wait: float
    mmap_write_wait: float
    #: Single-thread modelled compute time per iteration (no system
    #: effects) — the denominator for contention analyses.
    compute_seconds: float
    #: Dynamic bounds-check counters per iteration: ``emitted`` checks
    #: executed in compiled code, ``elided`` checks the BCE pass
    #: removed (both 0 for strategies without inline checks).
    bounds_checks: Dict[str, int] = field(default_factory=dict)
    #: Modelled WASI kernel time per iteration (0 for compute-family
    #: workloads) — the syscall-tax analogue of ``compute_seconds``.
    syscall_seconds: float = 0.0
    #: Kernel-side per-syscall accounting over the whole run, summed
    #: across processes: name -> {"calls": int, "seconds": float}.
    #: Seconds accumulate in batch replay order (the reconciliation
    #: contract with the ``syscall.wasi`` trace events).
    syscall_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def median_iteration(self) -> float:
        return statistics.median(self.iteration_seconds)


def cell_problem(
    runtime: str, strategy: str, isa: str, threads: int = 1
) -> Optional[str]:
    """Why a (runtime, strategy, ISA, threads) cell cannot run, or None.

    The one validity rule: sweep specs skip (or, strictly, reject) the
    cells it names, and :func:`run_benchmark` raises its reason.
    """
    model = runtime_named(runtime)
    if not model.supports(isa):
        return f"runtime {runtime} has no {isa} backend (§3.4)"
    if strategy not in model.strategies:
        return f"runtime {runtime} does not support strategy {strategy}"
    if not isa_named(isa).supports_strategy(strategy_named(strategy)):
        return (
            f"strategy {strategy} requires a hardware memory-tagging "
            f"extension (Arm MTE); ISA {isa} has none — request it on "
            "armv8 instead"
        )
    cores = MACHINE_SPECS[isa].cores
    if threads > cores:
        return f"{threads} workers exceed the {cores}-core machine"
    return None


def run_benchmark(
    workload: str,
    runtime: str,
    strategy: str,
    isa: str,
    threads: int = 1,
    size: str = "small",
    iterations: int = 3,
    warmup: int = 1,
    bce: bool = True,
) -> RunMeasurement:
    """Run one benchmark configuration through the system simulation.

    ``bce=False`` prices the code without the compiler's bounds-check
    elimination passes.
    """
    # Unknown names raise here, each with its own lookup's message.
    runtime_model = runtime_named(runtime)
    strategy_model = strategy_named(strategy)
    isa_model = isa_named(isa)
    workload_named(workload)
    problem = cell_problem(runtime, strategy, isa, threads)
    if problem is not None:
        raise ValueError(problem)
    spec = MACHINE_SPECS[isa]

    if TRACE.enabled:
        # Opens a run segment: all pre-simulation events (compile,
        # costing) and the whole simulated timeline follow this marker.
        TRACE.emit(
            0.0, RUN_META,
            workload=workload, runtime=runtime, strategy=strategy, isa=isa,
            threads=threads, size=size, iterations=iterations, warmup=warmup,
        )

    module, profile = profile_for(workload, size)
    cycles = runtime_model.cycles(
        module, profile, isa_model, strategy_model, bce
    )
    bounds_checks = runtime_model.check_stats(
        module, profile, isa_model, strategy_model, bce
    )
    # Anchor the iteration duration to the paper-scale native-x86
    # estimate; every other configuration inherits the same scale,
    # so relative runtime/strategy/ISA differences pass through.
    target = PAPER_TARGETS[workload]
    anchor = runtime_named("native-clang")
    anchor_cycles = anchor.cycles(
        module, profile, isa_named("x86_64"), strategy_named("none")
    )
    anchor_seconds = anchor_cycles / MACHINE_SPECS["x86_64"].frequency_hz
    plan = make_plan(
        cycles=cycles,
        frequency_hz=spec.frequency_hz,
        strategy=strategy_model,
        time_scale=target.iteration_seconds / anchor_seconds,
        memory_bytes=target.memory_bytes,
        native=runtime_model.is_native,
        # One worker's GC cadence at 1 thread; with more isolates the
        # shared heap fills faster and every stop-the-world pause stops
        # every worker, so the per-worker effective interval shrinks
        # (calibrated as 1/sqrt(threads)).
        gc_interval=(
            runtime_model.gc_pause_interval / max(1.0, threads ** 0.5)
            if runtime_model.gc_pause_interval > 0
            else 0.0
        ),
        gc_duration=runtime_model.gc_pause_duration,
        syscalls=profile.syscalls,
        # Priced at the *measured* machine's entry cost and clock, so
        # the syscall tax shifts across ISAs like check cost does.
        syscall_model=SyscallCostModel(isa_model, spec.frequency_hz),
    )

    engine = Engine()
    machine = Machine(engine, spec)
    kernel = Kernel(engine, machine)
    stat = ProcStat(machine)
    meminfo = MemInfoModel(isa)

    # Process topology: native = process per worker; wasm = one process.
    if runtime_model.process_per_instance:
        procs = [kernel.create_process(f"bench{i}") for i in range(threads)]
    else:
        shared = kernel.create_process(runtime)
        procs = [shared] * threads

    state = _SharedState(
        gate=Gate(engine, "timed-region"),
        warmup_remaining=threads,
        measured_remaining=threads,
    )
    results: List[List[float]] = [[] for _ in range(threads)]

    def worker(index: int):
        proc = procs[index]
        proc.cpumask.add(index)
        thread = SimThread(engine, f"worker{index}", machine.core(index), tgid=proc.tgid)
        lifecycle = InstanceLifecycle(kernel, proc, thread, plan)
        yield from thread.startup()
        yield from lifecycle.setup()
        for _ in range(warmup):
            yield from lifecycle.run_iteration()
        # Synchronise entry into the timed region.
        state.warmup_remaining -= 1
        if state.warmup_remaining == 0:
            state.start_snapshot = stat.snapshot()
            if TRACE.enabled:
                # Emitted immediately after the snapshot, so trace seq
                # order splits events exactly as the counters saw them.
                TRACE.emit(engine.now, PHASE_TIMED_BEGIN, thread=thread.name)
            state.gate.open_gate()
        yield from thread.block_on(state.gate.wait())
        for _ in range(iterations):
            timed = yield from lifecycle.run_iteration()
            results[index].append(timed)
        state.measured_remaining -= 1
        if state.measured_remaining == 0:
            state.end_snapshot = stat.snapshot()
            if TRACE.enabled:
                TRACE.emit(engine.now, PHASE_TIMED_END, thread=thread.name)
            state.stopped = True
        # Cool-down: keep the core busy until everyone has finished.
        while not state.stopped:
            yield from lifecycle.run_iteration()
        thread.finish()

    def helper(index: int):
        # Helpers are unpinned: the load balancer migrates them around
        # the machine, so their bursts perturb every worker in turn.
        position = threads + index
        thread = SimThread(
            engine, f"helper{index}", machine.core(position % spec.cores),
            tgid=procs[0].tgid,
        )
        yield from thread.startup()
        while not state.stopped:
            yield from thread.sleep(runtime_model.helper_period)
            if state.stopped:
                break
            position += runtime_model.helper_threads
            procs[0].cpumask.add(position % spec.cores)
            yield from thread.migrate(machine.core(position % spec.cores))
            yield from thread.run(runtime_model.helper_burst, USER)
        thread.finish()

    def meminfo_sampler():
        # Nothing can change the usage before the next queued callback,
        # so each wake takes every sample due before it and sleeps until
        # the first one that is not.
        unique_procs = _unique_procs(procs)
        when = engine.now
        while not state.stopped:
            until = engine.next_time()
            if until == math.inf:
                raise SimError(
                    "lost wake-up: the workers have not stopped, but "
                    "nothing except the meminfo sampler is queued"
                )
            when = meminfo.sample_until(unique_procs, when, until, _MEMINFO_PERIOD)
            engine.wake_at(engine.active, when)
            yield PARK

    for index in range(threads):
        engine.process(worker(index), name=f"worker{index}")
    if runtime_model.helper_threads and not runtime_model.is_native:
        for index in range(runtime_model.helper_threads):
            engine.process(helper(index), name=f"helper{index}")
    engine.process(meminfo_sampler(), name="meminfo")
    engine.run()

    assert state.start_snapshot is not None and state.end_snapshot is not None
    utilisation = stat.window(state.start_snapshot, state.end_snapshot)
    unique_procs = _unique_procs(procs)
    kernel_stats: Dict[str, int] = {}
    read_wait = write_wait = 0.0
    syscall_stats: Dict[str, Dict[str, float]] = {}
    for proc in unique_procs:
        for key, value in proc.stats.items():
            kernel_stats[key] = kernel_stats.get(key, 0) + value
        read_wait += proc.mmap_lock.read_stats.total_wait_time
        write_wait += proc.mmap_lock.write_stats.total_wait_time
        for name, seconds in proc.syscall_time.items():
            entry = syscall_stats.setdefault(name, {"calls": 0, "seconds": 0.0})
            entry["calls"] += proc.syscall_calls.get(name, 0)
            entry["seconds"] += seconds

    all_iterations = [dur for worker_times in results for dur in worker_times]
    if TRACE.enabled:
        TRACE.emit(engine.now, RUN_END, wall=utilisation.elapsed)
    return RunMeasurement(
        workload=workload,
        runtime=runtime,
        strategy=strategy,
        isa=isa,
        threads=threads,
        size=size,
        iteration_seconds=all_iterations,
        wall_seconds=utilisation.elapsed,
        utilisation=utilisation,
        mem_avg_bytes=meminfo.average_bytes,
        kernel_stats=kernel_stats,
        mmap_read_wait=read_wait,
        mmap_write_wait=write_wait,
        compute_seconds=plan.compute_seconds,
        bounds_checks=bounds_checks,
        syscall_seconds=plan.syscall_seconds,
        syscall_stats=syscall_stats,
    )


def _unique_procs(procs):
    seen = {}
    for proc in procs:
        seen[proc.tgid] = proc
    return list(seen.values())


@dataclass
class _SharedState:
    gate: Gate
    warmup_remaining: int
    measured_remaining: int
    stopped: bool = False
    start_snapshot: object = None
    end_snapshot: object = None


