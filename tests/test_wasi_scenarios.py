"""The WASI scenario axis: kernel costs, determinism, tier identity.

Four layers under one marker (``-m wasi``):

* unit coverage for the fd table and the syscall cost model — the
  kernel side of the axis;
* the determinism regression contracts on the preview-1 shim (a
  rejected clock read must not tick, a zero-length ``random_get`` must
  not advance the xorshift stream);
* cross-tier bit-identity: every WASI workload produces identical
  checked arrays, identical stdout bytes, and an identical syscall
  census under all three interpreter tiers, and wasi-grep writes the
  stdout its reference predicts;
* end-to-end accounting: a traced WASI benchmark reconciles
  float-exactly against its ``RunMeasurement`` and yields non-empty
  per-syscall latency histograms.
"""

import pytest

from repro.core.harness import run_benchmark
from repro.isa import isa_named
from repro.oskernel import fdtable as fdt
from repro.oskernel.fdtable import FdTable
from repro.oskernel.syscalls import SyscallCostModel, SyscallCosts, _SERVICE
from repro.runtime import Interpreter
from repro.runtime.hostiface import payload_bucket
from repro.runtime.interpreter import TIERS
from repro.runtime.wasi import (
    ERRNO_INVAL,
    ERRNO_SUCCESS,
    WasiEnvironment,
)
from repro.trace import summary as trace_summary
from repro.trace.events import SYSCALL_WASI
from repro.trace.histogram import (
    bucket_bounds,
    histograms_to_json,
    latency_bucket,
    latency_histograms,
    render_histograms,
)
from repro.trace.tracer import tracing
from repro.wasm import ModuleBuilder
from repro.workloads import WASI
from repro.workloads.base import instantiate, read_array
from repro.workloads.wasi import filters

pytestmark = pytest.mark.wasi


def bound_env(**kwargs):
    """A WasiEnvironment bound to a memory-only module instance."""
    mb = ModuleBuilder("wasi-scenarios")
    mb.add_memory(1)
    env = WasiEnvironment(**kwargs)
    interp = Interpreter(mb.build(), imports=env.imports())
    env.bind(interp)
    return env, interp


# ----------------------------------------------------------------------
# Determinism regression contracts
# ----------------------------------------------------------------------

class TestDeterminismContracts:
    def test_zero_length_random_get_does_not_advance_stream(self):
        env, interp = bound_env(seed=5)
        before = env._rand_state
        assert env.random_get(0, 0) == (ERRNO_SUCCESS, 0)
        assert env._rand_state == before
        # The next real read is what a run without the empty read sees.
        env.random_get(0, 8)
        first = bytes(interp.memory.load_bytes(0, 8))
        fresh, fresh_interp = bound_env(seed=5)
        fresh.random_get(0, 8)
        assert bytes(fresh_interp.memory.load_bytes(0, 8)) == first

    def test_rejected_clock_read_does_not_tick(self):
        env, interp = bound_env()
        assert env.clock_time_get(7, 0, 16) == ERRNO_INVAL
        assert env._clock_ns == 0
        assert env.clock_time_get(0, 0, 16) == ERRNO_SUCCESS
        # First accepted read lands on the first tick, INVAL-free.
        assert interp.memory.load_u64(16) == 1_000

    def test_recorder_census_is_seed_independent_bytes_are_not(self):
        a, _ = bound_env(seed=1)
        b, _ = bound_env(seed=2)
        for env in (a, b):
            env.imports()[(WasiEnvironment.MODULE, "random_get")].fn(0, 16)
        assert a.recorder.snapshot() == b.recorder.snapshot()
        assert a.recorder.snapshot()["random_get"]["bytes"] == 16


# ----------------------------------------------------------------------
# Fd table
# ----------------------------------------------------------------------

class TestFdTable:
    def test_path_open_read_seek_close_round_trip(self):
        table = FdTable(files={"in.txt": b"0123456789"})
        errno, fd = table.open_path(fdt.PREOPEN_FD, "/in.txt")
        assert (errno, fd) == (ERRNO_SUCCESS, 4)
        assert table.read(fd, 4) == (ERRNO_SUCCESS, b"0123")
        assert table.seek(fd, -2, fdt.WHENCE_END) == (ERRNO_SUCCESS, 8)
        assert table.read(fd, 8) == (ERRNO_SUCCESS, b"89")
        assert table.close(fd) == ERRNO_SUCCESS
        assert table.read(fd, 1)[0] == fdt.ERRNO_BADF

    def test_open_missing_without_creat_is_noent(self):
        table = FdTable()
        assert table.open_path(fdt.PREOPEN_FD, "/nope")[0] == fdt.ERRNO_NOENT
        errno, fd = table.open_path(
            fdt.PREOPEN_FD, "/new", oflags=fdt.OFLAGS_CREAT, write=True
        )
        assert errno == ERRNO_SUCCESS
        assert table.write(fd, b"hi") == (ERRNO_SUCCESS, 2)
        assert table.file_bytes("new") == b"hi"

    def test_append_mode_writes_at_end(self):
        table = FdTable(files={"log": b"aaa"})
        _, fd = table.open_path(
            fdt.PREOPEN_FD, "/log", fdflags=fdt.FDFLAGS_APPEND, write=True
        )
        table.seek(fd, 0, fdt.WHENCE_SET)
        table.write(fd, b"bb")
        assert table.file_bytes("log") == b"aaabb"

    def test_trunc_requires_write_capability(self):
        table = FdTable(files={"f": b"data"})
        assert table.open_path(
            fdt.PREOPEN_FD, "/f", oflags=fdt.OFLAGS_TRUNC
        )[0] == fdt.ERRNO_INVAL
        errno, _ = table.open_path(
            fdt.PREOPEN_FD, "/f", oflags=fdt.OFLAGS_TRUNC, write=True
        )
        assert errno == ERRNO_SUCCESS
        assert table.file_bytes("f") == b""

    def test_stdio_and_preopen_are_protected(self):
        table = FdTable()
        for fd in (0, 1, 2, fdt.PREOPEN_FD):
            assert table.close(fd) == fdt.ERRNO_NOTCAPABLE
        assert table.seek(1, 0, fdt.WHENCE_SET)[0] == fdt.ERRNO_NOTCAPABLE
        assert table.open_path(1, "/x")[0] == fdt.ERRNO_NOTCAPABLE

    def test_direct_marking_is_per_file(self):
        table = FdTable(files={"hot": b"x", "cold": b"y"}, direct=("cold",))
        _, hot = table.open_path(fdt.PREOPEN_FD, "/hot")
        _, cold = table.open_path(fdt.PREOPEN_FD, "/cold")
        assert not table.is_direct(hot)
        assert table.is_direct(cold)


# ----------------------------------------------------------------------
# Syscall cost model
# ----------------------------------------------------------------------

class TestSyscallCostModel:
    def model(self, isa="x86_64", hz=3.0e9):
        return SyscallCostModel(isa_named(isa), hz)

    def test_entry_cost_comes_from_the_isa(self):
        isa = isa_named("x86_64")
        model = self.model(hz=2.0e9)
        assert model.entry_seconds == isa.syscall_entry_cycles / 2.0e9
        # Every priced call pays at least the crossing.
        for name in SyscallCostModel.known_syscalls():
            assert model.per_call(name) >= model.entry_seconds

    def test_direct_regime_adds_backing_store_fill(self):
        model = self.model()
        buffered = model.per_call("fd_read", 4096)
        direct = model.per_call("fd_read", 4096, direct=True)
        costs = SyscallCosts()
        assert direct - buffered == pytest.approx(
            4096 * costs.direct_per_byte
        )
        # Payload-free calls price identically in both regimes.
        assert model.per_call("fd_seek", direct=True) == \
            model.per_call("fd_seek")

    def test_batch_is_per_call_times_calls(self):
        model = self.model()
        total, per = model.batch("fd_write", 10, 640)
        assert per == model.per_call("fd_write", 64.0)
        assert total == per * 10
        assert model.batch("fd_write", 0, 0) == (0.0, 0.0)

    def test_unknown_syscall_is_a_loud_keyerror(self):
        with pytest.raises(KeyError, match="no cost entry"):
            self.model().per_call("fd_datasync")

    def test_every_shim_syscall_is_priced(self):
        # The cost table and the decorated surface must never drift:
        # a shim call the model cannot price would crash mid-replay.
        declared = set(WasiEnvironment.syscall_specs())
        assert declared <= set(_SERVICE)


# ----------------------------------------------------------------------
# Host-interface registry surface
# ----------------------------------------------------------------------

class TestHostInterfaceSurface:
    def test_specs_cover_the_preview1_surface(self):
        specs = WasiEnvironment.syscall_specs()
        assert set(specs) == {
            "args_sizes_get", "args_get", "environ_sizes_get",
            "environ_get", "clock_time_get", "random_get", "poll_oneoff",
            "fd_write", "fd_read", "fd_seek", "fd_close", "fd_fdstat_get",
            "path_open", "proc_exit",
        }
        for name, (params, results) in specs.items():
            assert isinstance(params, tuple) and isinstance(results, tuple)

    def test_imports_derive_from_decorators(self):
        env = WasiEnvironment()
        table = env.imports()
        assert set(table) == {
            (WasiEnvironment.MODULE, name)
            for name in WasiEnvironment.syscall_specs()
        }
        hf = table[(WasiEnvironment.MODULE, "clock_time_get")]
        assert hf.name == "clock_time_get"
        assert len(hf.params) == 3 and len(hf.results) == 1

    def test_recorder_buckets_key_on_log2_payload(self):
        env, _ = bound_env(seed=1)
        rand = env.imports()[(WasiEnvironment.MODULE, "random_get")].fn
        for nbytes in (3, 3, 64):
            rand(0, nbytes)
        entry = env.recorder.snapshot()["random_get"]
        assert entry["calls"] == 3 and entry["bytes"] == 70
        assert entry["buckets"] == {
            str(payload_bucket(3)): [2, 6],
            str(payload_bucket(64)): [1, 64],
        }

    def test_direct_reads_record_under_their_cost_name(self):
        env, interp = bound_env(
            files={"cold.bin": b"z" * 64}, direct=("cold.bin",)
        )
        memory = interp.memory
        # path string + one iovec in scratch memory.
        memory.store_bytes(256, b"cold.bin")
        env.path_open(fdt.PREOPEN_FD, 0, 256, 8, 0, 0, 0, 0, 512)
        fd = memory.load_u32(512)
        memory.store_u32(0, 64)   # iov base
        memory.store_u32(4, 64)   # iov len
        env.imports()[(WasiEnvironment.MODULE, "fd_read")].fn(fd, 0, 1, 128)
        counts = env.recorder.counts()
        assert counts["fd_read@direct"] == 1
        assert "fd_read" not in counts


# ----------------------------------------------------------------------
# Latency histograms
# ----------------------------------------------------------------------

class TestLatencyHistograms:
    def test_bucket_edges(self):
        assert latency_bucket(0.0) == 0
        assert latency_bucket(1e-9) == 1
        assert latency_bucket(255e-9) == 8
        assert latency_bucket(256e-9) == 9
        assert bucket_bounds(0) == (0, 1)
        assert bucket_bounds(9) == (256, 512)

    def test_histograms_from_dict_events(self):
        events = [
            {"name": SYSCALL_WASI,
             "args": {"sys": "fd_read", "calls": 10, "bytes": 640,
                      "per_call": 300e-9, "charged": 3e-6}},
            {"name": SYSCALL_WASI,
             "args": {"sys": "fd_read", "calls": 2, "bytes": 8,
                      "per_call": 150e-9, "charged": 3e-7}},
            {"name": "other", "args": {}},
        ]
        table = latency_histograms(events)
        assert set(table) == {"fd_read"}
        entry = table["fd_read"]
        assert entry["calls"] == 12 and entry["bytes"] == 648
        assert entry["buckets"] == {
            latency_bucket(150e-9): 2, latency_bucket(300e-9): 10,
        }
        encoded = histograms_to_json(table)
        assert all(
            isinstance(k, str) for k in encoded["fd_read"]["buckets"]
        )
        report = render_histograms(table)
        assert "fd_read: 12 calls" in report and "|@" in report

    def test_empty_trace_renders_a_notice(self):
        assert "no syscall.wasi" in render_histograms({})


# ----------------------------------------------------------------------
# Cross-tier bit-identity
# ----------------------------------------------------------------------

class TestCrossTierIdentity:
    @pytest.mark.parametrize(
        "workload", [w.name for w in WASI], ids=[w.name for w in WASI]
    )
    def test_tiers_agree_on_every_observable(self, workload):
        entry = next(w for w in WASI if w.name == workload)
        built = entry.build("mini")
        observed = {}
        for tier in TIERS:
            interp, env = instantiate(
                built.module, built.env_factory,
                tier=tier, collect_profile=False, track_pages=False,
            )
            interp.invoke("bench")
            observed[tier] = (
                {
                    name: read_array(interp, built.arrays[name]).tobytes()
                    for name in entry.check_arrays
                },
                env.fdtable.output(1),
                env.recorder.snapshot(),
            )
        baseline = observed[TIERS[0]]
        assert baseline[2], "workload made no recorded syscalls"
        for tier in TIERS[1:]:
            assert observed[tier] == baseline, tier

    @pytest.mark.parametrize("size", ["mini", "small"])
    def test_grep_stdout_bytes_match_reference(self, size):
        """Compared as bytes: at ``small`` the counts hold byte 0xa0,
        which a text decode would replace."""
        built = next(w for w in WASI if w.name == "wasi-grep").build(size)
        interp, env = instantiate(
            built.module, built.env_factory,
            collect_profile=False, track_pages=False,
        )
        interp.invoke("bench")
        assert env.fdtable.output(1) == filters.grep_expected_stdout(size)


# ----------------------------------------------------------------------
# End-to-end accounting
# ----------------------------------------------------------------------

class TestEndToEndAccounting:
    @pytest.fixture(scope="class")
    def traced(self):
        with tracing() as sink:
            measurement = run_benchmark(
                "wasi-grep", "wavm", "none", "x86_64",
                threads=1, size="mini", iterations=2, warmup=1,
            )
        return sink.events, measurement

    def test_measurement_carries_syscall_accounting(self, traced):
        _, m = traced
        assert m.syscall_seconds > 0
        assert set(m.syscall_stats) == {
            "fd_close", "fd_read", "fd_write", "path_open"
        }
        replayed = sum(e["seconds"] for e in m.syscall_stats.values())
        assert replayed == pytest.approx(
            m.syscall_seconds * m.threads * (2 + 1)  # iterations + warmup
        )

    def test_trace_reconciles_float_exactly(self, traced):
        events, m = traced
        assert trace_summary.reconcile(events, m) == []
        # The per-name kernel accounting is bit-identical, not close.
        assert trace_summary._replayed_syscalls(events) == m.syscall_stats

    def test_histograms_cover_the_syscall_census(self, traced):
        events, m = traced
        table = latency_histograms(events)
        assert set(table) == set(m.syscall_stats)
        for name, entry in table.items():
            assert entry["calls"] == m.syscall_stats[name]["calls"]
            assert entry["seconds"] == m.syscall_stats[name]["seconds"]
