"""Tests for the measurement engine: caching, invalidation, fan-out.

Mirrors the structure of ``test_profiles_cache.py`` for the disk-cache
behaviour, and adds the determinism guarantee the parallel path must
uphold: ``--jobs 4`` output is bit-identical to ``--jobs 1``.
"""

import dataclasses
import json
import multiprocessing
import os
import sys

import pytest

from repro.core import engine as engine_mod
from repro.core.engine import (
    MeasurementEngine,
    MeasurementRequest,
    SweepFailure,
    calibration_hash,
    measurement_from_json,
    measurement_to_json,
)
from repro.api import FIELDS, SweepSpec, run, to_csv
from repro.core import profiles
from repro.core.profiles import clear_profile_cache


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Point every cache at tmp_path; yields the measurements dir.

    Cache-writing tests ALSO pass this directory explicitly as
    ``cache_dir=`` so they cannot leak a stray ``.cache/measurements``
    into the working tree even if the default changes.
    """
    clear_profile_cache()
    engine_mod.reset_default_engine()
    monkeypatch.setattr(profiles, "cache_dir", tmp_path / "profiles")
    monkeypatch.setattr(engine_mod, "DEFAULT_DIR", tmp_path / "measurements")
    yield tmp_path / "measurements"
    clear_profile_cache()
    engine_mod.reset_default_engine()


REQUEST = MeasurementRequest(
    "trisolv", "wavm", "mprotect", "x86_64", threads=4, size="mini",
    iterations=2,
)


class TestMeasurementCache:
    def test_miss_then_hit(self, isolated_caches):
        eng = MeasurementEngine(cache_dir=isolated_caches)
        first = eng.measure_one(REQUEST)
        assert not first.cache_hit
        files = list(isolated_caches.glob("trisolv-mini-*.json"))
        assert len(files) == 1
        second = MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        assert second.cache_hit
        assert second.measurement == first.measurement

    def test_cache_disabled(self, isolated_caches):
        eng = MeasurementEngine(cache=False, cache_dir=isolated_caches)
        eng.measure_one(REQUEST)
        assert not list(isolated_caches.glob("*.json"))
        assert not eng.measure_one(REQUEST).cache_hit

    def test_distinct_configurations_distinct_entries(self, isolated_caches):
        eng = MeasurementEngine(cache_dir=isolated_caches)
        other = dataclasses.replace(REQUEST, strategy="none")
        keys = [eng.key_for(REQUEST), eng.key_for(other)]
        assert keys[0] != keys[1]
        eng.run([REQUEST, other])
        # One workload at one size: one shard, an entry per key.
        (shard,) = isolated_caches.glob("*.json")
        assert sorted(json.loads(shard.read_text())) == sorted(keys)

    def test_module_digest_invalidates_key(self, monkeypatch):
        eng = MeasurementEngine()
        before = eng.key_for(REQUEST)
        monkeypatch.setattr(
            engine_mod, "module_digest", lambda workload, size: "0" * 64
        )
        assert eng.key_for(REQUEST) != before

    def test_calibration_hash_invalidates_key(self, monkeypatch):
        eng = MeasurementEngine()
        before = eng.key_for(REQUEST)
        monkeypatch.setattr(
            engine_mod, "calibration_hash", lambda *a: "f" * 64
        )
        assert eng.key_for(REQUEST) != before

    def test_calibration_hash_tracks_constants(self, monkeypatch):
        from repro.runtimes import runtime_named

        engine_mod._calibration_memo.clear()
        # Also memoises wavm's runtime component.
        before = calibration_hash("wavm", "mprotect", "x86_64", "trisolv")
        with monkeypatch.context() as patch:
            patch.setattr(runtime_named("wavm"), "schedule_overhead", 9.99)
            engine_mod._calibration_memo.clear()
            after = calibration_hash("wavm", "mprotect", "x86_64", "trisolv")
            # Never hashed before the mutation: it can only see the old
            # constant through a component that clear() left behind.
            mutated_trap = calibration_hash("wavm", "trap", "x86_64", "trisolv")
        engine_mod._calibration_memo.clear()
        unmutated_trap = calibration_hash("wavm", "trap", "x86_64", "trisolv")
        engine_mod._calibration_memo.clear()
        assert after != before
        assert mutated_trap != unmutated_trap

    def test_memoised_components_hash_like_fresh_ones(self):
        """One pass over every configuration, sharing the component
        memo, hashes exactly as each configuration hashed alone."""
        from repro.isa import ISAS
        from repro.runtime.strategies import STRATEGIES
        from repro.runtimes import RUNTIMES

        configs = [
            (runtime, strategy, isa, "trisolv")
            for runtime in RUNTIMES for strategy in STRATEGIES for isa in ISAS
        ]
        engine_mod._calibration_memo.clear()
        warm = [calibration_hash(*config) for config in configs]
        alone = []
        for config in configs:
            engine_mod._calibration_memo.clear()
            alone.append(calibration_hash(*config))
        engine_mod._calibration_memo.clear()
        assert warm == alone

    def test_corrupt_entry_recomputed(self, isolated_caches):
        MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        path = next(isolated_caches.glob("*.json"))
        path.write_text("{not json")
        result = MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        assert not result.cache_hit
        assert result.measurement.median_iteration > 0
        # The corrupt file was overwritten with a valid entry.
        assert MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST).cache_hit

    @pytest.mark.parametrize("content", [
        "[]",
        "null",
        # An entry whose measurement has a field of the wrong type.
        pytest.param({"kernel_stats": []}, id="kernel_stats-list"),
    ])
    def test_non_object_entry_recomputed(self, isolated_caches, content):
        # Valid JSON that is not a shard, or an entry of the wrong
        # shape, is as corrupt as invalid JSON.
        eng = MeasurementEngine(cache_dir=isolated_caches)
        eng.measure_one(REQUEST)
        path = next(isolated_caches.glob("*.json"))
        if isinstance(content, dict):
            raw = json.loads(path.read_text())
            raw[eng.key_for(REQUEST)]["measurement"].update(content)
            content = json.dumps(raw)
        path.write_text(content)
        result = MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST)
        assert not result.cache_hit
        assert MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST).cache_hit

    def test_wrong_key_in_entry_recomputed(self, isolated_caches):
        """An entry filed under another key is never served."""
        eng = MeasurementEngine(cache_dir=isolated_caches)
        eng.measure_one(REQUEST)
        path = next(isolated_caches.glob("*.json"))
        (entry,) = json.loads(path.read_text()).values()
        path.write_text(json.dumps({"0" * 64: entry}))
        assert not MeasurementEngine(cache_dir=isolated_caches).measure_one(REQUEST).cache_hit

    def test_bad_entry_recomputes_only_its_cell(self, isolated_caches):
        """A malformed entry is a miss for its cell alone: its siblings
        in the shard stay hits, and the rewrite keeps them."""
        other = dataclasses.replace(REQUEST, strategy="none")
        eng = MeasurementEngine(cache_dir=isolated_caches)
        first = eng.run([REQUEST, other])
        (path,) = isolated_caches.glob("*.json")
        written = path.read_text()
        raw = json.loads(written)
        raw[eng.key_for(REQUEST)]["measurement"]["kernel_stats"] = []
        path.write_text(json.dumps(raw))
        again = MeasurementEngine(cache_dir=isolated_caches).run([REQUEST, other])
        assert [r.cache_hit for r in again] == [False, True]
        assert [r.measurement for r in again] == [r.measurement for r in first]
        assert path.read_text() == written

    def test_round_trip_is_exact(self):
        result = MeasurementEngine(cache=False).measure_one(REQUEST)
        encoded = json.dumps(measurement_to_json(result.measurement))
        decoded = measurement_from_json(json.loads(encoded))
        assert decoded == result.measurement


class TestParallelDeterminism:
    GRID = [
        MeasurementRequest(w, r, s, "x86_64", threads=t, size="mini",
                           iterations=2)
        for w in ("trisolv", "gemm")
        for r, s in (("wavm", "mprotect"), ("v8", "none"), ("wasm3", "trap"))
        for t in (1, 4)
    ]

    def test_jobs4_bit_identical_to_jobs1(self):
        serial = MeasurementEngine(jobs=1, cache=False).run(self.GRID)
        parallel = MeasurementEngine(jobs=4, cache=False).run(self.GRID)
        for s, p in zip(serial, parallel):
            assert p.measurement == s.measurement  # floats exact, not approx
        # The serialised artefacts match byte for byte.
        serial_blob = json.dumps(
            [measurement_to_json(r.measurement) for r in serial]
        )
        parallel_blob = json.dumps(
            [measurement_to_json(r.measurement) for r in parallel]
        )
        assert parallel_blob == serial_blob

    def test_parallel_populates_shared_cache(self, isolated_caches):
        MeasurementEngine(jobs=4, cache_dir=isolated_caches).run(self.GRID)
        results = MeasurementEngine(jobs=1, cache_dir=isolated_caches).run(self.GRID)
        assert all(r.cache_hit for r in results)

    def test_serial_and_pooled_shards_are_byte_identical(self, tmp_path):
        """Entries are sorted by key, so a shard's bytes do not depend
        on the order its cells finished in."""
        shards = {}
        for jobs in (1, 2):
            directory = tmp_path / f"jobs{jobs}"
            MeasurementEngine(jobs=jobs, cache_dir=directory).run(self.GRID)
            shards[jobs] = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert len(shards[1]) == 2  # trisolv and gemm
        assert shards[2] == shards[1]

    def test_duplicate_requests_computed_once(self):
        eng = MeasurementEngine(cache=False)
        results = eng.run([REQUEST, REQUEST, REQUEST])
        assert len(results) == 3
        assert results[0].measurement == results[1].measurement


class TestStaticStrategies:
    def test_warm_pool_measures_cheri(self, isolated_caches):
        """``cheri`` is registered at import, so a worker pool measures
        it like any other strategy, after an earlier grid too."""
        eng = MeasurementEngine(jobs=2, cache_dir=isolated_caches)
        eng.run(TestParallelDeterminism.GRID[:4])
        results = eng.run(
            [
                dataclasses.replace(REQUEST, strategy="cheri", threads=t)
                for t in (1, 4)
            ]
        )
        assert [r.measurement.strategy for r in results] == ["cheri", "cheri"]


class TestAutoJobs:
    """--jobs auto: size the pool to the machine, serial when it loses.

    On a 1-cpu host a pool only adds cost: forking workers and
    importing the stack in each, with nothing for them to overlap.
    """

    def test_auto_is_serial_on_single_cpu(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
        assert engine_mod.resolve_jobs("auto") == 1

    def test_auto_matches_cpus_with_a_cap(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 4)
        assert engine_mod.resolve_jobs("auto") == 4
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 32)
        assert engine_mod.resolve_jobs("auto") == 8
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: None)
        assert engine_mod.resolve_jobs("auto") == 1

    def test_explicit_jobs_unchanged(self):
        assert engine_mod.resolve_jobs(1) == 1
        assert engine_mod.resolve_jobs(4) == 4
        assert engine_mod.resolve_jobs(0) == 1

    def test_cli_default_is_auto(self):
        import argparse

        from repro.core import cliopts

        parser = argparse.ArgumentParser(parents=[cliopts.sweep_parent()])
        assert parser.parse_args([]).jobs == "auto"
        assert parser.parse_args(["--jobs", "4"]).jobs == 4

    def test_configure_accepts_auto(self, monkeypatch):
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
        assert engine_mod.configure(jobs="auto").jobs == 1


def _synthetic_measurement(request: MeasurementRequest, wall: float):
    """A valid RunMeasurement without paying for a simulator run."""
    from repro.core.harness import RunMeasurement
    from repro.oskernel.procstat import UtilisationSample

    return RunMeasurement(
        workload=request.workload,
        runtime=request.runtime,
        strategy=request.strategy,
        isa=request.isa,
        threads=request.threads,
        size=request.size,
        iteration_seconds=[wall / request.iterations] * request.iterations,
        wall_seconds=wall,
        utilisation=UtilisationSample(wall, wall, 100.0, 90.0, 10.0, 0.0, 5.0),
        mem_avg_bytes=1 << 20,
        kernel_stats={},
        mmap_read_wait=0.0,
        mmap_write_wait=0.0,
        compute_seconds=wall,
        bounds_checks={},
    )


class TestFaultIsolation:
    """One poisoned config must not abort the sweep (serial or pooled)."""

    GOOD = [
        dataclasses.replace(REQUEST, strategy=s)
        for s in ("none", "mprotect", "clamp")
    ]
    POISON = dataclasses.replace(REQUEST, strategy="trap")

    def _poison_trap(self, monkeypatch):
        real = engine_mod.run_benchmark

        def fake(**payload):
            if payload["strategy"] == "trap":
                raise RuntimeError("simulated poisoned config")
            return real(**payload)

        monkeypatch.setattr(engine_mod, "run_benchmark", fake)

    def test_serial_failure_reported_after_the_rest_ran(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=1, cache_dir=isolated_caches)
        grid = self.GOOD + [self.POISON]
        with pytest.raises(SweepFailure) as excinfo:
            eng.run(grid)
        failure = excinfo.value
        assert len(failure.errors) == 1
        assert failure.errors[0].kind == "RuntimeError"
        assert "poisoned" in failure.errors[0].message
        assert failure.errors[0].request == self.POISON
        assert self.POISON.label() in str(failure)
        # Every other request completed and carries a measurement.
        assert len(failure.results) == 4
        assert sum(1 for r in failure.results if r.ok) == 3
        # ... and was cached: a clean retry of the good cells is free.
        retry = MeasurementEngine(cache_dir=isolated_caches).run(self.GOOD)
        assert all(r.cache_hit for r in retry)

    def _assert_per_row_results(self, failure, cache_dir):
        """``failure.results`` has every row in request order, the
        poisoned one without a measurement; nothing failed is cached."""
        results = failure.results
        assert [r.ok for r in results] == [True, True, True, False]
        assert [r.measurement.strategy for r in results[:3]] == [
            r.strategy for r in self.GOOD
        ]
        bad = results[-1]
        assert bad.measurement is None
        assert bad.error.kind == "RuntimeError"
        assert bad.error.request == self.POISON
        # Failed requests are never cached — the next run retries them.
        with pytest.raises(SweepFailure) as again:
            MeasurementEngine(cache_dir=cache_dir).run([self.POISON])
        retried = again.value.results[0]
        assert not retried.ok and not retried.cache_hit

    def test_failure_carries_per_row_results(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=1, cache_dir=isolated_caches)
        with pytest.raises(SweepFailure) as excinfo:
            eng.run(self.GOOD + [self.POISON])
        self._assert_per_row_results(excinfo.value, isolated_caches)

    def test_pool_failure_keeps_and_caches_other_results(
        self, isolated_caches, monkeypatch
    ):
        self._poison_trap(monkeypatch)
        eng = MeasurementEngine(jobs=2, cache_dir=isolated_caches)
        with pytest.raises(SweepFailure) as excinfo:
            eng.run(self.GOOD + [self.POISON])
        assert not multiprocessing.active_children()
        assert [e.request for e in excinfo.value.errors] == [self.POISON]
        self._assert_per_row_results(excinfo.value, isolated_caches)
        # The siblings' results survived the worker exception and were
        # written to the shared disk cache.
        retry = MeasurementEngine(cache_dir=isolated_caches).run(self.GOOD)
        assert all(r.cache_hit for r in retry)


class TestNoStateBetweenSweeps:
    """Between runs the engine keeps nothing but its cache files."""

    def test_no_worker_outlives_a_pooled_run(self):
        MeasurementEngine(jobs=2, cache=False).run(
            TestParallelDeterminism.GRID[:3]
        )
        assert not multiprocessing.active_children()

    def test_configure_leaves_the_environment_alone(self, tmp_path):
        before = dict(os.environ)
        engine_mod.configure(cache_dir=tmp_path / "base")
        assert dict(os.environ) == before
        engine_mod.configure(jobs=1)
        assert dict(os.environ) == before

    def test_cache_dir_moves_both_caches(self, tmp_path, monkeypatch):
        """Spawned workers inherit no module state: they profile into
        ``--cache-dir`` only because the pool initializer says so."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            engine_mod, "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        base = tmp_path / "base"
        engine_mod.configure(jobs=2, cache_dir=base)
        engine_mod.default_engine().run(
            [REQUEST, dataclasses.replace(REQUEST, strategy="none")]
        )
        written = sorted(
            p.relative_to(tmp_path).parent.as_posix()
            for p in tmp_path.rglob("trisolv-mini-*.json")
        )
        assert written == ["base/measurements", "base/profiles"]
        (shard,) = (base / "measurements").iterdir()
        assert len(json.loads(shard.read_text())) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base"]
        # Without a cache_dir, profiles are back in their default place.
        engine_mod.configure(jobs=1)
        assert profiles.cache_dir == profiles.DEFAULT_DIR

    def test_no_cache_reads_and_writes_neither_cache(self, tmp_path):
        engine_mod.configure(jobs=1, cache=False, cache_dir=tmp_path)
        result = engine_mod.default_engine().measure_one(REQUEST)
        assert not result.cache_hit
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def _synthetic_entry(request: MeasurementRequest, wall: float) -> dict:
    """A shard entry as the engine writes it, for a synthetic value."""
    return {
        "request": request.to_json(),
        "measurement": measurement_to_json(
            _synthetic_measurement(request, wall=wall)
        ),
    }


class TestShardWrites:
    """Each run reads a shard at most once and writes it at most once."""

    def test_warm_run_reads_each_shard_once_and_writes_none(
        self, isolated_caches, monkeypatch
    ):
        grid = TestParallelDeterminism.GRID
        eng = MeasurementEngine(cache_dir=isolated_caches)
        for request in grid:
            eng._store(
                eng._path_for(request),
                {eng.key_for(request): _synthetic_entry(request, wall=1.0)},
            )
        reads, writes = [], []
        real_read = engine_mod.read_entry

        def counted_read(path, decode):
            reads.append(path.name)
            return real_read(path, decode)

        monkeypatch.setattr(engine_mod, "read_entry", counted_read)
        monkeypatch.setattr(
            engine_mod, "write_entry", lambda *args: writes.append(args)
        )
        results = MeasurementEngine(cache_dir=isolated_caches).run(grid)
        assert all(r.cache_hit for r in results)
        assert {r.measurement.wall_seconds for r in results} == {1.0}
        assert sorted(reads) == sorted(p.name for p in isolated_caches.iterdir())
        assert len(reads) == 2  # trisolv and gemm
        assert writes == []

    def test_cold_run_writes_each_shard_once(self, isolated_caches, monkeypatch):
        grid = TestParallelDeterminism.GRID
        writes = []
        real_write = engine_mod.write_entry

        def counted_write(path, entry):
            writes.append(path.name)
            real_write(path, entry)

        monkeypatch.setattr(
            engine_mod, "run_benchmark",
            lambda **payload: _synthetic_measurement(
                MeasurementRequest(**payload), wall=1.0
            ),
        )
        monkeypatch.setattr(engine_mod, "write_entry", counted_write)
        MeasurementEngine(cache_dir=isolated_caches).run(grid)
        assert sorted(writes) == sorted(p.name for p in isolated_caches.iterdir())
        assert len(writes) == 2  # trisolv and gemm
        assert sum(
            len(json.loads(p.read_text())) for p in isolated_caches.iterdir()
        ) == len(grid)

    def test_interrupt_keeps_the_cells_it_finished(
        self, isolated_caches, monkeypatch
    ):
        """An exception no cell catches still leaves every finished cell
        on disk: the earlier workload's shard was written when its last
        miss finished, the interrupted one's on the way out."""
        trisolv = [dataclasses.replace(REQUEST, threads=t) for t in (1, 4)]
        gemm = [dataclasses.replace(r, workload="gemm") for r in trisolv]

        def fake(**payload):
            request = MeasurementRequest(**payload)
            if request == trisolv[1]:
                raise KeyboardInterrupt
            return _synthetic_measurement(request, wall=1.0)

        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "run_benchmark", fake)
            with pytest.raises(KeyboardInterrupt):
                # Misses run workload-major: gemm's, then trisolv's.
                MeasurementEngine(cache_dir=isolated_caches).run(trisolv + gemm)
        eng = MeasurementEngine(cache_dir=isolated_caches)
        shards = {
            p.name.split("-")[0]: set(json.loads(p.read_text()))
            for p in isolated_caches.glob("*.json")
        }
        assert shards == {
            "gemm": {eng.key_for(r) for r in gemm},
            "trisolv": {eng.key_for(trisolv[0])},
        }
        retry = eng.run(gemm + trisolv[:1])
        assert all(r.cache_hit for r in retry)


def _hammer_cache(cache_dir: str, key: str, wall: float, walls: dict,
                  must_hit: bool, rounds: int) -> None:
    """Child-process body for the concurrent-writer tests.

    Stores its own value under ``key`` in REQUEST's shard over and
    over, checking that every read parses as ONE complete shard in
    which each key holds a value stored under that key (``walls``: key
    -> the values written under it).  A torn or interleaved write would
    fail JSON parsing or produce a value no process wrote there.  With
    ``must_hit``, every key of ``walls`` must also read back through
    the engine's loader.  Exit code carries the verdict.
    """
    eng = MeasurementEngine(cache_dir=cache_dir)
    path = eng._path_for(REQUEST)
    mine = {key: _synthetic_entry(REQUEST, wall)}
    for _ in range(rounds):
        eng._store(path, mine)
        try:
            read = {
                k: measurement_from_json(v["measurement"]).wall_seconds
                for k, v in json.loads(path.read_text()).items()
            }
        except (ValueError, KeyError, TypeError) as exc:
            print(f"torn read: {exc}", file=sys.stderr)
            sys.exit(1)
        if not read:
            print("shard emptied", file=sys.stderr)
            sys.exit(1)
        if any(w not in walls.get(k, ()) for k, w in read.items()):
            print(f"foreign value: {read}", file=sys.stderr)
            sys.exit(1)
        # Also exercise the engine's own (corruption-masking) loader as
        # a second concurrent reader: it hides a torn or missing shard
        # as a miss, so a key every writer stores must never miss.
        for k, allowed in walls.items():
            loaded = eng._load(path, k, {})
            if loaded is None:
                if must_hit:
                    print("entry vanished", file=sys.stderr)
                    sys.exit(1)
            elif loaded.wall_seconds not in allowed:
                print(f"foreign value: {loaded.wall_seconds}", file=sys.stderr)
                sys.exit(1)
    sys.exit(0)


class TestConcurrentCacheWriters:
    def _hammer(self, cache_dir, keys, walls, must_hit):
        children = [
            multiprocessing.Process(
                target=_hammer_cache,
                args=(str(cache_dir), key, wall, walls, must_hit, 150),
            )
            for key, wall in zip(keys, (1.0, 2.0))
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert [child.exitcode for child in children] == [0, 0]
        # No stray tmp files were left behind.
        assert not list(cache_dir.glob("*.tmp.*"))

    def test_two_processes_no_torn_reads(self, isolated_caches):
        """Two writers on one key: atomic replace keeps reads whole."""
        eng = MeasurementEngine(cache_dir=isolated_caches)
        key = eng.key_for(REQUEST)  # also warms the digest memos pre-fork
        path = eng._path_for(REQUEST)
        eng._store(path, {key: _synthetic_entry(REQUEST, wall=1.0)})
        # The key is stored before either child starts and both write
        # it, so a miss can only be a torn or vanished shard.
        self._hammer(
            isolated_caches, [key, key], {key: (1.0, 2.0)}, must_hit=True
        )
        # The surviving entry is a complete write from one of the two.
        final = MeasurementEngine(cache_dir=isolated_caches)._load(path, key, {})
        assert final is not None and final.wall_seconds in (1.0, 2.0)

    def test_two_processes_on_different_keys_of_one_shard(self, isolated_caches):
        """Two writers on two keys of one shard: the last replace can
        drop the other's newest entry, but never tears a read or files
        a value under a key it was not written under."""
        eng = MeasurementEngine(cache_dir=isolated_caches)
        other = dataclasses.replace(REQUEST, strategy="none")
        keys = [eng.key_for(REQUEST), eng.key_for(other)]
        path = eng._path_for(REQUEST)
        assert eng._path_for(other) == path
        # The last replace can drop the other writer's key: a miss.
        self._hammer(
            isolated_caches, keys, {keys[0]: (1.0,), keys[1]: (2.0,)},
            must_hit=False,
        )
        final = {
            key: MeasurementEngine(cache_dir=isolated_caches)._load(path, key, {})
            for key in keys
        }
        assert any(m is not None for m in final.values())
        for key, wall in zip(keys, (1.0, 2.0)):
            assert final[key] is None or final[key].wall_seconds == wall


class TestSweepIntegration:
    SPEC = SweepSpec(
        workloads=["trisolv", "gemm"],
        runtimes=["wavm"],
        strategies=["none", "mprotect"],
        size="mini",
        iterations=2,
    )

    def test_rows_carry_cache_and_elapsed_columns(self, isolated_caches):
        rows = run(self.SPEC, engine=MeasurementEngine(cache_dir=isolated_caches))
        assert {"cache_hit", "elapsed_s"} <= set(FIELDS)
        for row in rows:
            assert row["cache_hit"] in (0, 1)
            assert row["elapsed_s"] >= 0
        again = run(self.SPEC, engine=MeasurementEngine(cache_dir=isolated_caches))
        assert all(row["cache_hit"] == 1 for row in again)

    def test_requests_are_workload_major(self):
        requests = self.SPEC.requests()
        workloads = [r.workload for r in requests]
        assert workloads == ["trisolv", "trisolv", "gemm", "gemm"]

    def test_csv_includes_extra_row_keys(self):
        rows = run(self.SPEC, engine=MeasurementEngine(cache=False))
        rows[0]["note"] = "ad-hoc"
        text = to_csv(rows)
        header = text.splitlines()[0]
        assert header.startswith("workload,runtime,strategy")
        assert "cache_hit" in header and "elapsed_s" in header
        assert header.endswith(",note")
