"""Tests for the differential-correctness harness.

Green paths for every phase, synthetic-violation detection for the
report machinery, and — the acceptance criterion — proof that
re-introducing any of the latent bugs fixed alongside the harness
(endpoint-only page touching, zero-delta grow events, silent geomean
intersection) makes the axiom phase fail.
"""

import json

import pytest

from repro.compiler import bce as bce_pass
from repro.core.harness import RunMeasurement
from repro.diffcheck import cli as diffcheck_cli
from repro.diffcheck import fuzz as fuzz_mod
from repro.diffcheck.axioms import (
    AXIOM_GEOMEAN,
    AXIOM_GROW0,
    AXIOM_MTE_RETAG,
    AXIOM_SEGMENT,
    AXIOM_TOUCH,
    AXIOM_W64_BCE,
    AXIOM_W64_GUARD,
    check_axioms,
)
from repro.diffcheck.fuzz import (
    CHECK_COST_COUNTERS,
    CHECK_COST_MONOTONE,
    CHECK_PAGES,
    check_case,
    check_fuzz,
    outcome_of,
)
from repro.diffcheck.genome import (
    build_genome_module,
    genome_from_json,
    genome_from_seed,
    genome_to_json,
)
from repro.diffcheck.invariants import (
    CHECK_COMPUTE_CONST,
    CHECK_COMPUTE_ORDER,
    CHECK_CPU_MONOTONE,
    CHECK_MEDIAN_ORDER,
    CHECK_MEM_SAMPLED,
    CHECK_MTE_NO_VMA,
    CHECK_MTE_SCALING,
    CHECK_PAGES_EQUAL,
    INVARIANTS,
    check_invariants,
)
from repro.diffcheck.reference import (
    CHECK_OUTPUT,
    StrategyObservation,
    check_reference,
    check_workload,
    observe,
)
from repro.diffcheck.report import DiffReport, Violation, violation_from_json
from repro.oskernel.procstat import UtilisationSample
from repro.runtime.memory import LinearMemory, MemoryEvent
from repro.stats import summary as summary_stats

pytestmark = pytest.mark.diff


# ---------------------------------------------------------------------------
# Report machinery


class TestReport:
    def test_pass_fail_counting(self):
        report = DiffReport()
        assert report.check("x", True)
        assert not report.check("x", False, subject={"w": "gemm"}, detail="boom")
        report.skip("x", 2)
        assert not report.ok
        assert report.checks_run == 2
        counts = report.counts["x"]
        assert (counts.passed, counts.failed, counts.skipped) == (1, 1, 2)

    def test_json_roundtrip_merge(self):
        a = DiffReport()
        a.check("c1", False, subject={"k": 1}, detail="d", expected={2}, actual=(3,))
        a.skip("c2")
        b = DiffReport()
        b.merge_json(a.to_json())
        b.merge_json(a.to_json())
        assert len(b.violations) == 2
        assert b.counts["c1"].failed == 2
        assert b.counts["c2"].skipped == 2
        # expected/actual got coerced to JSON-stable plain data
        assert b.violations[0].expected == [2]
        assert b.violations[0].actual == [3]

    def test_violation_render_and_json(self):
        v = Violation("sweep.x", {"workload": "gemm"}, "ordering violated",
                      expected="a >= b", actual={"a": 1.0})
        line = v.render()
        assert "sweep.x" in line and "workload=gemm" in line
        assert violation_from_json(v.to_json()).check == "sweep.x"


# ---------------------------------------------------------------------------
# Axioms: green, then each satellite bug re-introduced


def _axiom_report() -> DiffReport:
    report = DiffReport()
    check_axioms(report)
    return report


def _failed_checks(report: DiffReport) -> set:
    return {v.check for v in report.violations}


class TestAxioms:
    def test_fixed_substrate_passes(self):
        report = _axiom_report()
        assert report.ok, [v.render() for v in report.violations]
        assert report.checks_run >= 15

    def test_endpoint_only_touch_bug_detected(self, monkeypatch):
        def buggy_touch(self, address, size):
            first = address >> 12
            last = (address + size - 1) >> 12
            self.touched_pages.add(first)
            if last != first:
                self.touched_pages.add(last)

        monkeypatch.setattr(LinearMemory, "_touch", buggy_touch)
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_TOUCH in _failed_checks(report)
        assert AXIOM_SEGMENT in _failed_checks(report)

    def test_grow_zero_event_bug_detected(self, monkeypatch):
        def buggy_grow(self, delta_pages):
            if delta_pages < 0:
                return -1
            new_pages = self.pages + delta_pages
            if new_pages > self.max_pages:
                return -1
            old_pages = self.pages
            self.events.append(MemoryEvent("grow", old_pages, new_pages))
            self.pages = new_pages
            self.data.extend(bytes(delta_pages * 65536))
            return old_pages

        monkeypatch.setattr(LinearMemory, "grow", buggy_grow)
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_GROW0 in _failed_checks(report)

    def test_silent_geomean_intersection_bug_detected(self, monkeypatch):
        from repro.stats.summary import geomean

        def buggy(measured, baseline, allow_missing=False):
            common = sorted(set(measured) & set(baseline))
            if not common:
                raise ValueError("no common benchmarks")
            return geomean(measured[n] / baseline[n] for n in common)

        monkeypatch.setattr(summary_stats, "geomean_of_ratios", buggy)
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_GEOMEAN in _failed_checks(report)

    def test_wrong_retag_granule_detected(self, monkeypatch):
        # Re-introduce the bug the granule axiom exists for: an mte
        # registration that retags whole 4 KiB pages instead of the
        # architectural 16-byte granules — grow then under-counts the
        # STG work by 256x and the strategy looks nearly free.
        from dataclasses import replace

        from repro.runtime.strategies import STRATEGIES, strategy_named

        monkeypatch.setitem(
            STRATEGIES, "mte", replace(strategy_named("mte"), tag_granule=4096)
        )
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_MTE_RETAG in _failed_checks(report)

    def test_retag_accounting_dropped_detected(self, monkeypatch):
        # A grow that forgets to record retag work entirely.
        def buggy_grow(self, delta_pages):
            if delta_pages < 0:
                return -1
            new_pages = self.pages + delta_pages
            if new_pages > self.max_pages:
                return -1
            old_pages = self.pages
            if delta_pages == 0:
                return old_pages
            self.events.append(MemoryEvent("grow", old_pages, new_pages))
            self.pages = new_pages
            self.data.extend(bytes(delta_pages * 65536))
            return old_pages

        monkeypatch.setattr(LinearMemory, "grow", buggy_grow)
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_MTE_RETAG in _failed_checks(report)

    def test_wasm64_guard_elision_detected(self, monkeypatch):
        # Re-enable the affine pooled guard for 64-bit memories — the
        # elision is only sound when the 8 GiB guard region absorbs
        # the unchecked intermediate accesses, so the BCE-legality
        # axiom must flag it.
        from repro.compiler import pipeline as pipeline_mod

        monkeypatch.setattr(
            pipeline_mod, "_affine_guard_allowed", lambda strategy: True
        )
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_W64_BCE in _failed_checks(report)

    def test_wasm64_guard_absorption_detected(self, monkeypatch):
        # A memory layer that forgets memory64 and lets the guard
        # region swallow far accesses under wasm64.
        real_init = LinearMemory.__init__

        def buggy_init(self, limits, strategy=None, track_pages=True,
                       memory64=False):
            real_init(self, limits, strategy, track_pages, memory64=False)
            self.memory64 = False  # guard-region semantics for everyone

        monkeypatch.setattr(LinearMemory, "__init__", buggy_init)
        report = _axiom_report()
        assert not report.ok
        assert AXIOM_W64_GUARD in _failed_checks(report)


# ---------------------------------------------------------------------------
# Reference phase


class TestReference:
    def test_observation_is_deterministic(self):
        first = observe("trisolv", "mini", "trap")
        second = observe("trisolv", "mini", "trap")
        assert first == second
        assert first.trap is None
        assert first.loads > 0 and first.stores > 0 and first.pages > 0

    def test_single_workload_all_strategies_agree(self):
        report = check_workload("gemm", "mini")
        assert report.ok, [v.render() for v in report.violations]
        assert report.counts[CHECK_OUTPUT].passed == 6  # vs 6 non-base strategies

    def test_fanout_matches_serial(self):
        serial, parallel = DiffReport(), DiffReport()
        names = ["trisolv", "durbin"]
        check_reference(names, "mini", ["none", "trap"], serial, jobs=1)
        check_reference(names, "mini", ["none", "trap"], parallel, jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.ok

    def test_divergent_observation_is_reported(self, monkeypatch):
        real_observe = observe

        def perturbed(workload, size, strategy):
            obs = real_observe(workload, size, strategy)
            if strategy == "clamp":  # simulate a strategy changing results
                return StrategyObservation(
                    workload=obs.workload, size=obs.size, strategy=obs.strategy,
                    outputs=tuple((n, "0" * 64) for n, _ in obs.outputs),
                    loads=obs.loads + 1, stores=obs.stores,
                    pages=obs.pages, pages_digest=obs.pages_digest,
                )
            return obs

        import repro.diffcheck.reference as reference_mod

        monkeypatch.setattr(reference_mod, "observe", perturbed)
        report = check_workload("trisolv", "mini")
        failed = _failed_checks(report)
        assert "ref.output-equivalence" in failed
        assert "ref.loadstore-equivalence" in failed


# ---------------------------------------------------------------------------
# Sweep invariants over synthetic measurements


def _measurement(
    strategy="trap",
    threads=1,
    median=2.0,
    compute=1.0,
    busy=4.0,
    pages=100,
    mem=1000.0,
    wall=1.0,
    workload="gemm",
    mprotect_calls=None,
) -> RunMeasurement:
    kernel_stats = {"pages_populated": pages}
    if mprotect_calls is not None:
        kernel_stats["mprotect_calls"] = mprotect_calls
    return RunMeasurement(
        workload=workload, runtime="wavm", strategy=strategy, isa="x86_64",
        threads=threads, size="mini",
        iteration_seconds=[median, median],
        wall_seconds=wall,
        utilisation=UtilisationSample(
            elapsed=wall, busy_time=busy, utilisation_percent=50.0,
            user_percent=40.0, sys_percent=10.0, irq_percent=0.0,
            context_switches_per_sec=100.0,
        ),
        mem_avg_bytes=mem,
        kernel_stats=kernel_stats,
        mmap_read_wait=0.0, mmap_write_wait=0.0,
        compute_seconds=compute,
    )


class TestInvariants:
    def test_catalogue_is_documented(self):
        for check_id, description in INVARIANTS.items():
            assert check_id.startswith("sweep.") and description

    def test_consistent_grid_passes(self):
        rows = [
            _measurement(strategy=s, threads=t, compute=c, median=c * 2,
                         busy=4.0 * t)
            for (s, c) in [("none", 1.0), ("clamp", 1.5), ("trap", 1.2),
                           ("mprotect", 1.1), ("uffd", 1.05)]
            for t in (1, 4)
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert report.ok, [v.render() for v in report.violations]

    def test_inline_cost_order_violation(self):
        rows = [
            _measurement(strategy="trap", compute=1.0),
            _measurement(strategy="clamp", compute=0.5),  # cheaper than trap!
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_COMPUTE_ORDER in _failed_checks(report)

    def test_median_order_violation(self):
        rows = [
            _measurement(strategy="none", compute=1.0, median=3.0),
            _measurement(strategy="trap", compute=1.2, median=2.0),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_MEDIAN_ORDER in _failed_checks(report)

    def test_pages_divergence_detected(self):
        rows = [
            _measurement(strategy="trap", pages=100),
            _measurement(strategy="uffd", compute=0.9, median=1.9, pages=101),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_PAGES_EQUAL in _failed_checks(report)

    def test_sampled_memory_spread_detected(self):
        rows = [
            _measurement(strategy="trap", mem=1000.0),
            _measurement(strategy="uffd", compute=0.9, median=1.9, mem=5000.0),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_MEM_SAMPLED in _failed_checks(report)

    def test_undersampled_memory_is_skipped_not_failed(self):
        rows = [
            _measurement(strategy="trap", mem=1000.0, wall=0.004),
            _measurement(strategy="uffd", compute=0.9, median=1.9,
                         mem=5000.0, wall=0.004),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_MEM_SAMPLED not in _failed_checks(report)
        assert report.counts[CHECK_MEM_SAMPLED].skipped == 1

    def test_cpu_monotonicity_violation(self):
        rows = [
            _measurement(threads=1, busy=4.0),
            _measurement(threads=4, busy=3.0),  # busy time dropped
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_CPU_MONOTONE in _failed_checks(report)

    def test_thread_dependent_compute_detected(self):
        rows = [
            _measurement(threads=1, compute=1.0),
            _measurement(threads=4, compute=1.3),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_COMPUTE_CONST in _failed_checks(report)

    def test_mte_scaling_collapse_detected(self):
        # mte degrading under threads like mprotect (mmap_lock convoy
        # shape) violates the flatness invariant; the reverse grid,
        # with mprotect collapsing and mte flat, is the expected shape.
        bad = [
            _measurement(strategy="mprotect", threads=1, median=2.0),
            _measurement(strategy="mprotect", threads=16, median=2.2,
                         busy=64.0),
            _measurement(strategy="mte", threads=1, median=1.9,
                         compute=1.05, mprotect_calls=1),
            _measurement(strategy="mte", threads=16, median=4.0,
                         compute=1.05, busy=64.0, mprotect_calls=16),
        ]
        report = DiffReport()
        check_invariants(bad, report)
        assert CHECK_MTE_SCALING in _failed_checks(report)

        good = [
            _measurement(strategy="mprotect", threads=1, median=2.0),
            _measurement(strategy="mprotect", threads=16, median=4.0,
                         busy=64.0),
            _measurement(strategy="mte", threads=1, median=1.9,
                         compute=1.05, mprotect_calls=1),
            _measurement(strategy="mte", threads=16, median=1.9,
                         compute=1.05, busy=64.0, mprotect_calls=16),
        ]
        report = DiffReport()
        check_invariants(good, report)
        assert CHECK_MTE_SCALING not in _failed_checks(report)

    def test_mte_vma_traffic_detected(self):
        # An mte row whose kernel stats show mprotect calls beyond the
        # one-per-worker arena setup leaked VMA traffic.
        rows = [
            _measurement(strategy="mte", threads=4, compute=1.05,
                         median=2.1, mprotect_calls=12, busy=16.0),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_MTE_NO_VMA in _failed_checks(report)

        rows = [
            _measurement(strategy="mte", threads=4, compute=1.05,
                         median=2.1, mprotect_calls=4, busy=16.0),
        ]
        report = DiffReport()
        check_invariants(rows, report)
        assert CHECK_MTE_NO_VMA not in _failed_checks(report)
        assert report.counts[CHECK_MTE_NO_VMA].passed == 1


# ---------------------------------------------------------------------------
# Fuzz phase


class TestFuzz:
    def test_seeded_generation_is_deterministic(self):
        from repro.wasm import encode_module

        first = encode_module(build_genome_module(genome_from_seed(7)))
        second = encode_module(build_genome_module(genome_from_seed(7)))
        assert first == second

    def test_genome_json_roundtrip(self):
        genome = genome_from_seed(9)
        assert genome_from_json(genome_to_json(genome)) == genome

    def test_cases_pass_on_fixed_substrate(self):
        report = DiffReport()
        for seed in range(25):
            check_case(seed, report)
        assert report.ok, [v.render() for v in report.violations]
        assert report.checks_run >= 100

    def test_fanout_matches_serial(self):
        serial, parallel = DiffReport(), DiffReport()
        check_fuzz(12, 100, serial, jobs=1)
        check_fuzz(12, 100, parallel, jobs=3)
        assert serial.to_json() == parallel.to_json()

    def test_nondeterministic_encoder_detected(self, monkeypatch):
        real_encode = fuzz_mod.encode_module
        calls = {"n": 0}

        def flaky_encode(module):
            calls["n"] += 1
            raw = real_encode(module)
            if calls["n"] % 2 == 0:  # second encode differs
                raw += b"\x00\x00"
            return raw

        monkeypatch.setattr(fuzz_mod, "encode_module", flaky_encode)
        report = DiffReport()
        check_case(0, report)
        assert "fuzz.encode-idempotence" in _failed_checks(report)

    def test_outcomes_cover_values_and_traps(self):
        kinds = set()
        for seed in range(60):
            genome = genome_from_seed(seed)
            module = build_genome_module(genome)
            kinds.add(outcome_of(module, genome.arg, "trap")[0])
        assert kinds == {"value", "trap"}  # trap-prone statements do fire


def _endpoint_only_touch(self, address, size):
    """The interior-page regression: only first/last page recorded."""
    if not self.track_pages or size <= 0:
        return
    self.touched_pages.add(address >> 12)
    self.touched_pages.add((address + size - 1) >> 12)


class TestSeededRegression:
    """A bug seeded into the substrate or the compiler is found within
    60 fuzz cases from seed 0, by the oracle that owns it."""

    @staticmethod
    def _fuzz_failures() -> set:
        report = DiffReport()
        check_fuzz(60, 0, report)
        return _failed_checks(report)

    def test_interior_page_bug_found(self, monkeypatch):
        monkeypatch.setattr(LinearMemory, "_touch", _endpoint_only_touch)
        assert CHECK_PAGES in self._fuzz_failures()

    def test_unrecorded_elision_breaks_conservation(self, monkeypatch):
        monkeypatch.setattr(
            bce_pass, "_record_elision", lambda stats, block_id: None
        )
        assert CHECK_COST_COUNTERS in self._fuzz_failures()

    def test_guards_in_loop_header_break_monotonicity(self, monkeypatch):
        # Hoisted guards appended to the loop header, which runs every
        # iteration, instead of the preheader, which runs once.
        blocks = []
        loop_phase = bce_pass._loop_phase
        append = bce_pass._append_before_terminator

        def recording_loop_phase(irf, stats, affine_guard_ok=True):
            blocks[:] = irf.blocks
            loop_phase(irf, stats, affine_guard_ok)

        def append_to_header(preheader, ins):
            index = next(i for i, b in enumerate(blocks) if b is preheader)
            append(blocks[index + 1], ins)

        monkeypatch.setattr(bce_pass, "_loop_phase", recording_loop_phase)
        monkeypatch.setattr(
            bce_pass, "_append_before_terminator", append_to_header
        )
        assert CHECK_COST_MONOTONE in self._fuzz_failures()


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_axioms_only_exits_zero(self, capsys):
        assert diffcheck_cli.main(["--phases", "axioms"]) == 0
        out = capsys.readouterr().out
        assert "0 divergence(s)" in out

    def test_reintroduced_bug_fails_cli(self, monkeypatch, capsys):
        def buggy_grow(self, delta_pages):
            if delta_pages < 0:
                return -1
            new_pages = self.pages + delta_pages
            if new_pages > self.max_pages:
                return -1
            old_pages = self.pages
            self.events.append(MemoryEvent("grow", old_pages, new_pages))
            self.pages = new_pages
            self.data.extend(bytes(delta_pages * 65536))
            return old_pages

        monkeypatch.setattr(LinearMemory, "grow", buggy_grow)
        assert diffcheck_cli.main(["--phases", "axioms"]) == 1
        assert "axiom.memory.grow-zero-noop" in capsys.readouterr().out

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = diffcheck_cli.main(
            ["--phases", "axioms,fuzz", "--fuzz-cases", "5",
             "--json", str(out)]
        )
        assert code == 0
        raw = json.loads(out.read_text())
        assert raw["ok"] is True
        assert raw["checks_run"] > 0
        assert raw["violations"] == []

    def test_reference_subset_via_cli(self, capsys):
        code = diffcheck_cli.main(
            ["--phases", "reference", "--workload", "trisolv"]
        )
        assert code == 0
        assert "1 workloads" in capsys.readouterr().out

    def test_unknown_phase_rejected(self, capsys):
        assert diffcheck_cli.main(["--phases", "nope"]) == 2

    def test_sweep_phase_smoke(self, tmp_path, capsys):
        import os

        from repro.core.engine import reset_default_engine

        saved = os.environ.get("REPRO_CACHE_DIR")
        try:
            code = diffcheck_cli.main(
                ["--phases", "sweep", "--workload", "trisolv",
                 "--threads", "1,4", "--cache-dir", str(tmp_path)]
            )
        finally:
            # --cache-dir redirects the process-wide engine and the
            # profile-cache env var; put both back for later tests.
            reset_default_engine()
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
        assert code == 0
        assert "measurements under invariants" in capsys.readouterr().out
