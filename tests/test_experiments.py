"""Smoke + invariant tests for the figure experiments.

Each experiment runs on tiny inputs (mini size, reduced workload sets)
and its output is checked against the paper's qualitative claims.
"""

import json

import pytest

from repro import api
from repro.core import cli, engine
from repro.core.experiments import (
    extension_cheri,
    extension_tiers,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig_bce,
    fig_cage,
    fig_wasi,
    replication,
)
from repro.core.experiments.common import (
    PBC_QUICK,
    SPEC_QUICK,
    configs_for_isa,
    suite_names,
)

# Narrow sets keep the suite fast; contention shapes survive because
# the short benchmarks are included.
FAST_PBC = ["gemm", "trisolv"]
FAST_SPEC = ["519.lbm"]


@pytest.fixture(autouse=True)
def small_sets(monkeypatch):
    for module in (
        fig1, fig2, fig3, fig4, fig5, fig6, fig_bce, replication,
        extension_cheri, extension_tiers,
    ):
        monkeypatch.setattr(
            module,
            "suite_names",
            lambda suite, quick: FAST_PBC if suite == "polybench" else FAST_SPEC,
        )


class TestCommon:
    def test_quick_sets_are_subsets_of_catalogue(self):
        from repro.workloads import WORKLOADS

        for name in PBC_QUICK + SPEC_QUICK:
            assert name in WORKLOADS

    def test_configs_for_isa_respects_backend_gaps(self):
        x86 = configs_for_isa("x86_64")
        riscv = configs_for_isa("riscv64")
        assert ("wavm", "mprotect") in x86
        assert all(runtime not in ("wavm", "wasmtime") for runtime, _ in riscv)
        assert ("wasm3", "trap") in riscv


class TestFig1:
    def test_rows_and_invariants(self):
        rows = fig1.run(size="mini")
        assert {r["benchmark"] for r in rows} == set(FAST_PBC + FAST_SPEC)
        for row in rows:
            # Checks can only slow V8 down.
            assert row["v8_default_vs_native"] >= row["v8_none_vs_native"] * 0.99
            assert row["v8_trap_vs_native"] >= row["v8_none_vs_native"] * 0.99
        assert "Fig. 1" in fig1.render(rows)


class TestFig2:
    def test_x86_ordering(self):
        rows = fig2.run("x86_64", size="mini")
        by = {
            (r["suite"], r["runtime"], r["strategy"]): r["geomean_vs_native"]
            for r in rows
        }
        # Runtime ordering on the default strategy (§4.1).
        assert by[("polybench", "wavm", "mprotect")] < by[("polybench", "wasmtime", "mprotect")]
        assert by[("polybench", "v8", "mprotect")] < by[("polybench", "wasm3", "trap")]
        # clamp worse than trap everywhere.
        for runtime in ("wavm", "wasmtime", "v8"):
            assert by[("polybench", runtime, "clamp")] > by[("polybench", runtime, "trap")]
        # mprotect/uffd near none except V8's ~10 points.
        assert by[("polybench", "wavm", "mprotect")] - by[("polybench", "wavm", "none")] < 0.06
        v8_gap = by[("polybench", "v8", "mprotect")] - by[("polybench", "v8", "none")]
        assert 0.03 < v8_gap < 0.25

    def test_riscv_has_no_spec_and_no_cranelift(self):
        rows = fig2.run("riscv64", size="mini")
        assert {r["suite"] for r in rows} == {"polybench"}
        assert {r["runtime"] for r in rows} == {"native-gcc", "v8", "wasm3"}


class TestFig3:
    def test_mprotect_scales_worst_on_polybench(self):
        rows = fig3.run(isa="x86_64", size="mini", suites=("polybench",))
        at16 = {
            (r["runtime"], r["strategy"]): r["slowdown_vs_1t"]
            for r in rows
            if r["threads"] == 16
        }
        assert at16[("wavm", "mprotect")] > at16[("wavm", "none")]
        # Scaling is near-perfect for none/uffd.
        assert at16[("wavm", "none")] < 1.03
        assert at16[("wavm", "uffd")] < 1.05


class TestFig4:
    def test_utilisation_shapes(self):
        rows = fig4.run(isa="x86_64", size="mini", suites=("polybench",))
        by = {
            (r["runtime"], r["strategy"], r["threads"]): r["utilisation_percent"]
            for r in rows
        }
        # Everyone saturates one core single-threaded; V8 exceeds it.
        assert by[("wavm", "none", 1)] == pytest.approx(100, abs=5)
        assert by[("v8", "none", 1)] > 110
        # 16 threads: none saturates; mprotect does not; V8 does not.
        assert by[("wavm", "none", 16)] > 1550
        assert by[("wavm", "mprotect", 16)] < by[("wavm", "none", 16)] - 50
        assert by[("v8", "none", 16)] < 1550


class TestFig5:
    def test_v8_context_switch_blowup(self):
        rows = fig5.run(isa="x86_64", size="mini", suites=("polybench",))
        by = {
            (r["runtime"], r["strategy"], r["threads"]): r["ctx_per_sec"]
            for r in rows
        }
        # Order-of-magnitude on long benchmarks (see test_harness); the
        # suite geomean still shows a clear multiple.
        assert by[("v8", "none", 16)] > 3 * by[("wavm", "none", 16)]
        assert by[("wavm", "mprotect", 16)] > 3 * by[("wavm", "none", 16)]


class TestFig6:
    def test_memory_insensitive_to_strategy_but_not_isa(self):
        x86_rows = fig6.run(isa="x86_64", size="mini", suites=("polybench",))
        arm_rows = fig6.run(isa="armv8", size="mini", suites=("polybench",))
        x86 = {
            (r["runtime"], r["strategy"]): r["mem_avg_mib"] for r in x86_rows
        }
        arm = {
            (r["runtime"], r["strategy"]): r["mem_avg_mib"] for r in arm_rows
        }
        # Strategy-insensitive within a runtime (paper: "no significant
        # variance"): none vs uffd within 2x.
        ratio = x86[("wavm", "none")] / x86[("wavm", "uffd")]
        assert 0.5 < ratio < 2.0
        # THP granularity: x86 reports much more than Armv8 (Fig. 6).
        assert x86[("wavm", "none")] > 3 * arm[("wavm", "none")]


class TestReplication:
    def test_all_claims_present(self):
        rows = replication.run(size="mini")
        claims = {r["claim"] for r in rows}
        assert "wasm3-vs-v8-x86_64" in claims
        assert "jangda-spec-v8-x86_64" in claims
        assert "wavm-overhead-x86" in claims
        wasm3 = [r for r in rows if r["claim"] == "wasm3-vs-v8-x86_64"][0]
        assert 3.0 < wasm3["measured"] < 15.0


class TestPersistence:
    def test_results_saved_as_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        rows = fig1.run(size="mini")
        from repro.core.experiments.common import save_results

        path = save_results("fig1-test", rows)
        loaded = json.loads(path.read_text())
        assert loaded[0]["benchmark"] == rows[0]["benchmark"]


class TestFigBce:
    def test_bce_never_slows_a_row_and_cells_stay_in_cache_dir(
        self, tmp_path, monkeypatch
    ):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cache = tmp_path / "cache"
        engine.configure(cache_dir=cache)
        try:
            rows = fig_bce.run(size="mini")
        finally:
            engine.reset_default_engine()
        # 2 kernels x 3 runtimes x 2 inline strategies.
        assert len(rows) == 12
        for row in rows:
            assert row["median_ms"] <= row["median_ms_nobce"], row
            assert row["checks_emitted"] <= row["checks_emitted_nobce"], row
        # Both halves of the grid land in the configured directory:
        # nothing goes to the working directory's default cache.
        assert len(list((cache / "measurements").glob("*.json"))) == 24
        assert not (workdir / ".cache").exists()


#: A small call of every experiment's ``run()``, by CLI name.
FIGURE_RUNS = {
    "fig1": lambda: fig1.run(size="mini"),
    "fig2": lambda: fig2.run("riscv64", size="mini"),
    "fig3": lambda: fig3.run(size="mini", suites=("polybench",)),
    "fig4": lambda: fig4.run(size="mini", suites=("polybench",)),
    "fig5": lambda: fig5.run(size="mini", suites=("polybench",)),
    "fig6": lambda: fig6.run(size="mini", suites=("polybench",)),
    "fig-bce": lambda: fig_bce.run(size="mini"),
    "fig-cage": lambda: fig_cage.run(size="mini", thread_steps=(1,)),
    "fig-wasi": lambda: fig_wasi.run(size="mini", thread_steps=(1,)),
    "replication": lambda: replication.run(size="mini"),
    "cheri": lambda: extension_cheri.run(size="mini"),
    "tiers": lambda: extension_tiers.run(size="mini"),
}


def test_every_experiment_is_covered():
    assert set(FIGURE_RUNS) == set(cli._EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(FIGURE_RUNS))
def test_run_makes_one_measure_call(name, monkeypatch):
    calls = []
    measure = api.measure

    def counting(*specs, **kwargs):
        calls.append(specs)
        return measure(*specs, **kwargs)

    monkeypatch.setattr(api, "measure", counting)
    FIGURE_RUNS[name]()
    assert len(calls) == 1


class TestCheriExtension:
    def test_projected_strategy_behaves_like_uffd_at_scale(self, monkeypatch):
        from repro.core.experiments import extension_cheri

        monkeypatch.setattr(
            extension_cheri, "suite_names", lambda suite, quick: ["trisolv"]
        )
        rows = extension_cheri.run(size="mini")
        by = {r["strategy"]: r for r in rows}
        # No inline code: single-thread cost equals `none` exactly.
        assert by["cheri"]["geomean_vs_native_1t"] == pytest.approx(
            by["none"]["geomean_vs_native_1t"], rel=1e-3
        )
        # No exclusive-lock traffic: scales like uffd, not mprotect.
        assert by["cheri"]["trisolv_util_16t"] > 1550
        assert by["mprotect"]["trisolv_util_16t"] < 1500
