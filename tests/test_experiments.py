"""Smoke + invariant tests for the figure experiments.

Each experiment runs on tiny inputs (mini size, reduced workload sets)
and its output is checked against the paper's qualitative claims.
"""

import json

import pytest

from repro import api
from repro.core import cli, engine
from repro.core.experiments import common, extension_cheri, fig1, fig_cage, fig_wasi
from repro.core.experiments.common import (
    PBC_QUICK,
    SPEC_QUICK,
    configs_for_isa,
)

# Narrow sets keep the suite fast; contention shapes survive because
# the short benchmarks are included.
FAST_PBC = ["gemm", "trisolv"]
FAST_SPEC = ["519.lbm"]
#: fig1's trap-overhead spread and the Rossberg "within 2x" count need
#: a third PolyBench kernel: on FAST_PBC the spread falls just short of
#: its bound and the Rossberg claim counts two benchmarks.
SPREAD_PBC = FAST_PBC + ["jacobi-2d"]


@pytest.fixture(autouse=True)
def small_sets(monkeypatch):
    """The quick workload sets, PolyBench alone in fig3–fig6 (at mini
    size a 16-thread 519.lbm cell takes about 0.4 s, a PolyBench cell
    about 10 ms), and fig-cage/fig-wasi at one thread."""
    monkeypatch.setattr(common, "PBC_QUICK", FAST_PBC)
    monkeypatch.setattr(common, "SPEC_QUICK", FAST_SPEC)
    monkeypatch.setattr(common, "SCALING_SUITES", ("polybench",))
    for module in (fig_cage, fig_wasi):
        monkeypatch.setattr(module, "THREAD_STEPS", (1,))


@pytest.fixture
def figure(tmp_path_factory, monkeypatch):
    """Run one subcommand at mini size through the CLI; its saved payload."""

    def run(name, *flags):
        out = tmp_path_factory.mktemp("results")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(out))
        assert cli.main([name, "--size", "mini", "--jobs", "1", *flags]) == 0
        (saved,) = out.glob("*.json")
        return json.loads(saved.read_text())

    return run


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
    def test_rows_and_invariants(self, figure, monkeypatch):
        monkeypatch.setattr(common, "PBC_QUICK", SPREAD_PBC)
        rows = figure("fig1")
        assert {r["benchmark"] for r in rows} == set(SPREAD_PBC + FAST_SPEC)
        for row in rows:
            # Checks can only slow V8 down.
            assert row["v8_default_vs_native"] >= row["v8_none_vs_native"] * 0.99
            assert row["v8_trap_vs_native"] >= row["v8_none_vs_native"] * 0.99
        # The spread exists: some benchmarks pay visibly, some don't.
        overheads = [row["trap_overhead_pct"] for row in rows]
        assert max(overheads) > 2 * max(1.0, min(overheads))


class TestFig2:
    def test_x86_ordering(self, figure):
        rows = figure("fig2", "--isa", "x86_64")["x86_64"]
        by = {
            (r["suite"], r["runtime"], r["strategy"]): r["geomean_vs_native"]
            for r in rows
        }
        # Runtime ordering on the default strategy (§4.1).
        assert by[("polybench", "wavm", "mprotect")] < by[("polybench", "wasmtime", "mprotect")]
        assert by[("polybench", "wasmtime", "mprotect")] < by[("polybench", "wasm3", "trap")]
        assert by[("polybench", "v8", "mprotect")] < by[("polybench", "wasm3", "trap")]
        # The interpreter is an order of magnitude behind native.
        assert 5.0 < by[("polybench", "wasm3", "trap")] < 15.0
        # clamp worse than trap everywhere.
        for runtime in ("wavm", "wasmtime", "v8"):
            assert by[("polybench", runtime, "clamp")] > by[("polybench", runtime, "trap")]
        # mprotect/uffd near none except V8's ~10 points.
        assert by[("polybench", "wavm", "mprotect")] - by[("polybench", "wavm", "none")] < 0.06
        v8_gap = by[("polybench", "v8", "mprotect")] - by[("polybench", "v8", "none")]
        assert 0.03 < v8_gap < 0.25

    def test_armv8_trap_gap(self, figure):
        rows = figure("fig2", "--isa", "armv8")["armv8"]
        by = {
            (r["suite"], r["runtime"], r["strategy"]): r["geomean_vs_native"]
            for r in rows
        }
        # Cross-ISA consistency of strategy costs (§1.3): WAVM's
        # trap-vs-none gap stays within a few points of the x86 gap.
        gap = by[("polybench", "wavm", "trap")] / by[("polybench", "wavm", "none")]
        assert 1.0 < gap < 1.6

    def test_riscv_has_no_spec_and_no_cranelift(self, figure):
        rows = figure("fig2", "--isa", "riscv64")["riscv64"]
        assert {r["suite"] for r in rows} == {"polybench"}
        assert {r["runtime"] for r in rows} == {"native-gcc", "v8", "wasm3"}

    def test_each_isa_keeps_its_own_results_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert cli.main(["fig2", "--size", "mini", "--jobs", "1",
                         "--isa", "x86_64"]) == 0
        first = (tmp_path / "fig2-x86_64.json").read_bytes()
        assert cli.main(["fig2", "--size", "mini", "--jobs", "1",
                         "--isa", "riscv64"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "fig2-riscv64.json", "fig2-x86_64.json"
        ]
        assert (tmp_path / "fig2-x86_64.json").read_bytes() == first


class TestFig3:
    def test_mprotect_scales_worst_on_polybench(self, figure):
        rows = figure("fig3")
        at16 = {
            (r["runtime"], r["strategy"]): r["slowdown_vs_1t"]
            for r in rows
            if r["threads"] == 16
        }
        assert at16[("wavm", "mprotect")] > at16[("wavm", "none")]
        for runtime in ("wasmtime", "v8"):
            assert at16[(runtime, "mprotect")] >= at16[(runtime, "none")]
        # Scaling is near-perfect for none/uffd.
        assert at16[("wavm", "none")] < 1.03
        assert at16[("wavm", "uffd")] < 1.05


class TestFig4:
    def test_utilisation_shapes(self, figure):
        rows = figure("fig4")
        by = {
            (r["runtime"], r["strategy"], r["threads"]): r["utilisation_percent"]
            for r in rows
        }
        # Everyone saturates one core single-threaded; V8 exceeds it.
        assert by[("wavm", "none", 1)] == pytest.approx(100, abs=5)
        assert by[("v8", "none", 1)] > 110
        # 16 threads: none and uffd saturate; mprotect does not; V8
        # does not.
        assert by[("wavm", "none", 16)] > 1550
        assert by[("wavm", "uffd", 16)] > 1550
        assert by[("wavm", "mprotect", 16)] < by[("wavm", "none", 16)] - 50
        assert by[("v8", "none", 16)] < 1550


class TestFig5:
    def test_v8_context_switch_blowup(self, figure):
        rows = figure("fig5")
        by = {
            (r["runtime"], r["strategy"], r["threads"]): r["ctx_per_sec"]
            for r in rows
        }
        # Order-of-magnitude on long benchmarks (see test_harness); the
        # suite geomean still shows a clear multiple.
        assert by[("v8", "none", 16)] > 3 * by[("wavm", "none", 16)]
        assert by[("wavm", "mprotect", 16)] > 3 * by[("wavm", "none", 16)]


class TestFig6:
    def test_memory_insensitive_to_strategy_but_not_isa(self, figure):
        x86, arm = (
            {
                (r["runtime"], r["strategy"]): r["mem_avg_mib"]
                for r in figure("fig6", "--isa", isa)
            }
            for isa in ("x86_64", "armv8")
        )
        # Strategy-insensitive within a runtime (paper: "no significant
        # variance"): every strategy within 2x of every other.
        values = [x86[("wavm", s)] for s in ("none", "trap", "mprotect", "uffd")]
        assert max(values) < 2.0 * min(values)
        # THP granularity: x86 reports much more than Armv8 (Fig. 6).
        assert x86[("wavm", "none")] > 3 * arm[("wavm", "none")]


class TestReplication:
    def test_all_claims_present(self, figure, monkeypatch):
        monkeypatch.setattr(common, "PBC_QUICK", SPREAD_PBC)
        rows = figure("replication")
        by = {r["claim"]: r["measured"] for r in rows}
        assert "jangda-spec-v8-x86_64" in by
        assert "wavm-overhead-x86" in by
        # Wasm3 at 6-11x V8 in the paper, on every ISA.
        for isa in ("x86_64", "armv8", "riscv64"):
            assert 4.0 < by[f"wasm3-vs-v8-{isa}"] < 15.0
        assert by["rossberg-within-2x"].startswith(("3/3", "2/3"))


class TestPersistence:
    def test_results_saved_as_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert cli.main(["fig1", "--size", "mini", "--jobs", "1"]) == 0
        loaded = json.loads((tmp_path / "fig1.json").read_text())
        assert [row["benchmark"] for row in loaded] == FAST_PBC + FAST_SPEC


class TestFigBce:
    def test_bce_never_slows_a_row_and_cells_stay_in_cache_dir(
        self, tmp_path, monkeypatch
    ):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        cache = tmp_path / "cache"
        try:
            assert cli.main(
                ["fig-bce", "--size", "mini", "--jobs", "1",
                 "--cache-dir", str(cache)]
            ) == 0
        finally:
            engine.reset_default_engine()
        rows = json.loads(
            (tmp_path / "results" / "fig-bce-x86_64.json").read_text()
        )
        # 2 kernels x 3 runtimes x 2 inline strategies.
        assert len(rows) == 12
        for row in rows:
            assert row["median_ms"] <= row["median_ms_nobce"], row
            assert row["checks_emitted"] <= row["checks_emitted_nobce"], row
        # Both halves of the grid land in the configured directory, one
        # entry per cell: nothing goes to the working directory's
        # default cache.
        entries = [
            key
            for shard in (cache / "measurements").glob("*.json")
            for key in json.loads(shard.read_text())
        ]
        assert len(entries) == 24
        assert not (workdir / ".cache").exists()


#: The flags of a small run of every subcommand, by CLI name.
FIGURE_RUNS = {
    "fig1": (),
    "fig2": ("--isa", "riscv64"),
    "fig3": (),
    "fig4": (),
    "fig5": (),
    "fig6": (),
    "fig-bce": (),
    "fig-cage": (),
    "fig-wasi": (),
    "replication": (),
    "cheri": (),
    "tiers": (),
}


def test_every_experiment_is_covered():
    assert set(FIGURE_RUNS) == set(cli._EXPERIMENTS)


def test_results_file_names_its_isa_exactly_when_isa_is_a_flag():
    """A figure run at two ``--isa`` values writes two files."""
    mismatched = [
        name
        for name, figure in cli._EXPERIMENTS.items()
        if ("{isa}" in figure.STEM) != bool(figure.ISAS)
    ]
    assert mismatched == []


@pytest.fixture
def measure_calls(monkeypatch):
    """Every :func:`repro.api.measure` call's specs, in call order."""
    calls = []
    measure = api.measure

    def counting(*specs, **kwargs):
        calls.append(specs)
        return measure(*specs, **kwargs)

    monkeypatch.setattr(api, "measure", counting)
    return calls


@pytest.mark.parametrize("name", sorted(FIGURE_RUNS))
def test_run_makes_one_measure_call(name, figure, measure_calls):
    figure(name, *FIGURE_RUNS[name])
    assert len(measure_calls) == 1


class TestCheriExtension:
    def test_projected_strategy_behaves_like_uffd_at_scale(
        self, figure, monkeypatch
    ):
        monkeypatch.setattr(common, "PBC_QUICK", ["trisolv"])
        rows = figure("cheri")
        by = {r["strategy"]: r for r in rows}
        # No inline code: single-thread cost equals `none` exactly.
        assert by["cheri"]["geomean_vs_native_1t"] == pytest.approx(
            by["none"]["geomean_vs_native_1t"], rel=1e-3
        )
        # No exclusive-lock traffic: scales like uffd, not mprotect.
        assert by["cheri"]["trisolv_util_16t"] > 1550
        assert by["mprotect"]["trisolv_util_16t"] < 1500


class TestAll:
    """``leaps-bench all``: one grid, and per-figure failures."""

    def test_one_measure_call_writes_what_each_figure_writes(
        self, tmp_path, monkeypatch, measure_calls
    ):
        together, alone = tmp_path / "all", tmp_path / "alone"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(together))
        assert cli.main(["all", "--size", "mini", "--jobs", "1"]) == 0
        assert len(measure_calls) == 1
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(alone))
        for name in cli._EXPERIMENTS:
            assert cli.main([name, "--size", "mini", "--jobs", "1"]) == 0
        files = sorted(path.name for path in alone.iterdir())
        assert len(files) == len(cli._EXPERIMENTS)
        assert sorted(path.name for path in together.iterdir()) == files
        for name in files:
            assert (together / name).read_bytes() == (alone / name).read_bytes()

    def test_failed_cell_fails_only_the_figures_that_read_it(
        self, tmp_path, monkeypatch, capsys, measure_calls
    ):
        """fig1 reads v8/trap, cheri does not: fig1 reports the failed
        cell, cheri still prints and saves, and the exit status is 1."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        monkeypatch.setattr(common, "PBC_QUICK", ["gemm"])
        monkeypatch.setattr(common, "SPEC_QUICK", [])
        monkeypatch.setattr(
            cli, "_EXPERIMENTS", {"fig1": fig1, "cheri": extension_cheri}
        )
        real = engine.run_benchmark

        def poisoned(**payload):
            if payload["runtime"] == "v8" and payload["strategy"] == "trap":
                raise RuntimeError("simulated poisoned config")
            return real(**payload)

        monkeypatch.setattr(engine, "run_benchmark", poisoned)
        status = cli.main(
            ["all", "--size", "mini", "--jobs", "1", "--no-cache"]
        )
        out, err = capsys.readouterr()
        assert status == 1
        assert len(measure_calls) == 1
        assert (
            "fig1: error: failed cell gemm v8/trap/x86_64/t1: "
            "RuntimeError: simulated poisoned config"
        ) in err
        assert "cheri" not in err
        assert "Extension — projected CHERI" in out
        assert [path.name for path in tmp_path.iterdir()] == [
            "extension-cheri.json"
        ]
