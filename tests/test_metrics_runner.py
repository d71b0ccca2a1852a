"""Tests for the sweep runner."""

from repro.api import FIELDS, SweepSpec, run, to_csv


class TestSweepSpec:
    def test_invalid_combinations_skipped(self):
        spec = SweepSpec(
            workloads=["gemm"],
            runtimes=["wavm", "wasm3"],
            strategies=["none", "trap"],
            isas=["x86_64", "riscv64"],
            threads=[1, 4],
        )
        configs = list(spec.configurations())
        # wavm has no riscv backend; wasm3 only traps; riscv has 1 core.
        assert ("wavm", "none", "x86_64", 1) in configs
        assert ("wasm3", "trap", "riscv64", 1) in configs
        assert all(r != "wavm" or i != "riscv64" for r, _, i, _ in configs)
        assert ("wasm3", "none", "x86_64", 1) not in configs
        assert ("wasm3", "trap", "riscv64", 4) not in configs

    def test_run_produces_rows(self):
        spec = SweepSpec(
            workloads=["trisolv"],
            runtimes=["wavm"],
            strategies=["none", "mprotect"],
            threads=[1],
            size="mini",
            iterations=2,
        )
        rows = run(spec)
        assert len(rows) == 2
        for row in rows:
            assert set(FIELDS) <= set(row)
            assert row["median_ms"] > 0

    def test_csv_export(self):
        spec = SweepSpec(
            workloads=["trisolv"], runtimes=["wavm"], strategies=["none"],
            size="mini", iterations=2,
        )
        text = to_csv(run(spec))
        lines = text.strip().splitlines()
        assert lines[0].startswith("workload,runtime,strategy")
        assert len(lines) == 2
        assert "trisolv,wavm,none" in lines[1]
