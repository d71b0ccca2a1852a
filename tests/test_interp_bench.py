"""The interpreter gate's baseline policy (``benchmarks/interp_bench.py``)."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "interp_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("interp_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(fused, opt):
    return {
        "timestamp": f"t{opt}", "machine": {"cpus": 2, "python": "3"},
        "interpreter_build": "b", "size": "mini", "repeats": 5,
        "noise_policy": "best-of-5",
        "workloads": {"gemm": {"speedup": fused, "speedup_opt": opt,
                               "legacy_ms": 1.0, "fused_ms": 1.0,
                               "opt_ms": 1.0, "fused_normalized": 1.0}},
        "median_speedup": fused, "median_speedup_opt": opt,
    }


def test_baseline_is_the_median_of_three_runs(monkeypatch, tmp_path):
    bench = load_script()
    runs = iter([fake_run(12.0, 22.9), fake_run(13.9, 17.6), fake_run(11.8, 20.0)])
    monkeypatch.setattr(bench, "run_benchmark", lambda repeats: next(runs))
    baseline = bench.measure_baseline(5)
    # Each gated ratio on its own: the runs' medians come from two runs.
    assert baseline["median_speedup"] == 12.0
    assert baseline["median_speedup_opt"] == 20.0
    assert [run["median_speedup_opt"] for run in baseline["runs"]] == [22.9, 17.6, 20.0]
    assert all(run["workloads"] for run in baseline["runs"])
    # A report measured later is gated against the medians.
    path = tmp_path / "BENCH_interp.json"
    path.write_text(json.dumps(baseline))
    monkeypatch.setattr(bench, "BASELINE_PATH", path)
    assert bench.check(fake_run(11.8, 17.6), 0.15, 3.0, 10.0) == []
    [failure] = bench.check(fake_run(12.0, 16.9), 0.15, 3.0, 10.0)
    assert failure.startswith("tier opt: median speedup 16.90x is 16% below")
