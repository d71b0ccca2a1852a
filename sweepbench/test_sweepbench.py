"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest sweepbench -q

They trace a small grid in-process, so they run in seconds; the real
workloads are exercised by ``run.py`` itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import grids  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from repro.api import SweepSpec  # noqa: E402
from repro.core import engine  # noqa: E402

#: Small, but it profiles, compiles, hits every strategy family and
#: runs threaded cells, so every layer records spans and counts.
SMALL_GRID = [
    SweepSpec(
        workloads=("atax", "trisolv"), runtimes=("wavm", "v8", "wasm3"),
        strategies=("trap", "mprotect", "uffd"), threads=(1, 4), size="mini",
    ),
]


@pytest.fixture(autouse=True)
def fresh_process_state(monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    passes.forget_process_state()
    yield
    passes.forget_process_state()


def traced_run(cache_dir: Path):
    engine.configure(jobs=1, cache_dir=cache_dir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = passes.measure_workload(SMALL_GRID, cache_dir, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, report


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    _, first = traced_run(tmp_path / "one")
    passes.forget_process_state()
    _, second = traced_run(tmp_path / "two")
    counts = {name: first["layers"][name] for name in run.EXACT}
    assert counts == {name: second["layers"][name] for name in run.EXACT}
    assert counts["sim.events"] > 0 and counts["runtime.wasm_instrs"] > 0
    assert counts["oskernel.pages_populated"] > 0
    assert counts["engine.hits"] == counts["engine.misses"] == len(first["cells"])
    assert first["cells"] == second["cells"]
    assert not first["errors"] and not first["warm_failures"]


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    tracer, report = traced_run(tmp_path)
    layers = report["layers"]
    self_times = [layers[f"{layer}.self_s"] for layer in tracing.LAYERS]
    assert all(own >= -1e-9 for own in tracer.self_times())
    assert all(own >= 0.0 for own in self_times)
    assert layers["unattributed_s"] >= 0.0
    assert sum(self_times) + layers["unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], abs=1e-9
    )
    assert layers["harness.self_s"] <= layers["harness.run_s"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers) | {"trace.overhead_ratio"} == {m["name"] for m in declared}


def test_uninstall_restores_every_original(tmp_path):
    probes = tracing.probes()
    originals = [vars(p.owner)[p.attr] for p in probes]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(vars(p.owner)[p.attr] is not o for p, o in zip(probes, originals))
    tracer.uninstall()
    assert all(vars(p.owner)[p.attr] is o for p, o in zip(probes, originals))

    engine.configure(jobs=1, cache_dir=tmp_path)
    passes.run_pass(SMALL_GRID)
    assert tracer.spans == [] and not tracer.counts


def test_reference_covers_every_grid_cell_for_any_seed():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(grids.GRIDS)
    for workload in grids.GRIDS:
        for seed in (0, 7):
            labels = [
                request.label()
                for spec in grids.specs(workload, seed)
                for request in spec.requests()
            ]
            assert sorted(labels) == sorted(reference[workload])


def test_run_fails_without_the_program(tmp_path):
    """Beside only its own files, the benchmark exits non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "spec-scaling",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
