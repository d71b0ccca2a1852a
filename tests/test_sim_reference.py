"""The simulation pinned bit for bit to the benchmark's reference cells.

``sweepbench/reference.json`` holds a digest of every cell the
benchmark measures, and the benchmark's own run compares all of them.
This test measures a few of those cells in tier-1, with the request
fields the benchmark's grids (``sweepbench/grids.py``) give them, and
compares their digests with the committed ones.  The cells cover every
path of the simulated machine: 16-thread ``mmap_lock`` contention
(``mprotect``) and userfaultfd faults on WAVM and V8, V8's GC pauses and
helper threads, a native process per instance, the Wasm3 interpreter
model and a WASI cell's syscall batches.

Neither file is written here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.engine import measurement_to_json
from repro.core.harness import run_benchmark

SWEEPBENCH = Path(__file__).resolve().parent.parent / "sweepbench"

#: Benchmark workload -> the labels of its cells measured here.
CELLS = {
    "spec-scaling": [
        "525.x264 wavm/mprotect/x86_64/t16",
        "525.x264 wavm/uffd/x86_64/t16",
        "525.x264 v8/mprotect/x86_64/t16",
        "525.x264 v8/uffd/x86_64/t16",
    ],
    "polybench-grid": [
        "gemm v8/mprotect/x86_64/t1",
        "2mm native-clang/none/x86_64/t1",
        "atax wasm3/trap/armv8/t1",
    ],
    "spec-profile": ["wasi-grep wavm/mprotect/x86_64/t1"],
}


def _requests():
    """(workload, request) for every cell in :data:`CELLS`."""
    spec = importlib.util.spec_from_file_location(
        "sweepbench_grids", SWEEPBENCH / "grids.py"
    )
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    found = []
    for workload, labels in CELLS.items():
        by_label = {
            request.label(): request
            for sweep in grids.specs(workload, 0)
            for request in sweep.requests()
        }
        found += [(workload, by_label[label]) for label in labels]
    return found


REFERENCE = json.loads((SWEEPBENCH / "reference.json").read_text())


def cell_digest(measurement) -> str:
    canonical = json.dumps(measurement_to_json(measurement), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "workload, request_",
    [pytest.param(workload, request, id=request.label())
     for workload, request in _requests()],
)
def test_cell_matches_the_reference(workload, request_):
    measurement = run_benchmark(**request_.to_json())
    assert cell_digest(measurement) == REFERENCE[workload][request_.label()]
