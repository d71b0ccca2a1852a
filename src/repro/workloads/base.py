"""Workload plumbing: build results, the catalogue entry type, helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.runtime.interpreter import Interpreter
from repro.wasm.dsl import Array, DslModule
from repro.wasm.module import Module


@dataclass
class Built:
    """A workload compiled to a Wasm module, with its array layout."""

    module: Module
    arrays: Dict[str, Array]
    dm: DslModule
    #: WASI-family workloads supply a zero-arg factory producing a
    #: fresh, pre-seeded host environment (a
    #: :class:`repro.runtime.hostiface.HostInterface`) per
    #: instantiation; compute-family workloads leave it None and link
    #: against no imports.
    env_factory: Optional[Callable[[], object]] = None


def instantiate(
    module: Module, env_factory: Optional[Callable[[], object]],
    **interp_kwargs,
):
    """Interpreter + (optionally) bound host environment for a build's
    module and env factory (:class:`Built`).

    Returns ``(interp, env)``; ``env`` is None for import-free modules.
    Every call site that used to construct the Interpreter directly
    goes through here so WASI workloads link uniformly.
    """
    env = env_factory() if env_factory is not None else None
    interp = Interpreter(
        module,
        imports=env.imports() if env is not None else None,
        **interp_kwargs,
    )
    if env is not None:
        env.bind(interp)
    return interp, env


@dataclass(frozen=True)
class Workload:
    """One catalogue entry.

    ``build(size)`` produces the module; the module exports ``bench``
    (init + kernel, the profiled entry point) and usually ``init`` /
    ``kernel`` separately for tests.  ``reference(size)`` computes the
    expected contents of ``check_arrays`` with NumPy.
    """

    name: str
    suite: str  # 'polybench' | 'spec' | 'wasi'
    build: Callable[[str], Built]
    reference: Optional[Callable[[str], Dict[str, np.ndarray]]]
    check_arrays: Tuple[str, ...]
    #: Loose descriptors used in reporting (e.g. 'stencil', 'blas').
    tags: Tuple[str, ...] = ()


_DTYPES = {"f64": "<f8", "f32": "<f4", "i32": "<i4", "i64": "<i8"}


def read_array(interp: Interpreter, array: Array) -> np.ndarray:
    """Copy a DSL array out of an instance's linear memory."""
    memory = interp.memory
    raw = bytes(memory.data[array.base : array.base + array.nbytes])
    return np.frombuffer(raw, dtype=_DTYPES[array.elem]).reshape(array.shape).copy()


def run_and_extract(workload: Workload, size: str) -> Dict[str, np.ndarray]:
    """Execute a workload functionally and return its checked arrays."""
    built = workload.build(size)
    interp, _env = instantiate(
        built.module, built.env_factory, collect_profile=False, track_pages=False
    )
    interp.invoke("bench")
    return {
        name: read_array(interp, built.arrays[name])
        for name in workload.check_arrays
    }
