"""Execution tiers and per-function tier-up for the interpreter.

The interpreter has three tiers, selected by the ``tier`` constructor
parameter or ``REPRO_TIER``; this is its only execution knob:

* ``legacy`` — the original per-op closure dispatch, unfused;
* ``fused``  — pre-decoded superinstruction dispatch, with one loop
  handler per innermost loop of the supported shape;
* ``opt``    — fused dispatch plus the tier-2 whole-function compiler
  (:mod:`repro.runtime.vectorize`) for every function of its shape.

Tier-up is per function and happens at its first call: the first call
of any function compiles the whole module to tier-2 artifacts, and
each function's handler (or None, for a body outside the tier-2 shape)
is installed at its own first call and reused by every later one.
Artifacts are pure data, built in memory once per interpreter from its
pre-decode plans.

Tier-2 execution is bit-identical to the other tiers by construction
(see :mod:`repro.runtime.vectorize`).  ``REPRO_TIER_STRICT=1`` (set in
CI) turns an *unexpected* failure in either silent fallback into a
hard error: tier-2 compile/install falling back to tier 1, fused-region
codegen falling back to per-op closures, and loop-handler codegen
falling back to per-region dispatch.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.runtime import vectorize

#: Recognised execution tiers, slowest first.
TIERS = ("legacy", "fused", "opt")

#: Tier used when neither the ``tier`` parameter nor ``REPRO_TIER``
#: names one.
DEFAULT_TIER = "opt"


def strict() -> bool:
    """Whether ``REPRO_TIER_STRICT`` turns silent fallbacks into errors."""
    return bool(os.environ.get("REPRO_TIER_STRICT"))


def artifacts_for_module(module, plans) -> Dict[int, dict]:
    """Tier-2 artifacts for every defined function of ``module``.

    Keys are defined-function indices.
    """
    num_imported = len(module.imports)
    artifacts: Dict[int, dict] = {}
    for index, func in enumerate(module.funcs):
        ftype = module.func_type(index + num_imported)
        local_types = [t.value for t in ftype.params] + [
            t.value for t in func.locals
        ]
        artifacts[index] = vectorize.compile_function(
            func.body,
            plans[index].matches,
            local_types,
            len(ftype.params),
            len(ftype.results),
        )
    return artifacts


_MISS = object()

#: Env kinds that require a live linear memory at install time.
_MEM_KINDS = frozenset(("data", "mem", "touched", "track"))


class TierState:
    """Per-interpreter tier-up bookkeeping.

    Owns the lazily compiled whole-module artifact set and the
    installed (memory-bound) tier-2 handlers.
    """

    def __init__(self, interp) -> None:
        self._interp = interp
        #: absolute func index -> handler, or None once known ineligible.
        self.handlers: Dict[int, Optional[Callable]] = {}
        self._artifacts: Optional[Dict[int, dict]] = None

    def artifacts(self) -> Dict[int, dict]:
        if self._artifacts is None:
            interp = self._interp
            self._artifacts = artifacts_for_module(interp.module, interp._plans)
        return self._artifacts

    def handler_for(self, func_index: int) -> Optional[Callable]:
        """The tier-2 handler for one function, or None.

        None means "keep dispatching on tier 1": the function is
        outside the tier-2 shape, or its install failed.
        """
        cached = self.handlers.get(func_index, _MISS)
        if cached is not _MISS:
            return cached
        handler: Optional[Callable] = None
        try:
            artifact = self.artifacts().get(
                func_index - self._interp._num_imported
            )
            if artifact is not None and artifact.get("eligible"):
                memory = self._interp.instance.memory
                needs_mem = any(
                    kind in _MEM_KINDS for _, kind, _ in artifact["env"]
                )
                if memory is not None or not needs_mem:
                    handler = vectorize.install(artifact, memory)
        except Exception:
            # Tier 1 is always a correct fallback; strict mode (CI)
            # surfaces the tier-2 bug instead of hiding it.
            if strict():
                raise
            handler = None
        self.handlers[func_index] = handler
        return handler
