"""Outside-in span tracing of the sweep pipeline's layers.

:class:`Tracer` patches one wrapper onto each layer boundary *where the
caller looks the function up* (``repro.core.engine.run_benchmark``, not
``repro.core.harness.run_benchmark``, because the engine calls it
through its own module globals).  Each wrapped call records one span:
name, layer, start, end and parent span index.  Spans stay in memory
until :meth:`Tracer.write`.  :meth:`Tracer.uninstall` puts every
original function back, so a later untraced pass runs unwrapped code.

Counts are taken at the same boundaries from arguments and return
values (pages a populate call installed, static ops of a compiled
module, callbacks a simulation engine scheduled), never by editing the
program.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The layers, in pipeline order; a layer is named after its package.
LAYERS = (
    "workloads", "runtime", "compiler", "runtimes",
    "harness", "sim", "oskernel", "engine",
)


@dataclass
class Probe:
    """One wrapped function: where it is looked up, and its layer.

    ``before(tracer, args)`` runs ahead of the call and returns a state
    value; ``after(tracer, args, result, state)`` runs once it returns.
    """

    owner: object
    attr: str
    layer: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.owner.__name__}.{self.attr}"


def _add(key: str, value: Callable) -> Callable:
    """An ``after`` hook adding ``value(args, result)`` to a count."""

    def after(tracer, args, result, state):
        tracer.counts[key] += value(args, result)

    return after


def probes() -> List[Probe]:
    """Every layer boundary the benchmark traces (imports ``repro``)."""
    from repro.core import engine, harness, profiles
    from repro.oskernel.addressspace import Area
    from repro.runtime.interpreter import Interpreter
    from repro.runtimes import base
    from repro.sim.engine import Engine

    def count_builds(tracer, args, result, memo_size):
        tracer.counts["workloads.builds"] += (
            len(profiles._module_cache) - memo_size
        )

    def count_instrs(tracer, args, result, invokes):
        # Only a call that ran the interpreter produced new instructions;
        # a memo or disk hit hands back an old profile.
        if tracer.calls["Interpreter.invoke"] > invokes:
            tracer.counts["runtime.wasm_instrs"] += result[1].total_instrs

    def count_cycle_hits(tracer, args, result, memo_size):
        if len(args[0]._cycles_cache) == memo_size:
            tracer.counts["runtimes.cycles_hits"] += 1

    return [
        Probe(profiles, "module_for", "workloads",
              lambda tracer, args: len(profiles._module_cache), count_builds),
        Probe(harness, "profile_for", "runtime",
              lambda tracer, args: tracer.calls["Interpreter.invoke"],
              count_instrs),
        Probe(Interpreter, "invoke", "runtime"),
        Probe(base, "compile_module", "compiler",
              after=_add("compiler.static_ops",
                         lambda args, result: result.total_static_ops)),
        Probe(base, "cycles_for_profile", "compiler"),
        Probe(base, "check_counts_for_profile", "compiler"),
        Probe(base.RuntimeModel, "cycles", "runtimes",
              lambda tracer, args: len(args[0]._cycles_cache),
              count_cycle_hits),
        Probe(engine, "run_benchmark", "harness"),
        Probe(Engine, "run", "sim",
              after=_add("sim.events", lambda args, result: args[0]._sequence)),
        Probe(Area, "populate", "oskernel",
              after=_add("oskernel.pages_populated", lambda args, result: result)),
        Probe(Area, "zap", "oskernel",
              after=_add("oskernel.pages_zapped", lambda args, result: result)),
        Probe(engine.MeasurementEngine, "key_for", "engine"),
        Probe(engine, "calibration_hash", "engine"),
    ]


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        #: (name, layer, start, end, parent index or -1), in call order.
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self.counts: Counter = Counter()
        #: Calls per span name, counted when the span opens.
        self.calls: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> Tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)  # filled in by _close
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.calls[name] += 1
        return index, parent

    def _close(self, index: int, parent: int, name: str, layer: str,
               start: float) -> None:
        self.spans[index] = (name, layer, start, time.perf_counter(), parent)
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around the benchmark's own call into a layer."""
        index, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, layer, start)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        name, layer = probe.name, probe.layer
        before, after = probe.before, probe.after

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(self, args) if before is not None else None
            index, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, parent, name, layer, start)
            if after is not None:
                after(self, args, result, state)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        for probe in probes():
            original = vars(probe.owner)[probe.attr]
            self._patched.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(probe, original))

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, start, end, _) in enumerate(self.spans)]

    def layer_self(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, _, _, _), own in zip(self.spans, self.self_times()):
            totals[layer] += own
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span of one name."""
        return sum(end - start for span_name, _, start, end, _ in self.spans
                   if span_name == name)

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics the spans and counts give on their own."""
        calls, counts, total = self.calls, self.counts, self.total
        profile_s = total("Interpreter.invoke")
        sim_s = total("Engine.run")
        cycles_calls = calls["RuntimeModel.cycles"]
        out = {
            "workloads.build_s": total("repro.core.profiles.module_for"),
            "workloads.builds": counts["workloads.builds"],
            "runtime.profile_s": profile_s,
            "runtime.profiles": calls["Interpreter.invoke"],
            "runtime.wasm_instrs": counts["runtime.wasm_instrs"],
            "runtime.instrs_per_s": (
                counts["runtime.wasm_instrs"] / profile_s if profile_s else 0.0
            ),
            "compiler.compile_s": total("repro.runtimes.base.compile_module"),
            "compiler.compiles": calls["repro.runtimes.base.compile_module"],
            "compiler.static_ops": counts["compiler.static_ops"],
            "compiler.costing_s": (
                total("repro.runtimes.base.cycles_for_profile")
                + total("repro.runtimes.base.check_counts_for_profile")
            ),
            "runtimes.cycles_calls": cycles_calls,
            "runtimes.cycles_hit_ratio": (
                counts["runtimes.cycles_hits"] / cycles_calls
                if cycles_calls else 0.0
            ),
            "harness.run_s": total("repro.core.engine.run_benchmark"),
            "sim.run_s": sim_s,
            "sim.runs": calls["Engine.run"],
            "sim.events": counts["sim.events"],
            "sim.events_per_s": counts["sim.events"] / sim_s if sim_s else 0.0,
            "oskernel.populate_s": total("Area.populate"),
            "oskernel.populate_calls": calls["Area.populate"],
            "oskernel.pages_populated": counts["oskernel.pages_populated"],
            "oskernel.zap_s": total("Area.zap"),
            "oskernel.zap_calls": calls["Area.zap"],
            "oskernel.pages_zapped": counts["oskernel.pages_zapped"],
            "engine.key_s": total("MeasurementEngine.key_for"),
        }
        for layer, own in self.layer_self().items():
            out[f"{layer}.self_s"] = own
        return out

    def write(self, path) -> None:
        """Dump the spans and counts as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "calls": dict(self.calls),
                },
                handle,
            )
