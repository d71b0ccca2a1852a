"""A closure-threaded WebAssembly interpreter.

Functions are pre-compiled to lists of Python closures, one per
instruction, each returning the next program counter — the Python
analogue of the threaded-code dispatch Wasm3 uses (paper §2.2, ref.
[1]).  The interpreter serves three roles:

1. **reference semantics** — the full numeric tower (wrap-around
   integer arithmetic, trapping division, IEEE float edge cases,
   f32 rounding) against which the compiled-code model is
   differentially tested;
2. **the Wasm3 runtime model** — interpreter timing comes from dynamic
   opcode counts priced with a dispatch-cost model;
3. **the profiler** — when ``collect_profile`` is on, it records exact
   per-pc execution counts plus memory observables, producing the
   :class:`~repro.runtime.profile.ExecutionProfile` every other
   runtime model is costed from.

Value conventions: i32/i64 are canonical *unsigned* Python ints
(0 ≤ v < 2**N); f32/f64 are Python floats, with f32 results rounded
through single precision.

Execution tiers (``tier=``, one of :data:`TIERS`), the interpreter's
only execution knob; all three have bit-identical observables:

* ``legacy`` — the original one-closure-per-op build, kept verbatim
  as the reference the cross-tier tests compare against and the
  baseline ``benchmarks/interp_bench.py`` measures the fast path
  against on the same machine;
* ``fused`` — pre-decoded handler table of per-op closures, with
  struct-based fast memory closures, and a loop handler for each
  call-free loop nest (:mod:`repro.runtime.predecode`);
* ``opt`` (the default) — ``fused`` plus tier 2, which compiles each
  whole call-free function at its first call (:func:`_gen_function`);
  a function outside its shape stays on ``fused`` dispatch.

Generated code of both kinds — loop handlers and tier-2 functions —
is compiled against the live instance: each Python object it uses
(memory, operator functions, constants, count lists) is bound as it
is when the code is generated (:func:`_build`).  One
symbolic-stack translator (:class:`_Codegen`) translates every op, and
one class (:class:`_UnitCompiler`) emits every *unit* of control flow
around it.

A *loop handler* (:func:`_gen_nest`), a nest unit, runs one outermost
call-free loop nest, as :func:`repro.runtime.predecode.find_nests`
finds them, from entry to exit in one dispatch instead of one per op
per iteration: nested loops, ``if``/``else`` and branches to any label
inside the nest included.  It relies on what ``find_nests`` checks:
with no call or ``memory.grow`` in the nest, nothing can observe the
locals and stack values it keeps in Python names and memory cannot
resize under it, and with every branch aimed at a label of its own,
control enters it only at its head and leaves only past its end.  It
keeps one counter per straight-line segment of the nest, computes
values invariant over a loop once before that loop, and adds each
segment's count to every pc the segment covers, and the load and store
totals they imply, in a ``finally``.  Where an op may trap it records
how far its segment got, so a trap mid-nest leaves exactly the per-pc,
load, store and page counts tier-1 dispatch leaves.  An innermost
loop of a counted or search shape whose every access is a *stream*
(an address affine in the loop variable) is *versioned*: one guard at
loop entry checks every stream's first and last address, and behind
it the loop runs with no bounds test, page touch or counter, its
counts and pages added once after it.

A tier-2 function, a function unit, is generated the same way, by
:class:`_FunctionCompiler`, and also carries proofs: intervals and
affine forms on values, counted loops run as ``for`` loops with their
counts added in bulk, every address proven in bounds under one entry
guard, and NumPy batching of innermost loops
(:mod:`repro.runtime.vectorize`).  It never traps and deopts, touching
nothing, only at that guard.  Tier-1 code (closures and loop handlers)
is built the first time tier 1 runs a function, never for one that
tier 2 runs from its first call.  Every unit counts each pc where it
runs, so a profile is the count lists as they stand.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field, replace
from typing import (
    AbstractSet, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.runtime import predecode, vectorize
from repro.runtime.memory import LinearMemory
from repro.runtime.profile import ExecutionProfile
from repro.runtime.strategies import BoundsStrategy, strategy_named
from repro.wasm.errors import ExhaustionError, LinkError, Trap
from repro.wasm.instructions import Instr
from repro.wasm.module import Function, Module
from repro.wasm.types import FuncType, ValType
from repro.wasm.validator import validate_module

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

#: Execution tiers, slowest first.
TIERS = ("legacy", "fused", "opt")

# Each simulated wasm call consumes a handful of Python frames; raise
# CPython's limit once at import so the interpreter's own depth guard
# (_MAX_CALL_DEPTH) always fires first.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)
_NAN = float("nan")
_INF = float("inf")


# ----------------------------------------------------------------------
# Numeric helpers
# ----------------------------------------------------------------------
def s32(v: int) -> int:
    return v - 0x1_0000_0000 if v & 0x8000_0000 else v


def s64(v: int) -> int:
    return v - 0x1_0000_0000_0000_0000 if v & 0x8000_0000_0000_0000 else v


def to_f32(x: float) -> float:
    """Round a Python float through IEEE single precision.

    ``struct`` raises OverflowError exactly when the rounded result is
    infinite and ``x`` is not, where IEEE rounding gives a signed
    infinity.
    """
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(_INF, x)


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _trunc_rem(a: int, b: int) -> int:
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _clz(v: int, bits: int) -> int:
    return bits - v.bit_length()


def _ctz(v: int, bits: int) -> int:
    if v == 0:
        return bits
    return (v & -v).bit_length() - 1


def _rotl(v: int, n: int, bits: int, mask: int) -> int:
    n %= bits
    return ((v << n) | (v >> (bits - n))) & mask if n else v


def _rotr(v: int, n: int, bits: int, mask: int) -> int:
    n %= bits
    return ((v >> n) | (v << (bits - n))) & mask if n else v


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return _NAN
        return math.copysign(_INF, a) * math.copysign(1.0, b)
    return a / b


def _fmin(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return _NAN
    if a == b:
        # min(-0, +0) is -0.
        return a if math.copysign(1.0, a) < 0 else b
    return a if a < b else b


def _fmax(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return _NAN
    if a == b:
        return a if math.copysign(1.0, a) > 0 else b
    return a if a > b else b


def _fsqrt(x: float) -> float:
    if math.isnan(x) or x < 0.0:
        return _NAN
    return math.sqrt(x)


def _fnearest(x: float) -> float:
    if math.isnan(x) or math.isinf(x) or abs(x) >= 2.0**52:
        return x
    rounded = float(round(x))
    if rounded == 0.0 and math.copysign(1.0, x) < 0:
        return -0.0
    return rounded


def _ffloor(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return float(math.floor(x))


def _fceil(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    result = float(math.ceil(x))
    if result == 0.0 and math.copysign(1.0, x) < 0:
        return -0.0
    return result


def _ftrunc(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    result = float(math.trunc(x))
    if result == 0.0 and math.copysign(1.0, x) < 0:
        return -0.0
    return result


def _trunc_to_int(x: float, lo: int, hi: int) -> int:
    if math.isnan(x):
        raise Trap("invalid-conversion-to-integer", "truncation of NaN")
    if math.isinf(x):
        raise Trap("integer-overflow", "truncation of infinity")
    t = math.trunc(x)
    if not lo <= t <= hi:
        raise Trap("integer-overflow", f"{x} out of range [{lo},{hi}]")
    return t


# ----------------------------------------------------------------------
# Host functions and instances
# ----------------------------------------------------------------------
@dataclass
class HostFunc:
    """A function provided by the embedder (e.g. a WASI shim)."""

    params: Tuple[ValType, ...]
    results: Tuple[ValType, ...]
    fn: Callable[..., Any]
    name: str = ""

    @property
    def func_type(self) -> FuncType:
        return FuncType(self.params, self.results)


class Instance:
    """Runtime state of an instantiated module."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.memory: Optional[LinearMemory] = None
        self.globals: List[Any] = []
        self.table: List[Optional[int]] = []
        #: absolute func index -> ('wasm', Function) | ('host', HostFunc)
        self.funcs: List[Tuple[str, Union[Function, HostFunc]]] = []


_MAX_CALL_DEPTH = 500


class Interpreter:
    """Instantiate and execute one module."""

    def __init__(
        self,
        module: Module,
        imports: Optional[Dict[Tuple[str, str], HostFunc]] = None,
        strategy: Union[BoundsStrategy, str, None] = None,
        validate: bool = True,
        collect_profile: bool = True,
        track_pages: bool = True,
        tier: str = "opt",
    ) -> None:
        if validate:
            validate_module(module)
        if isinstance(strategy, str):
            strategy = strategy_named(strategy)
        self.strategy = strategy or strategy_named("trap")
        self.module = module
        self.collect_profile = collect_profile
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        self.tier = tier
        self._num_imported = len(module.imports)
        # Pre-decode every body once at module load.
        self._plans: Dict[int, predecode.FunctionPlan] = (
            {} if tier == "legacy" else predecode.plans_for_module(module)
        )
        self.instance = self._instantiate(imports or {}, track_pages)
        self._code_cache: Dict[int, List[Callable]] = {}
        self._counts: Dict[int, List[int]] = {}
        self._depth = 0
        #: absolute func index -> tier-2 handler, or None for a function
        #: outside the tier-2 shape; None as a whole below ``opt``.
        self._tier2: Optional[Dict[int, Optional[Callable]]] = (
            {} if tier == "opt" else None
        )
        if module.start is not None:
            self.call_function(module.start, [])

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------
    def _instantiate(self, imports, track_pages: bool) -> Instance:
        module = self.module
        inst = Instance(module)
        for imp in module.imports:
            if imp.kind != "func":
                raise LinkError(f"unsupported import kind {imp.kind!r}")
            host = imports.get((imp.module, imp.name))
            if host is None:
                raise LinkError(f"unresolved import {imp.module}.{imp.name}")
            declared = module.type_at(imp.desc)
            if host.func_type != declared:
                raise LinkError(
                    f"import {imp.module}.{imp.name}: host type {host.func_type} "
                    f"!= declared {declared}"
                )
            inst.funcs.append(("host", host))
        for func in module.funcs:
            inst.funcs.append(("wasm", func))
        for glob in module.globals:
            inst.globals.append(self._eval_const(glob.init, inst))
        if module.memories:
            inst.memory = LinearMemory(
                module.memories[0].limits, self.strategy, track_pages=track_pages
            )
        if module.tables:
            inst.table = [None] * module.tables[0].limits.minimum
        for element in module.elements:
            offset = self._eval_const(element.offset, inst)
            if offset + len(element.func_indices) > len(inst.table):
                raise LinkError("element segment out of table bounds")
            for position, func_index in enumerate(element.func_indices):
                inst.table[offset + position] = func_index
        for segment in module.data:
            if inst.memory is None:
                raise LinkError("data segment with no memory")
            offset = self._eval_const(segment.offset, inst)
            if offset + len(segment.data) > inst.memory.size_bytes:
                raise LinkError("data segment out of memory bounds")
            inst.memory.init_data(offset, segment.data)
        return inst

    def _eval_const(self, expr: List[Instr], inst: Instance) -> Any:
        ins = expr[0]
        if ins.op == "i32.const":
            return ins.args[0] & M32
        if ins.op == "i64.const":
            return ins.args[0] & M64
        if ins.op == "f32.const":
            return to_f32(ins.args[0])
        if ins.op == "f64.const":
            return float(ins.args[0])
        if ins.op == "global.get":
            return inst.globals[ins.args[0]]
        raise LinkError(f"unsupported constant expression {ins.op}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def invoke(self, export_name: str, *args) -> Any:
        """Call an exported function; returns its (single) result."""
        export = self.module.export_named(export_name)
        if export.kind != "func":
            raise LinkError(f"export {export_name!r} is a {export.kind}, not a func")
        results = self.call_function(export.index, list(args))
        if not results:
            return None
        if len(results) == 1:
            return results[0]
        return tuple(results)

    @property
    def memory(self) -> Optional[LinearMemory]:
        return self.instance.memory

    def call_function(self, func_index: int, args: Sequence[Any]) -> List[Any]:
        kind, target = self.instance.funcs[func_index]
        if kind == "host":
            results = target.fn(*args)
            if results is None:
                return []
            if isinstance(results, (list, tuple)):
                return list(results)
            return [results]
        func_type = self.module.func_type(func_index)
        if len(args) != len(func_type.params):
            raise LinkError(
                f"function {func_index} expects {len(func_type.params)} args, "
                f"got {len(args)}"
            )
        norm_args = [
            self._normalize(value, valtype)
            for value, valtype in zip(args, func_type.params)
        ]
        return self._run(func_index, target, func_type, norm_args)

    @staticmethod
    def _normalize(value: Any, valtype: ValType) -> Any:
        if valtype == ValType.I32:
            return int(value) & M32
        if valtype == ValType.I64:
            return int(value) & M64
        if valtype == ValType.F32:
            return to_f32(float(value))
        return float(value)

    def take_profile(self, workload: str = "", size: str = "") -> ExecutionProfile:
        """Build an ExecutionProfile from counts gathered so far."""
        profile = ExecutionProfile(workload=workload, size=size)
        op_totals: Dict[str, int] = {}
        for func_index, raw_counts in self._counts.items():
            func = self.module.defined_func(func_index)
            counts = list(raw_counts)
            profile.instr_counts[func_index] = counts
            for ins, count in zip(func.body, counts):
                if count:
                    op_totals[ins.op] = op_totals.get(ins.op, 0) + count
        profile.op_totals = op_totals
        profile.merge_totals()
        memory = self.instance.memory
        if memory is not None:
            profile.mem_loads = memory.load_count
            profile.mem_stores = memory.store_count
            profile.pages_touched = len(memory.touched_pages)
            profile.grow_events = [
                (event.pages_before, event.pages_after) for event in memory.events
            ]
            profile.peak_pages = memory.pages
        return profile

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(
        self,
        func_index: int,
        func: Function,
        func_type: FuncType,
        args: List[Any],
    ) -> List[Any]:
        self._depth += 1
        if self._depth > _MAX_CALL_DEPTH:
            self._depth -= 1
            raise ExhaustionError("call stack exhausted")
        try:
            frame = _Frame(args + _default_locals(func.locals))
            n = len(func.body)
            # The function body itself is a branch target (depth ==
            # number of open blocks): branching to it returns.
            frame.labels.append((n, 0, len(func_type.results)))
            counts = None
            if self.collect_profile:
                counts = self._counts.get(func_index)
                if counts is None:
                    counts = self._counts[func_index] = [0] * n
            tier2 = self._tier2
            if tier2 is not None:
                if func_index in tier2:
                    handler = tier2[func_index]
                else:
                    handler = tier2[func_index] = self._tier_up(
                        func_index, func, func_type, counts
                    )
                if handler is not None and handler(frame) < 0:
                    arity = len(func_type.results)
                    return frame.stack[-arity:] if arity else []
                # handler returned 0: entry guard failed (deopt);
                # the frame is untouched, run the whole call on tier 1.
            # Tier-1 code is built when tier 1 first runs the function,
            # so one that tier 2 runs from its first call never pays
            # for closures or loop handlers.
            code = self._code_cache.get(func_index)
            if code is None:
                code = self._code_cache[func_index] = self._compile(
                    func_index, func
                )
            pc = 0
            if counts is not None:
                while pc < n:
                    counts[pc] += 1
                    pc = code[pc](frame)
            else:
                while pc < n:
                    pc = code[pc](frame)
            arity = len(func_type.results)
            return frame.stack[-arity:] if arity else []
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _tier_up(
        self,
        func_index: int,
        func: Function,
        func_type: FuncType,
        counts: Optional[List[int]],
    ) -> Optional[Callable]:
        """The tier-2 handler of one function, or None outside its shape."""
        return _gen_function(
            func.body,
            self._plans[func_index - self._num_imported].matches,
            [t.value for t in func_type.params] + [t.value for t in func.locals],
            len(func_type.params),
            len(func_type.results),
            self.instance.memory,
            counts,
        )

    def _compile(self, func_index: int, func: Function) -> List[Callable]:
        body = func.body
        if self.tier == "legacy":
            matches = predecode.match_control(body)
            return [
                self._make_closure(pc, ins, matches, len(body))
                for pc, ins in enumerate(body)
            ]
        plan = self._plans[func_index - self._num_imported]
        matches = plan.matches
        code = [
            self._make_closure(pc, ins, matches, len(body), fast_mem=True)
            for pc, ins in enumerate(body)
        ]
        for nest in plan.loops:
            code[nest.head] = _gen_nest(
                nest, body, matches, self.instance.memory,
                self._counts.get(func_index),
            )
        return code

    def _make_closure(self, pc, ins, matches, body_len, fast_mem=False):
        op = ins.op
        next_pc = pc + 1
        inst = self.instance
        memory = inst.memory
        globals_ = inst.globals

        # ---- control -------------------------------------------------
        if op == "nop":
            return lambda f: next_pc
        if op == "unreachable":
            def run_unreachable(f):
                raise Trap("unreachable")
            return run_unreachable
        if op in ("block", "loop", "if"):
            end_pc, else_pc = matches[pc]
            arity = 0 if ins.args[0] is None else 1
            if op == "block":
                target = end_pc + 1

                def run_block(f, target=target, arity=arity):
                    f.labels.append((target, len(f.stack), arity))
                    return next_pc

                return run_block
            if op == "loop":
                def run_loop(f, target=pc):
                    f.labels.append((target, len(f.stack), 0))
                    return next_pc

                return run_loop
            # if
            target = end_pc + 1
            else_target = else_pc + 1 if else_pc is not None else end_pc

            def run_if(f, target=target, arity=arity, else_target=else_target):
                cond = f.stack.pop()
                f.labels.append((target, len(f.stack), arity))
                return next_pc if cond else else_target

            return run_if
        if op == "else":
            end_pc = matches[pc]

            def run_else(f, end_pc=end_pc):
                return end_pc  # jump to 'end', which pops the label

            return run_else
        if op == "end":
            def run_end(f):
                f.labels.pop()
                return next_pc

            return run_end
        if op == "br":
            depth = ins.args[0]

            def run_br(f, depth=depth):
                return _branch(f, depth)

            return run_br
        if op == "br_if":
            depth = ins.args[0]

            def run_br_if(f, depth=depth):
                if f.stack.pop():
                    return _branch(f, depth)
                return next_pc

            return run_br_if
        if op == "br_table":
            labels, default = ins.args

            def run_br_table(f, labels=labels, default=default):
                index = f.stack.pop()
                depth = labels[index] if index < len(labels) else default
                return _branch(f, depth)

            return run_br_table
        if op == "return":
            return lambda f: body_len
        if op == "call":
            callee = ins.args[0]
            nparams = len(self.module.func_type(callee).params)

            def run_call(f, callee=callee, nparams=nparams):
                if nparams:
                    args = f.stack[-nparams:]
                    del f.stack[-nparams:]
                else:
                    args = []
                f.stack.extend(self.call_function(callee, args))
                return next_pc

            return run_call
        if op == "call_indirect":
            type_index, _table = ins.args
            expected = self.module.type_at(type_index)
            nparams = len(expected.params)

            def run_call_indirect(f, expected=expected, nparams=nparams):
                element = f.stack.pop()
                table = inst.table
                if element >= len(table):
                    raise Trap("undefined-element", f"table index {element}")
                callee = table[element]
                if callee is None:
                    raise Trap("uninitialized-element", f"table slot {element}")
                actual = self.module.func_type(callee)
                if actual != expected:
                    raise Trap(
                        "indirect-call-type-mismatch",
                        f"{actual} != {expected}",
                    )
                if nparams:
                    args = f.stack[-nparams:]
                    del f.stack[-nparams:]
                else:
                    args = []
                f.stack.extend(self.call_function(callee, args))
                return next_pc

            return run_call_indirect

        # ---- parametric ------------------------------------------------
        if op == "drop":
            def run_drop(f):
                f.stack.pop()
                return next_pc

            return run_drop
        if op == "select":
            def run_select(f):
                stack = f.stack
                cond = stack.pop()
                second = stack.pop()
                first = stack.pop()
                stack.append(first if cond else second)
                return next_pc

            return run_select

        # ---- variables ---------------------------------------------------
        if op == "local.get":
            index = ins.args[0]

            def run_local_get(f, index=index):
                f.stack.append(f.locals[index])
                return next_pc

            return run_local_get
        if op == "local.set":
            index = ins.args[0]

            def run_local_set(f, index=index):
                f.locals[index] = f.stack.pop()
                return next_pc

            return run_local_set
        if op == "local.tee":
            index = ins.args[0]

            def run_local_tee(f, index=index):
                f.locals[index] = f.stack[-1]
                return next_pc

            return run_local_tee
        if op == "global.get":
            index = ins.args[0]

            def run_global_get(f, index=index):
                f.stack.append(globals_[index])
                return next_pc

            return run_global_get
        if op == "global.set":
            index = ins.args[0]

            def run_global_set(f, index=index):
                globals_[index] = f.stack.pop()
                return next_pc

            return run_global_set

        # ---- constants ------------------------------------------------------
        if op == "i32.const":
            value = ins.args[0] & M32
            return lambda f, value=value: (f.stack.append(value), next_pc)[1]
        if op == "i64.const":
            value = ins.args[0] & M64
            return lambda f, value=value: (f.stack.append(value), next_pc)[1]
        if op == "f32.const":
            value = to_f32(float(ins.args[0]))
            return lambda f, value=value: (f.stack.append(value), next_pc)[1]
        if op == "f64.const":
            value = float(ins.args[0])
            return lambda f, value=value: (f.stack.append(value), next_pc)[1]

        # ---- memory ------------------------------------------------------------
        if ins.info.category == "load":
            if fast_mem:
                return _make_fast_load(op, ins.args[1], memory, next_pc)
            return _make_load(op, ins.args[1], memory, next_pc)
        if ins.info.category == "store":
            if fast_mem:
                return _make_fast_store(op, ins.args[1], memory, next_pc)
            return _make_store(op, ins.args[1], memory, next_pc)
        if op == "memory.fill":
            def run_memory_fill(f):
                stack = f.stack
                length = stack.pop()
                value = stack.pop()
                memory.fill(stack.pop(), value, length)
                return next_pc

            return run_memory_fill
        if op == "memory.copy":
            def run_memory_copy(f):
                stack = f.stack
                length = stack.pop()
                src = stack.pop()
                memory.copy(stack.pop(), src, length)
                return next_pc

            return run_memory_copy
        if op == "memory.size":
            def run_memory_size(f):
                f.stack.append(memory.pages)
                return next_pc

            return run_memory_size
        if op == "memory.grow":
            def run_memory_grow(f):
                delta = f.stack.pop()
                f.stack.append(memory.grow(delta) & M32)
                return next_pc

            return run_memory_grow

        # ---- numeric: table-driven -------------------------------------------------
        unop = _UNOPS.get(op)
        if unop is not None:
            def run_unop(f, unop=unop):
                stack = f.stack
                stack[-1] = unop(stack[-1])
                return next_pc

            return run_unop
        binop = _BINOPS.get(op)
        if binop is not None:
            def run_binop(f, binop=binop):
                stack = f.stack
                b = stack.pop()
                stack[-1] = binop(stack[-1], b)
                return next_pc

            return run_binop
        raise NotImplementedError(f"no interpreter support for {op}")  # pragma: no cover


class _Frame:
    __slots__ = ("stack", "locals", "labels")

    def __init__(self, locals_: List[Any]) -> None:
        self.stack: List[Any] = []
        self.locals = locals_
        self.labels: List[Tuple[int, int, int]] = []


def _default_locals(locals_: List[ValType]) -> List[Any]:
    return [0.0 if valtype.is_float else 0 for valtype in locals_]


def _branch(f: _Frame, depth: int) -> int:
    target, height, arity = f.labels[-1 - depth]
    del f.labels[len(f.labels) - 1 - depth :]
    stack = f.stack
    if arity:
        carried = stack[-arity:]
        del stack[height:]
        stack.extend(carried)
    else:
        del stack[height:]
    return target


# ----------------------------------------------------------------------
# Memory closures
# ----------------------------------------------------------------------
_LOAD_INT = {
    "i32.load": (4, False, 32),
    "i64.load": (8, False, 64),
    "i32.load8_s": (1, True, 32),
    "i32.load8_u": (1, False, 32),
    "i32.load16_s": (2, True, 32),
    "i32.load16_u": (2, False, 32),
    "i64.load8_s": (1, True, 64),
    "i64.load8_u": (1, False, 64),
    "i64.load16_s": (2, True, 64),
    "i64.load16_u": (2, False, 64),
    "i64.load32_s": (4, True, 64),
    "i64.load32_u": (4, False, 64),
}

_STORE_INT = {
    "i32.store": 4,
    "i64.store": 8,
    "i32.store8": 1,
    "i32.store16": 2,
    "i64.store8": 1,
    "i64.store16": 2,
    "i64.store32": 4,
}


def _make_load(op: str, offset: int, memory: LinearMemory, next_pc: int):
    if memory is None:  # pragma: no cover - validation prevents this
        raise LinkError(f"{op} with no memory")
    if op == "f32.load":
        def run_f32_load(f):
            stack = f.stack
            stack[-1] = struct.unpack("<f", memory.load_bytes(stack[-1] + offset, 4))[0]
            return next_pc

        return run_f32_load
    if op == "f64.load":
        def run_f64_load(f):
            stack = f.stack
            stack[-1] = struct.unpack("<d", memory.load_bytes(stack[-1] + offset, 8))[0]
            return next_pc

        return run_f64_load
    size, signed, bits = _LOAD_INT[op]
    mask = M32 if bits == 32 else M64

    def run_int_load(f, size=size, signed=signed, mask=mask):
        stack = f.stack
        raw = memory.load_bytes(stack[-1] + offset, size)
        value = int.from_bytes(raw, "little", signed=signed)
        stack[-1] = value & mask
        return next_pc

    return run_int_load


def _make_store(op: str, offset: int, memory: LinearMemory, next_pc: int):
    if memory is None:  # pragma: no cover - validation prevents this
        raise LinkError(f"{op} with no memory")
    if op == "f32.store":
        def run_f32_store(f):
            stack = f.stack
            value = stack.pop()
            memory.store_bytes(stack.pop() + offset, struct.pack("<f", to_f32(value)))
            return next_pc

        return run_f32_store
    if op == "f64.store":
        def run_f64_store(f):
            stack = f.stack
            value = stack.pop()
            memory.store_bytes(stack.pop() + offset, struct.pack("<d", value))
            return next_pc

        return run_f64_store
    size = _STORE_INT[op]
    mask = (1 << (size * 8)) - 1

    def run_int_store(f, size=size, mask=mask):
        stack = f.stack
        value = stack.pop() & mask
        memory.store_bytes(stack.pop() + offset, value.to_bytes(size, "little"))
        return next_pc

    return run_int_store


# ----------------------------------------------------------------------
# Fast memory closures (fused and opt tiers)
#
# Same observables as load_bytes/store_bytes — load/store counters,
# touched-page sets, strategy-defined OOB behaviour — but the in-bounds
# path unpacks straight out of the backing bytearray with a
# pre-compiled struct.Struct, skipping the method call and the
# intermediate bytes allocation.  The bytearray and touched-page set
# are captured by identity: grow() extends the bytearray in place and
# reset_tracking() clears the set in place, so both stay valid for the
# lifetime of the instance.
# ----------------------------------------------------------------------
#: op -> (struct format, post-mask or None).  Masks re-canonicalise
#: sign-extended sub-width loads to the unsigned value convention.
_FAST_LOAD = {
    "i32.load": ("<I", None),
    "i64.load": ("<Q", None),
    "f32.load": ("<f", None),
    "f64.load": ("<d", None),
    "i32.load8_s": ("<b", M32),
    "i32.load8_u": ("<B", None),
    "i32.load16_s": ("<h", M32),
    "i32.load16_u": ("<H", None),
    "i64.load8_s": ("<b", M64),
    "i64.load8_u": ("<B", None),
    "i64.load16_s": ("<h", M64),
    "i64.load16_u": ("<H", None),
    "i64.load32_s": ("<i", M64),
    "i64.load32_u": ("<I", None),
}

#: op -> (struct format, pre-mask or None).  Sub-width stores truncate;
#: full-width values are already canonical for their unsigned format.
_FAST_STORE = {
    "i32.store": ("<I", None),
    "i64.store": ("<Q", None),
    "f32.store": ("<f", None),
    "f64.store": ("<d", None),
    "i32.store8": ("<B", 0xFF),
    "i32.store16": ("<H", 0xFFFF),
    "i64.store8": ("<B", 0xFF),
    "i64.store16": ("<H", 0xFFFF),
    "i64.store32": ("<I", M32),
}


def _slow_load(memory: LinearMemory, addr: int, size: int, unpack_from):
    """Out-of-bounds load: defer to the strategy, like load_bytes."""
    effective = memory._check(addr, size, write=False)
    if effective < 0:
        return unpack_from(bytes(size), 0)[0]  # 'none': reads as zeros
    if memory.track_pages:
        memory._touch(effective, size)
    return unpack_from(memory.data, effective)[0]


def _slow_store(memory: LinearMemory, addr: int, size: int, pack_into, value):
    """Out-of-bounds store: defer to the strategy, like store_bytes."""
    effective = memory._check(addr, size, write=True)
    if effective < 0:
        return  # 'none': write lands in the guard scratch area
    if memory.track_pages:
        memory._touch(effective, size)
    pack_into(memory.data, effective, value)


def _make_fast_load(op: str, offset: int, memory: LinearMemory, next_pc: int):
    if memory is None:  # pragma: no cover - validation prevents this
        raise LinkError(f"{op} with no memory")
    fmt, mask = _FAST_LOAD[op]
    packer = struct.Struct(fmt)
    size = packer.size
    unpack_from = packer.unpack_from
    data = memory.data
    touched = memory.touched_pages
    track = memory.track_pages

    def run_fast_load(f):
        stack = f.stack
        addr = stack[-1] + offset
        memory.load_count += 1
        if addr + size <= len(data):
            if track:
                first = addr >> 12
                last = (addr + size - 1) >> 12
                if first == last:
                    touched.add(first)
                else:
                    touched.update(range(first, last + 1))
            value = unpack_from(data, addr)[0]
        else:
            value = _slow_load(memory, addr, size, unpack_from)
        stack[-1] = value if mask is None else value & mask
        return next_pc

    return run_fast_load


def _make_fast_store(op: str, offset: int, memory: LinearMemory, next_pc: int):
    if memory is None:  # pragma: no cover - validation prevents this
        raise LinkError(f"{op} with no memory")
    fmt, mask = _FAST_STORE[op]
    packer = struct.Struct(fmt)
    size = packer.size
    pack_into = packer.pack_into
    data = memory.data
    touched = memory.touched_pages
    track = memory.track_pages

    def run_fast_store(f):
        stack = f.stack
        value = stack.pop()
        if mask is not None:
            value = value & mask
        addr = stack.pop() + offset
        memory.store_count += 1
        if addr + size <= len(data):
            if track:
                first = addr >> 12
                last = (addr + size - 1) >> 12
                if first == last:
                    touched.add(first)
                else:
                    touched.update(range(first, last + 1))
            pack_into(data, addr, value)
        else:
            _slow_store(memory, addr, size, pack_into, value)
        return next_pc

    return run_fast_store


def _const_value(ins: Instr) -> Any:
    """The canonical runtime value of a *.const instruction."""
    op = ins.op
    if op == "i32.const":
        return ins.args[0] & M32
    if op == "i64.const":
        return ins.args[0] & M64
    if op == "f32.const":
        return to_f32(float(ins.args[0]))
    return float(ins.args[0])


# ----------------------------------------------------------------------
# Loop-handler and tier-2 code generator
# ----------------------------------------------------------------------
# Each loop handler and tier-2 function compiles to ONE Python
# function via symbolic stack evaluation (:class:`_Codegen`):
# walking the instructions with a compile-time stack of pure Python
# expressions turns e.g. the 10-op PolyBench address chain
# ``local.get;const;mul;local.get;add;const;mul;const;add;load`` into
# one statement.  The hot numeric ops inline as Python operators that
# compute what the corresponding _BINOPS/_UNOPS functions do
# (tests/test_tiering.py checks each against ``legacy`` on boundary
# operands); everything else calls the table function, so generated
# code has the interpreter's semantics by construction.

#: i32/i64 ops whose result modulo 2**N depends only on their operands
#: modulo 2**N: op -> (Python operator, mask).
_WRAP_BINOPS = {
    f"{ty}.{name}": (sym, mask)
    for ty, mask in (("i32", M32), ("i64", M64))
    for name, sym in (("add", "+"), ("sub", "-"), ("mul", "*"))
}

#: Integer bitwise ops and f64 arithmetic: one Python operator.
_PLAIN_BINOPS = {
    **{
        f"{ty}.{name}": sym
        for ty in ("i32", "i64")
        for name, sym in (("and", "&"), ("or", "|"), ("xor", "^"))
    },
    "f64.add": "+",
    "f64.sub": "-",
    "f64.mul": "*",
}

#: Compares that are one Python operator on canonical operands.
_CMP_OPS = {
    f"{ty}.{name}": sym
    for ty, names in (
        ("i32", ("eq", "ne", "lt_u", "gt_u", "le_u", "ge_u")),
        ("i64", ("eq", "ne", "lt_u", "gt_u", "le_u", "ge_u")),
        ("f32", ("eq", "ne", "lt", "gt", "le", "ge")),
        ("f64", ("eq", "ne", "lt", "gt", "le", "ge")),
    )
    for name, sym in zip(names, ("==", "!=", "<", ">", "<=", ">="))
}

#: Signed compares of canonical unsigned values: flipping the sign bit
#: of both operands maps signed order onto unsigned order, with no
#: s32/s64 call.  op -> (Python operator, sign bit).
_SIGNED_CMP_OPS = {
    f"{ty}.{name}": (sym, bias)
    for ty, bias in (("i32", 1 << 31), ("i64", 1 << 63))
    for name, sym in (("lt_s", "<"), ("gt_s", ">"), ("le_s", "<="), ("ge_s", ">="))
}

#: Parenthesis depth at which an inlined expression is assigned to a
#: name (CPython's parser stops at 200).
_MAX_EXPR_DEPTH = 20

#: Exclusive upper bound of a proven interval: a value in [0, 2**31)
#: is its own canonical i32 and its own signed i32.
_I31 = 1 << 31


@dataclass(slots=True)
class _Val:
    """One value on the symbolic stack.

    ``expr`` is a pure Python expression for it.  ``wrap`` is the mask
    it still needs to be canonical (0: none), ``cond`` marks a Python
    truth value standing for an i32 0 or 1, and ``const`` is the value
    of an integer literal.  ``reads`` are the Wasm locals ``expr``
    reads, ``level`` is the outermost enclosing loop it is invariant
    over (an index into ``_Codegen.loops``), ``atom`` marks a name or
    literal, ``depth`` counts its nested parentheses and ``align`` is a
    power of two (at most 4096) known to divide the value.

    Only a tier-2 function unit fills in the proofs.  ``ival`` is an
    interval [lo, hi] inside [0, 2**31) that the value provably lies
    in, with no wrap on the way (so plain Python arithmetic on it is
    exact); ``aff`` is an affine form ``{None: const, local: coeff}``
    over locals that still hold the values it was computed from; and
    ``node`` is the value's expression tree, which NumPy batching
    (:mod:`repro.runtime.vectorize`) regenerates over whole arrays.
    Its leaves are constants, loads and locals, a local named by the
    version it holds (how often it was written), so two values with
    one tree are equal unless a store came between their loads.
    """

    expr: str
    level: int
    wrap: int = 0
    cond: bool = False
    const: Optional[int] = None
    reads: frozenset = frozenset()
    atom: bool = True
    depth: int = 0
    align: int = 1
    ival: Optional[Tuple[int, int]] = None
    aff: Optional[Dict[Optional[int], int]] = None
    node: Optional[tuple] = None


@dataclass(slots=True)
class _Slot:
    """A loop's preheader: the hoisted values computed before it, as
    expression -> name, filled in as generation goes."""

    indent: int
    names: Dict[str, str] = field(default_factory=dict)


class _Codegen:
    """Symbolic-stack translation of Wasm ops to Python statements.

    ``sym`` holds a :class:`_Val` for every value the code has
    (conceptually) pushed and not yet consumed.  Pure values stay
    expressions, inlined into their one use; every op with an effect
    or a possible trap is emitted as a statement in program order, and
    writing a local first copies each stacked value that reads it, so
    every statement sees the values tier-1 dispatch would.
    i32/i64 ``add``/``sub``/``mul``/``shl`` leave their wrap mask to
    the first consumer that needs a canonical value, and compares stay
    Python truth values until something needs their 0 or 1.

    Generated code names Wasm local ``i`` ``l{i}``.  This class
    translates the ops; :class:`_UnitCompiler` adds control flow,
    loop-invariant hoisting, memory accesses, trap sites and
    per-segment counting for loop handlers and tier-2 functions.
    """

    def __init__(self, memory: Optional[LinearMemory]) -> None:
        self.memory = memory
        self.env: Dict[str, Any] = {}
        #: (indent, statement); a loop handler adds markers to these
        self.lines: List[Any] = []
        self.indent = 0
        self.sym: List[_Val] = []
        self.temps = 0
        self.hoists = 0
        #: enclosing Wasm loops, outermost first: (written locals, preheader)
        self.loops: List[Tuple[set, _Slot]] = []

    # -- output --------------------------------------------------------
    def bind(self, value: Any) -> str:
        name = f"_e{len(self.env)}"
        self.env[name] = value
        return name

    def emit(self, stmt: str, extra: int = 0) -> None:
        self.lines.append((self.indent + extra, stmt))

    def fresh(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def temp(self, expr: str) -> str:
        """A new temp assigned ``expr`` here."""
        name = self.fresh()
        self.emit(f"{name} = {expr}")
        return name

    # -- values --------------------------------------------------------
    def local(self, index: int) -> _Val:
        """Local ``index``, invariant over the loops that never write it."""
        level = len(self.loops)
        for j, (writes, _slot) in enumerate(self.loops):
            if index not in writes:
                level = j
                break
        return _Val(f"l{index}", level, reads=frozenset((index,)))

    def constant(self, value: Any, ty: str) -> _Val:
        """A literal: integers as themselves, floats bound as they are
        (so a NaN keeps its sign and payload)."""
        if ty in ("i32", "i64"):
            align = min(value & -value, 4096) if value else 4096
            return _Val(repr(value), 0, const=value, align=align)
        return _Val(self.bind(value), 0)

    def wrote(self, index: int, value: _Val) -> None:
        """Local ``index`` now holds ``value``."""

    def hoist(self, val: _Val) -> _Val:
        """Compute ``val`` once, before the loop it is invariant over."""
        names = self.loops[val.level][1].names
        name = names.get(val.expr)
        if name is None:
            name = names[val.expr] = f"h{self.hoists}"
            self.hoists += 1
        return _Val(
            name, val.level, wrap=val.wrap, cond=val.cond, align=val.align,
            ival=val.ival, aff=val.aff, node=val.node,
        )

    def name(self, val: _Val) -> _Val:
        """``val`` as a name or literal: hoisted if invariant, else a temp."""
        if val.atom:
            return val
        if val.level < len(self.loops):
            return self.hoist(val)
        return _Val(
            self.temp(val.expr), len(self.loops),
            wrap=val.wrap, cond=val.cond, align=val.align,
            ival=val.ival, aff=val.aff, node=val.node,
        )

    def settle(self, val: _Val) -> _Val:
        """``val`` ready for a use inside the innermost loop."""
        if val.atom or val.level >= len(self.loops):
            return val
        return self.hoist(val)

    def use(self, val: _Val) -> str:
        return self.settle(val).expr

    def combine(
        self, template: str, *args: _Val, wrap: int = 0, cond: bool = False,
        align: int = 1, ival: Optional[Tuple[int, int]] = None,
        aff: Optional[dict] = None, node: Optional[tuple] = None,
    ) -> _Val:
        """The pure value ``template`` computes from ``args``.

        An operand invariant over more loops than the result is hoisted
        on its own.
        """
        # Plain loops: this runs for nearly every op generated.
        level = depth = 0
        for arg in args:
            if arg.level > level:
                level = arg.level
        exprs = []
        reads = frozenset()
        for arg in args:
            if arg.level < level and not arg.atom:
                arg = self.hoist(arg)
            exprs.append(arg.expr)
            if arg.depth > depth:
                depth = arg.depth
            if arg.reads:
                reads = reads | arg.reads
        depth += 1
        val = _Val(
            template.format(*exprs), level,
            wrap=wrap, cond=cond, atom=False, depth=depth, align=align,
            reads=reads, ival=ival, aff=aff, node=node,
        )
        return self.name(val) if depth > _MAX_EXPR_DEPTH else val

    def canon(self, val: _Val) -> _Val:
        """``val`` as a canonical value (an int in [0, 2**N) or a float)."""
        if val.cond:
            return self.combine(
                "(1 if {} else 0)", val, ival=val.ival, node=val.node
            )
        if val.wrap:
            return self.combine(
                f"({{}} & {val.wrap})", val, align=val.align, node=val.node
            )
        return val

    def num(self, val: _Val) -> _Val:
        """``val`` as a number, its wrap mask possibly still pending."""
        return self.canon(val) if val.cond else val

    def test(self, val: _Val) -> _Val:
        """A value whose Python truth is whether ``val`` is nonzero."""
        return self.canon(val) if val.wrap and not val.cond else val

    def truth(self, val: _Val) -> str:
        return self.use(self.test(val))

    def materialize(self, index: Optional[int] = None) -> None:
        """Copy every stacked value that reads local ``index`` (any local
        when None) to a name, so a later write or loop cannot change it.

        A bare local is copied too, unless the innermost loop never
        writes it: then nothing emitted from here on can.
        """
        sym = self.sym
        depth = len(self.loops)
        for k, val in enumerate(sym):
            if not (val.reads if index is None else index in val.reads):
                continue
            if not val.atom:
                sym[k] = self.name(val)
            elif val.level >= depth:
                sym[k] = _Val(
                    self.temp(val.expr), depth,
                    ival=val.ival, aff=val.aff, node=val.node,
                )

    # -- ops -------------------------------------------------------------
    def translate(self, ins: Instr, pc: int) -> None:
        """Emit one non-control op."""
        op = ins.op
        sym = self.sym
        if op in _BINOPS:
            rhs = sym.pop()
            lhs = sym.pop()
            sym.append(self.binop(op, lhs, rhs, pc))
        elif op in predecode.CONST_NAMES:
            sym.append(self.constant(_const_value(ins), op[:3]))
        elif op == "local.get":
            sym.append(self.local(ins.args[0]))
        elif op in ("local.set", "local.tee"):
            index = ins.args[0]
            value = sym.pop()
            self.materialize(index)
            self.emit(f"l{index} = {self.use(self.canon(value))}")
            self.wrote(index, value)
            if op == "local.tee":
                sym.append(self.local(index))
        elif op == "drop":
            sym.pop()
        elif op == "select":
            cond = self.test(sym.pop())
            second = sym.pop()
            first = sym.pop()
            sym.append(self.select(first, second, cond))
        elif op in predecode.LOAD_NAMES:
            self.load(ins, pc)
        elif op in predecode.STORE_NAMES:
            self.store(ins, pc)
        elif op in _UNOPS:
            sym.append(self.unop(op, sym.pop(), pc))
        else:
            raise NotImplementedError(f"no generated translation for {op}")

    def binop(self, op: str, a: _Val, b: _Val, pc: int) -> _Val:
        wrap = _WRAP_BINOPS.get(op)
        if wrap is not None:
            sym, mask = wrap
            a, b = self.num(a), self.num(b)
            align = a.align * b.align if sym == "*" else min(a.align, b.align)
            return self.combine(
                f"({{}} {sym} {{}})", a, b, wrap=mask, align=min(align, 4096)
            )
        ty, kind = op.split(".")
        if ty in ("i32", "i64"):
            bits, mask = (31, M32) if ty == "i32" else (63, M64)
            if kind == "shl":
                a = self.num(a)
                if b.const is not None:
                    shift = b.const & bits
                    return self.combine(
                        f"({{}} << {shift})", a, wrap=mask,
                        align=min(a.align << shift, 4096),
                    )
                return self.combine(f"({{}} << ({{}} & {bits}))", a, self.num(b), wrap=mask)
            if kind == "shr_u":
                a = self.canon(a)
                if b.const is not None:
                    return self.combine(f"({{}} >> {b.const & bits})", a)
                return self.combine(f"({{}} >> ({{}} & {bits}))", a, self.num(b))
            if kind == "shr_s":
                # Python's >> on the signed value, leaving the mask.
                bias = mask // 2 + 1
                a = self.combine(f"(({{}} ^ {bias}) - {bias})", self.canon(a))
                if b.const is not None:
                    return self.combine(f"({{}} >> {b.const & bits})", a, wrap=mask)
                return self.combine(
                    f"({{}} >> ({{}} & {bits}))", a, self.num(b), wrap=mask
                )
            sym = _PLAIN_BINOPS.get(op)
            if sym is not None:
                a, b = self.num(a), self.num(b)
                if sym == "&":
                    # One canonical operand keeps the result canonical.
                    return self.combine(
                        "({} & {})", a, b, wrap=a.wrap if b.wrap else 0,
                        align=max(a.align, b.align),
                    )
                return self.combine(
                    f"({{}} {sym} {{}})", a, b, wrap=a.wrap or b.wrap,
                    align=min(a.align, b.align),
                )
        sym = _CMP_OPS.get(op)
        if sym is not None:
            return self.combine(
                f"({{}} {sym} {{}})", self.canon(a), self.canon(b), cond=True
            )
        signed = _SIGNED_CMP_OPS.get(op)
        if signed is not None:
            sym, bias = signed
            return self.combine(
                f"({{}} {sym} {{}})", self.biased(a, bias), self.biased(b, bias),
                cond=True,
            )
        sym = _PLAIN_BINOPS.get(op)
        if sym is not None:  # f64 arithmetic
            return self.combine(f"({{}} {sym} {{}})", a, b)
        fn = self.bind(_BINOPS[op])
        a, b = self.canon(a), self.canon(b)
        if op in predecode.TRAPPING_BINOPS:
            return self.trapping(f"{fn}({self.use(a)}, {self.use(b)})", pc)
        return self.combine(f"{fn}({{}}, {{}})", a, b)

    def select(self, first: _Val, second: _Val, cond: _Val) -> _Val:
        """``first`` if ``cond`` (a tested value) holds, else ``second``."""
        if first.cond and second.cond:
            return self.combine("({} if {} else {})", first, cond, second, cond=True)
        first, second = self.num(first), self.num(second)
        return self.combine(
            "({} if {} else {})", first, cond, second,
            wrap=first.wrap or second.wrap, align=min(first.align, second.align),
        )

    def biased(self, val: _Val, bias: int) -> _Val:
        """Canonical ``val`` with its sign bit flipped: signed order as
        unsigned order."""
        val = self.canon(val)
        if val.const is not None:
            return _Val(repr(val.const ^ bias), 0, const=val.const ^ bias)
        return self.combine(f"({{}} ^ {bias})", val)

    def unop(self, op: str, a: _Val, pc: int) -> _Val:
        if op in ("i32.eqz", "i64.eqz"):
            if a.cond:
                return self.combine("(not {})", a, cond=True)
            return self.combine("({} == 0)", self.canon(a), cond=True)
        if op == "i32.wrap_i64":
            return self.combine(f"({{}} & {M32})", self.num(a))
        if op == "i64.extend_i32_u":
            return self.canon(a)
        fn = self.bind(_UNOPS[op])
        a = self.canon(a)
        if op in predecode.TRAPPING_UNOPS:
            return self.trapping(f"{fn}({self.use(a)})", pc)
        return self.combine(f"{fn}({{}})", a)

    def trapping(self, expr: str, pc: int) -> _Val:
        """Run a trap-capable op right here."""
        self.mark(pc)
        return _Val(self.temp(expr), len(self.loops))

    def address(self, addr: _Val, offset: int) -> _Val:
        """The effective address, base + offset without wrapping."""
        addr = self.canon(addr)
        if offset:
            addr = self.combine(
                f"({{}} + {offset})", addr, align=min(addr.align, offset & -offset)
            )
        return addr


def _build(
    name: str, env: Dict[str, Any], lines: List[str], filename: str
) -> Callable:
    """Compile ``def name(f): lines`` with the environment ``env`` bound.

    The environment is bound through default parameters: defaults live
    in the function object, so handler-time lookups are all LOAD_FAST.
    """
    params = "".join(f", {key}={key}" for key in env)
    source = "\n".join(
        [f"def {name}(f{params}):"] + ["    " + line for line in lines]
    ) + "\n"
    namespace = dict(env)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# ----------------------------------------------------------------------
# Units: loop handlers and tier-2 functions
# ----------------------------------------------------------------------
# A unit compiles to one generated function through
# :class:`_UnitCompiler`: the body is :class:`_Codegen`'s translation,
# with locals kept in Python locals and a value invariant over an
# enclosing loop computed once before that loop.  Counting is per
# straight-line *segment*: one counter per maximal run of pcs that
# always run together, added to each pc's count, and to the load and
# store totals, when the unit exits.
#
# A *nest unit* is a loop handler (:func:`_gen_nest`): it runs one
# ``predecode.LoopNest`` in one dispatch.  Wasm control maps onto
# Python's: a ``loop``, with the ``block`` around it when their ends
# are adjacent, becomes ``while True:``; an ``if`` becomes
# ``if``/``else``; and a ``block`` or ``if`` that a branch leaves
# becomes a ``while True:`` that runs once.  A branch is ``continue`` or
# ``break`` on its label's Python loop, ``return`` for the nest's own
# block, and, across Python loops, ``go = <code>`` plus ``break``,
# dispatched after each loop it leaves.  Memory accesses are checked
# against the memory's size inline and may trap.
#
# An innermost ``block`` + ``loop`` pair of a nest unit is *versioned*
# (:meth:`_UnitCompiler.stream_plan`) when it has the shape of
# :func:`_loop_shape`, a test of its variable against a bound it does
# not change and a ``v += step; br 0`` tail, is straight-line between
# them, holds no trapping op, and every access in
# it is a *stream*: an address affine modulo 2**32 in the variable with
# a constant stride.  One guard at loop entry computes each stream's
# first and last address over the bound's whole trip range; when all
# lie in memory, a Python loop runs with no bounds test, page touch,
# address mask or counter, walking each stream with a pointer (an
# index into a typed ``memoryview`` where every access is aligned),
# and the variable's exit value gives the iterations, from which the
# segment counts and the touched pages are added once.  Otherwise the
# per-access loop runs, trap sites and all.
#
# A *function unit* is a tier-2 function (:func:`_gen_function`): a
# whole call-free function whose every loop is *counted* and whose
# every op provably cannot trap, so it carries proofs that a nest unit
# does not (:class:`_FunctionCompiler`).  Values get intervals and
# affine forms (:class:`_Val`), and a local known to hold an integer
# constant reads as that constant, so i32 arithmetic proven to stay in
# [0, 2**31) runs unmasked, signed compares of such values are plain
# compares and a constant divisor held in a local is a constant.  A counted loop runs as
# ``for l in range(...)`` over a trip count computed at entry, its
# body's segment bumped by the trip count once.  Every address has a
# proven upper bound, so one ``len(data)`` guard at function entry
# replaces every bounds check: if it fails, the handler returns 0
# having touched nothing and tier-1 dispatch runs the call.  An access
# whose address is affine in the loop's variable is a *stream*, whose
# pages are added for the whole loop at once, and an innermost loop of
# f64 streams may run as NumPy array statements
# (:func:`repro.runtime.vectorize.batch`).


class _Bailout(Exception):
    """A function outside the shape a function unit compiles: it stays
    on tier 1."""


@dataclass(slots=True)
class _Segment:
    """A straight-line run of pcs sharing one counter, bumped by
    ``bump`` each time the run starts (a counted loop's body is bumped
    by its trip count once)."""

    index: int
    pcs: List[int] = field(default_factory=list)
    loads: int = 0
    stores: int = 0
    bump: str = "1"


@dataclass(slots=True, eq=False)
class _PyLoop:
    """One generated ``while True:``; ``outward`` holds the ``go`` codes
    of branches that leave it for a loop further out."""

    outward: set = field(default_factory=set)


@dataclass(slots=True, eq=False)
class _Construct:
    """One open Wasm construct: a ``pair`` (block + loop with adjacent
    ends), ``block``, ``loop`` or ``if``."""

    kind: str
    end: int
    height: int
    #: the ``while True:`` a branch to it continues or breaks, if any
    pyloop: Optional[_PyLoop] = None
    #: some path leaves it to the pc after its end
    exits: bool = False
    has_else: bool = False
    then_live: bool = False
    #: the segment its ``end`` continues, when the code after it always
    #: runs with the code before it (a function unit's ``if``)
    resume: Optional[_Segment] = None
    #: a versioned pair: its per-access loop is the guard's ``else`` arm
    versioned: bool = False


@dataclass(slots=True, eq=False)
class _Pointer:
    """One stream of a versioned loop: its address is ``aff`` modulo
    2**32 plus ``offset`` at the first iteration and moves ``stride``
    bytes per iteration; its accesses are up to ``size`` bytes wide,
    made by the loop's test too when ``tested``, and share the struct
    format ``fmt`` if it is not None.  ``base`` names the first address
    and ``name`` the pointer: the address shifted right by ``shift``,
    an index into the typed memoryview ``view`` if there is one."""

    aff: dict
    offset: int
    stride: int
    fmt: Optional[str]
    size: int = 0
    tested: bool = False
    base: str = ""
    name: str = ""
    view: str = ""
    shift: int = 0


@dataclass(slots=True, eq=False)
class _LoopShape:
    """A ``block`` + ``loop`` pair of the counted or the search shape
    (:func:`_loop_shape`): the variable ``var`` steps by ``step`` while
    it is below the bound (above it, counting down), compared at
    ``cmp`` with sign bit ``bias``; the loop leaves at the ``br_if`` at
    ``exit``, and ``tail`` is its ``br 0``.  A versioned loop adds its
    streams, ``at`` mapping each access pc to its stream."""

    var: int
    step: int
    cmp: int
    exit: int
    tail: int
    search: bool
    bias: int
    streams: List[_Pointer] = field(default_factory=list)
    at: Dict[int, _Pointer] = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class _Stream:
    """An access of a counted loop at an address affine in the loop's
    variable: ``base`` is the first iteration's address, ``stride`` its
    step per iteration, and ``node`` (address node, offset) identifies
    the access to NumPy batching."""

    kind: str
    op: str
    stride: int
    size: int
    base: str
    node: tuple
    #: the name ``base`` is computed into before the loop
    name: str = ""


@dataclass(slots=True, eq=False)
class _Counted:
    """One counted loop of a function unit, as NumPy batching reads it:
    the Python loop variable ``l<var>`` runs ``trips`` times by
    ``step``."""

    var: int
    trips: str
    step: int
    #: the locals its body writes
    assigned: set
    streams: List[_Stream] = field(default_factory=list)
    #: (stream index, stored value's node, op) of each store to a stream
    stores: List[tuple] = field(default_factory=list)
    #: nothing in its body rules batching out
    batchable: bool = True


#: Unsigned sub-width loads: the interval of the value they load.
_LOAD_IVAL = {"i32.load8_u": (0, 0xFF), "i32.load16_u": (0, 0xFFFF)}

#: Signed i32 compares that are plain Python compares of operands
#: proven to lie in [0, 2**31).
_PROVEN_CMP = {"i32.lt_s": "<", "i32.gt_s": ">", "i32.le_s": "<=", "i32.ge_s": ">="}

#: The non-control ops a function unit translates.
_FUNCTION_OPS = (
    frozenset(("nop", "local.get", "local.set", "drop", "select"))
    | predecode.CONST_NAMES
    | predecode.LOAD_NAMES
    | predecode.STORE_NAMES
    | predecode.BINOP_NAMES
    | predecode.UNOP_NAMES
)

#: The ops a counted loop's bound may use.
_BOUND_OPS = (
    frozenset(("local.get",))
    | predecode.CONST_NAMES
    | predecode.BINOP_NAMES
    | predecode.NONTRAP_UNOPS
)


def _aff_sum(x, y, sign: int):
    if x is None or y is None:
        return None
    out = dict(x)
    out.setdefault(None, 0)
    for k, c in y.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c != 0 or k is None}


def _aff_scale(x, y):
    """Affine product: valid only when one side is a pure constant."""
    for const, other in ((x, y), (y, x)):
        if const is not None and other is not None and all(k is None for k in const):
            c = const.get(None, 0)
            return {k: v * c for k, v in other.items()}
    return None


def _hull(a: _Val, b: _Val) -> Optional[Tuple[int, int]]:
    """The interval holding both values, when both have one."""
    if a.ival is None or b.ival is None:
        return None
    return (min(a.ival[0], b.ival[0]), max(a.ival[1], b.ival[1]))


def _render_aff(aff: Dict[Optional[int], int]) -> str:
    terms = [
        f"l{k}" if c == 1 else f"l{k}*{c}"
        for k, c in aff.items()
        if k is not None and c != 0
    ]
    terms.append(str(aff.get(None, 0)))
    return " + ".join(terms)


def _wrap_aff(op: str, a: dict, b: dict) -> Optional[dict]:
    """i32 ``op`` on affine forms modulo 2**32, or None when the result
    is not affine."""
    if op == "i32.shl":
        b = {None: 1 << (b[None] & 31)} if len(b) == 1 else None
    if op in ("i32.add", "i32.sub"):
        out = _aff_sum(a, b, 1 if op == "i32.add" else -1)
    else:
        out = _aff_scale(a, b)
    return None if out is None else {k: c & M32 for k, c in out.items() if k is None or c & M32}


#: (values popped, values pushed) of each straight-line op.
_EFFECTS = {
    **dict.fromkeys(predecode.BINOP_NAMES, (2, 1)),
    **dict.fromkeys(predecode.UNOP_NAMES | predecode.LOAD_NAMES | {"local.tee"}, (1, 1)),
    **dict.fromkeys(predecode.STORE_NAMES, (2, 0)),
    **dict.fromkeys(predecode.CONST_NAMES | {"local.get"}, (0, 1)),
    "local.set": (1, 0), "drop": (1, 0), "select": (3, 1), "nop": (0, 0),
}

#: The ops a versioned loop holds besides its exit and its tail: no
#: trapping op, construct or other branch.
_STREAM_OPS = predecode.SAFE_OPS | predecode.LOAD_NAMES | predecode.STORE_NAMES | {"nop"}

#: The pure ops a versioned loop's bound may use.
_STREAM_BOUND_OPS = predecode.SAFE_OPS - {"local.set", "local.tee", "drop"}

#: Struct formats a memoryview cast to their native format reads and
#: writes alike.  Not ``<f``: it converts to and from doubles, where
#: struct and memoryview need not treat a NaN's payload alike.
_VIEWS = {
    fmt: fmt[1:]
    for fmt in {fmt for fmt, _ in (*_FAST_LOAD.values(), *_FAST_STORE.values())} - {"<f"}
    if sys.byteorder == "little" and struct.calcsize(fmt[1:]) == struct.calcsize(fmt)
}

#: Compares that test a loop's variable against its bound: op -> (step
#: sign, search shape, sign bit).  The counted shape leaves when the
#: compare holds, the search shape goes on only while it does.
_LOOP_TESTS = {
    f"i32.{name}{sign}": (step, search, bias)
    for sign, bias in (("_s", _I31), ("_u", 0))
    for name, step, search in (
        ("ge", 1, False), ("le", -1, False), ("lt", 1, True), ("gt", -1, True)
    )
}


def _loop_shape(body: Sequence[Instr], matches, pc: int) -> Union[_LoopShape, str]:
    """The shape of the ``block`` + ``loop`` pair at ``pc``, or why it
    has none.

    The shape is ``block; loop; local.get v; <bound>; <test>; br_if 1;
    <body>; local.get v; i32.const step; i32.add; local.set v; br 0;
    end; end``, neither construct with a result, its first ``br_if``
    the exit.  The test is a compare of :data:`_LOOP_TESTS`, alone in
    the *counted* shape, or ``<compare>; <D>; i32.and; i32.eqz`` in the
    *search* shape, D leaving one value.  The step is nonzero, its sign
    the compare's.
    """
    end, loop_pc = matches[pc][0], pc + 1
    if body[pc].args[0] is not None:
        return "block with a result type"
    if loop_pc >= end or body[loop_pc].op != "loop" or body[loop_pc].args[0] is not None:
        return "block without a loop of no result"
    tail = matches[loop_pc][0] - 1
    if tail != end - 2:
        return "loop and block ends not adjacent"
    exit_pc = next((p for p in range(loop_pc + 1, tail) if body[p].op == "br_if"), None)
    if exit_pc is None or body[exit_pc].args[0] != 1:
        return "loop without a br_if 1 exit"
    head, steps = body[loop_pc + 1], body[tail - 4 : tail + 1]
    if head.op != "local.get":
        return "loop test does not start with local.get"
    var = head.args[0]
    if tail - 4 <= exit_pc or [ins.op for ins in steps] != [
        "local.get", "i32.const", "i32.add", "local.set", "br"
    ] or (steps[0].args[0], steps[3].args[0], steps[4].args[0]) != (var, var, 0):
        return "unrecognised induction tail"
    # The test's ops that pop v, or the value that took its place.
    height, takes = 1, []
    for p in range(loop_pc + 2, exit_pc):
        pops, pushes = _EFFECTS.get(body[p].op, (None, None))
        if pops is None:
            return f"loop test uses {body[p].op}"
        if height - pops < 1:
            takes.append(p)
        height += pushes - pops
    sign, search, bias = _LOOP_TESTS.get(body[takes[0]].op if takes else "", (0, 0, 0))
    shape = [takes[0], exit_pc - 2, exit_pc - 1] if search else [exit_pc - 1]
    if not sign or takes != shape or search and (
        [body[p].op for p in shape[1:]] != ["i32.and", "i32.eqz"]
    ):
        return "unsupported loop test"
    step = s32(steps[1].args[0] & M32)
    if step * sign <= 0:
        return "loop step and test disagree"
    return _LoopShape(var, step, takes[0], exit_pc, tail, search, bias)


def _undo_after_trap(fix, counts, memory) -> None:
    """Take back what a segment counted past the op that trapped in it."""
    pcs, loads, stores = fix
    for pc in pcs:
        counts[pc] -= 1
    if loads:
        memory.load_count -= loads
    if stores:
        memory.store_count -= stores


class _UnitCompiler(_Codegen):
    """Generates one unit; see the comment above.  This class compiles a
    nest unit, the loop handler of a ``predecode.LoopNest``;
    :class:`_FunctionCompiler` extends it to a tier-2 function unit.
    ``targeted`` holds the opener pcs of the constructs some branch
    targets."""

    def __init__(
        self, body: Sequence[Instr], matches, memory, counts, head: int, end: int,
        targeted: AbstractSet[int] = frozenset(),
    ) -> None:
        super().__init__(memory)
        self.body = body
        self.matches = matches
        self.counts = counts
        self.head, self.end = head, end
        self.targeted = targeted
        # One pass over the unit, a whole function for tier 2.
        used: set = set()
        written: set = set()
        #: loop pc -> the locals written anywhere inside that loop
        self.writes: Dict[int, set] = {}
        open_loops: List[Tuple[int, set]] = []  # (end pc, writes)
        for pc in range(head, end):
            ins = body[pc]
            op = ins.op
            if op == "local.get":
                used.add(ins.args[0])
            elif op == "local.set" or op == "local.tee":
                index = ins.args[0]
                used.add(index)
                written.add(index)
                for _end, writes in open_loops:
                    writes.add(index)
            elif op == "loop":
                open_loops.append((matches[pc][0], self.writes.setdefault(pc, set())))
            elif op == "end" and open_loops and open_loops[-1][0] == pc:
                open_loops.pop()
        self.used, self.written = sorted(used), sorted(written)
        #: lines also hold a _Segment for the counter bump that opens it,
        #: a pc for a trap site's mark, and preheader _Slots
        self.marks: List[int] = []
        self.prologue = _Slot(0)
        self.pyloops: List[_PyLoop] = []
        #: open Wasm labels, innermost last: (construct, branch action)
        self.labels: List[Tuple[_Construct, str]] = []
        self.constructs: List[_Construct] = []
        self.go_targets: Dict[int, Tuple[_PyLoop, str]] = {}
        self.segments: List[_Segment] = []
        self.seg: Optional[_Segment] = None
        self.reachable = True
        #: trap sites: (pc, segment, and how many pcs, loads and stores
        #: the segment had counted there)
        self.sites: List[Tuple[int, _Segment, int, int, int]] = []
        self.accesses = False
        #: while a versioned loop is emitted: access pc -> its stream
        self.fast: Optional[Dict[int, _Pointer]] = None
        #: the loop pcs of the versioned pairs, the typed views they read
        self.versioned: List[int] = []
        self.views: set = set()

    # -- output --------------------------------------------------------
    def push(self) -> None:
        self.indent += 1
        self.marks.append(len(self.lines))

    def pop(self) -> None:
        if len(self.lines) == self.marks.pop():
            self.emit("pass")
        self.indent -= 1

    def count(self, pc: int) -> None:
        """Count the op at ``pc`` with the current segment."""
        if self.seg is None:
            self.seg = _Segment(len(self.segments))
            self.segments.append(self.seg)
            self.lines.append((self.indent, self.seg))
        self.seg.pcs.append(pc)

    def mark(self, pc: int, extra: int = 0) -> None:
        """Record how far the current segment got where ``pc`` may trap."""
        self.lines.append((self.indent + extra, pc))
        seg = self.seg
        self.sites.append((pc, seg, len(seg.pcs), seg.loads, seg.stores))

    def touch(self, a: str, size: int, align: int, extra: int) -> None:
        """Add the 4 KiB pages of the ``size``-byte access at ``a`` to the
        touched set."""
        self.env["touch"] = self.memory.touched_pages.add
        self.emit(f"touch({a} >> 12)", extra)
        if align < size:
            self.emit(f"if {a} & 4095 > {4096 - size}:", extra)
            self.emit(f"touch(({a} >> 12) + 1)", extra + 1)

    # -- memory ----------------------------------------------------------
    def stored(self, value: _Val, op: str) -> str:
        """What the store ``op`` of ``value`` writes: its canonical value,
        a sub-width store's mask applied."""
        mask = _FAST_STORE[op][1]
        if mask is not None:
            return self.use(self.combine(f"({{}} & {mask})", self.num(value)))
        return self.use(self.canon(value))

    def named(self, addr: _Val, pc: int) -> _Val:
        """``addr`` as a name: in a versioned loop, the stream pointer of
        the access at ``pc``."""
        if self.fast is not None:
            return _Val(self.fast[pc].name, len(self.loops))
        return self.name(addr)

    def load(self, ins: Instr, pc: int) -> None:
        """A load inlined against ``n``, counted by its segment."""
        addr = self.named(self.address(self.sym.pop(), ins.args[1]), pc)
        fmt, mask = _FAST_LOAD[ins.op]
        packer = struct.Struct(fmt)
        unpack = self.bind(packer.unpack_from)
        value = self.fresh()
        self.seg.loads += 1
        masked = f" & {mask}" if mask is not None else ""
        view = self.fast[pc].view if self.fast is not None else ""
        self.access(
            addr, packer.size, pc,
            f"{value} = {view}[{addr.expr}]{masked}" if view
            else f"{value} = {unpack}(data, {addr.expr})[0]{masked}",
            f"{value} = _slow_load(mem, {addr.expr}, {packer.size}, {unpack}){masked}",
        )
        self.sym.append(_Val(value, len(self.loops)))

    def store(self, ins: Instr, pc: int) -> None:
        """A store inlined like a load."""
        stored = self.stored(self.sym.pop(), ins.op)
        addr = self.named(self.address(self.sym.pop(), ins.args[1]), pc)
        packer = struct.Struct(_FAST_STORE[ins.op][0])
        pack = self.bind(packer.pack_into)
        self.seg.stores += 1
        view = self.fast[pc].view if self.fast is not None else ""
        self.access(
            addr, packer.size, pc,
            f"{view}[{addr.expr}] = {stored}" if view else f"{pack}(data, {addr.expr}, {stored})",
            f"_slow_store(mem, {addr.expr}, {packer.size}, {pack}, {stored})",
        )

    def access(self, addr: _Val, size: int, pc: int, fast: str, slow: str) -> None:
        """``fast`` in bounds, after adding the access's 4 KiB pages to the
        touched set; ``slow`` (the strategy's path) otherwise.  A
        versioned loop's guard has checked it: ``fast`` alone."""
        memory = self.memory
        self.accesses = True
        self.env.update(
            data=memory.data, mem=memory, _slow_load=_slow_load, _slow_store=_slow_store
        )
        if self.fast is not None:
            self.emit(fast)
            return
        a = addr.expr
        self.emit(f"if {a} + {size} <= n:")
        if memory.track_pages:
            self.touch(a, size, addr.align, 1)
        self.emit(fast, 1)
        self.emit("else:")
        self.mark(pc, 1)
        self.emit(slow, 1)

    # -- control ---------------------------------------------------------
    def open_while(self, construct: _Construct, loop_pc: Optional[int], slot=None) -> None:
        """Open the ``while True:`` of ``construct``; a Wasm loop at
        ``loop_pc`` also gets a preheader for hoisted values."""
        if loop_pc is not None:
            if slot is None:
                slot = _Slot(self.indent)
                self.lines.append(slot)
            self.loops.append((self.writes[loop_pc], slot))
        self.emit("while True:")
        self.push()
        construct.pyloop = _PyLoop()
        self.pyloops.append(construct.pyloop)
        self.constructs.append(construct)
        if loop_pc is not None:
            self.seg = None

    def close_while(self) -> None:
        """Close the innermost ``while True:``, then dispatch the ``go``
        branches that left it: take those aimed at the Python loop around
        it, and pass the others further out."""
        self.pop()
        pyloop = self.pyloops.pop()
        self.seg = None
        if not pyloop.outward:
            return
        parent = self.pyloops[-1]
        self.emit("if go:")
        passed = False
        for code in sorted(pyloop.outward):
            target, action = self.go_targets[code]
            if target is parent:
                self.emit(f"if go == {code}:", 1)
                self.emit("go = 0", 2)
                self.emit(action, 2)
            else:
                parent.outward.add(code)
                passed = True
        if passed:
            self.emit("break", 1)

    def open_pair(self, pc: int) -> None:
        outer = pc == self.head
        if not outer:  # tier-1 dispatch counts the nest's own block
            self.count(pc)
        self.materialize()
        construct = _Construct("pair", self.matches[pc][0], len(self.sym))
        slot = self.prologue if outer else None
        plan = self.stream_plan(pc)
        if plan is not None:
            if slot is None:
                slot = _Slot(self.indent)
                self.lines.append(slot)
            self.versioned_loop(pc, plan, slot, outer)
            construct.versioned = True
        self.open_while(construct, pc + 1, slot)
        self.labels.append((construct, "return" if outer else "break"))
        self.labels.append((construct, "continue"))
        self.count(pc + 1)

    def close_pair(self, construct: _Construct) -> None:
        del self.sym[construct.height :]
        if self.reachable:  # fell off the loop: both ends run
            self.count(construct.end - 1)
            self.count(construct.end)
            if construct.end == self.end:
                self.leave()
            else:
                self.emit("break")
                construct.exits = True
        self.close_while()
        if construct.versioned:
            self.indent -= 1
        self.loops.pop()
        del self.labels[-2:]
        self.constructs.pop()
        self.reachable = construct.exits

    def open_block(self, pc: int) -> None:
        self.count(pc)
        self.materialize()
        construct = _Construct("block", self.matches[pc][0], len(self.sym))
        if pc in self.targeted:
            self.open_while(construct, None)
        else:
            self.constructs.append(construct)
        self.labels.append((construct, "break"))

    def open_loop(self, pc: int) -> None:
        self.materialize()
        construct = _Construct("loop", self.matches[pc][0], len(self.sym))
        self.open_while(construct, pc)
        self.labels.append((construct, "continue"))
        self.count(pc)

    def open_if(self, pc: int, resume: Optional[_Segment] = None) -> None:
        """Open the ``if`` at ``pc``, already counted; the code after its
        ``end`` continues ``resume``, or a new segment when None."""
        cond = self.truth(self.sym.pop())
        self.materialize()
        construct = _Construct("if", self.matches[pc][0], len(self.sym), resume=resume)
        if pc in self.targeted:
            self.open_while(construct, None)
        else:
            self.constructs.append(construct)
        self.labels.append((construct, "break"))
        self.emit(f"if {cond}:")
        self.push()
        self.seg = None

    def on_else(self, pc: int) -> None:
        construct = self.constructs[-1]
        construct.then_live = self.reachable
        construct.has_else = True
        if self.reachable:  # the then-arm runs ``else``, then ``end``
            self.count(pc)
        del self.sym[construct.height :]
        self.pop()
        self.emit("else:")
        self.push()
        self.seg = None
        self.reachable = True

    def close(self, construct: _Construct, pc: int) -> None:
        """The ``end`` at ``pc`` of a block, loop or if."""
        del self.sym[construct.height :]
        live = self.reachable
        if construct.kind == "if":
            # Without an else arm, a false condition lands on the end.
            live = construct.then_live or live if construct.has_else else True
            self.pop()
            self.seg = construct.resume
        if live:
            self.count(pc)
            if construct.pyloop is not None:
                self.emit("break")
                construct.exits = True
        self.labels.pop()
        self.constructs.pop()
        if construct.pyloop is not None:
            if construct.kind == "loop":
                self.loops.pop()
            self.close_while()
            live = construct.exits
        self.reachable = live

    def branch(self, depth: int) -> None:
        construct, action = self.labels[-1 - depth]
        if action == "return":
            self.leave()
            return
        if action == "break":
            construct.exits = True
        pyloop = construct.pyloop
        if pyloop is self.pyloops[-1]:
            self.emit(action)
            return
        code = next(
            (c for c, t in self.go_targets.items() if t == (pyloop, action)),
            len(self.go_targets) + 1,
        )
        self.go_targets[code] = (pyloop, action)
        self.pyloops[-1].outward.add(code)
        self.emit(f"go = {code}")
        self.emit("break")

    def leave(self) -> None:
        """Store the written locals back and return past the nest."""
        for index in self.written:
            self.emit(f"L[{index}] = l{index}")
        self.emit(f"return {self.end + 1}")

    # -- versioned loops -------------------------------------------------
    def stream_plan(self, pc: int) -> Optional[_LoopShape]:
        """The shape of the pair at ``pc``, its streams filled in, if it
        is a loop a nest unit versions; None otherwise.

        That is a pair of the counted or the search shape
        (:func:`_loop_shape`) that holds no trapping op, construct or
        other branch, whose bound is pure and reads no local the loop
        writes, and whose every access is a *stream*: its address is
        affine modulo 2**32 in ``v`` over locals the loop does not
        write, locals written with such values in the same iteration
        included.  The search shape's D, loads included, runs on every
        test.
        """
        plan = _loop_shape(self.body, self.matches, pc)
        if isinstance(plan, str):
            return None
        body, var, writes = self.body, plan.var, self.writes[pc + 1]
        # Only the exit lies outside _STREAM_OPS.
        if sum(ins.op not in _STREAM_OPS for ins in body[pc + 3 : plan.tail - 4]) != 1:
            return None
        stack: List[Optional[dict]] = [{None: 0, var: 1}]
        known: Dict[int, Optional[dict]] = {}  # locals written so far
        keys: Dict[tuple, _Pointer] = {}
        for p in range(pc + 3, plan.tail - 4):
            ins = body[p]
            op = ins.op
            if p == plan.exit:
                stack.pop()
                continue
            if op in ("local.set", "local.tee") and ins.args[0] == var:
                return None
            if p < plan.cmp and (
                op not in _STREAM_BOUND_OPS or (op == "local.get" and ins.args[0] in writes)
            ):
                return None
            pops, pushes = _EFFECTS[op]
            args = stack[len(stack) - pops :]
            del stack[len(stack) - pops :]
            out = None
            if op == "i32.const":
                out = {None: ins.args[0] & M32}
            elif op == "local.get":
                j = ins.args[0]
                out = known.get(j) if j in writes and j != var else {None: 0, j: 1}
            elif op in ("local.set", "local.tee"):
                known[ins.args[0]] = out = args[0]
            elif op in ("i32.add", "i32.sub", "i32.mul", "i32.shl"):
                if None not in args:
                    out = _wrap_aff(op, *args)
            elif op in predecode.LOAD_NAMES or op in predecode.STORE_NAMES:
                aff, off = args[0], ins.args[1]
                if aff is None:
                    return None
                fmt = (_FAST_LOAD.get(op) or _FAST_STORE[op])[0]
                key = (frozenset(aff.items()), off)
                if key not in keys:
                    stride = s32((aff.get(var, 0) * plan.step) & M32)
                    keys[key] = _Pointer(aff, off, stride, fmt)
                    plan.streams.append(keys[key])
                stream = plan.at[p] = keys[key]
                stream.size = max(stream.size, struct.calcsize(fmt))
                stream.tested = stream.tested or p < plan.exit
                if stream.fmt != fmt:
                    stream.fmt = None
            if pushes:
                stack.append(out)
        return plan if plan.streams else None

    def versioned_loop(self, pc: int, plan: _LoopShape, slot: _Slot, outer: bool) -> None:
        """Emit the guard of the pair at ``pc`` and, behind it, the loop
        without bounds tests, page touches, address masks or counters,
        whose counts and pages are added once after it; leave the
        guard's ``else:`` open for the per-access loop.

        With ``m`` the iterations the test allows, the test runs at most
        ``m + 1`` times and the body ``m``.  The guard requires each
        stream's first and last address over that range in ``[0, n)``,
        measured from the unwrapped base, and the variable not to wrap:
        then every address in between steps exactly by its stride.  A
        stream whose accesses share one format, every address aligned
        to its width, is read through a typed memoryview.
        """
        body, lv, step, bias = self.body, f"l{plan.var}", plan.step, plan.bias
        w, m, k = self.fresh(), self.fresh(), self.fresh()
        for stream in plan.streams:
            stream.base = self.fresh()
            align = min((c & -c for c in (*stream.aff.values(), stream.offset) if c), default=1 << 32)
            if stream.fmt in _VIEWS and align >= stream.size:
                stream.view = f"_v{_VIEWS[stream.fmt]}"
                stream.shift = stream.size.bit_length() - 1
                self.views.add(stream.view)
            stream.name = self.fresh() if stream.stride or stream.view else stream.base
        mark, first, height = len(self.lines), len(self.segments), len(self.sym)
        self.loops.append((self.writes[pc + 1], slot))
        self.fast = plan.at
        self.indent += 2
        self.seg = None
        self.count(pc + 1)
        for p in range(pc + 2, plan.tail):
            if p == plan.cmp:
                bound = self.use(
                    self.biased(self.sym[-1], bias) if bias else self.canon(self.sym[-1])
                )
            self.count(p)
            if p == plan.exit:
                self.emit(f"if {self.truth(self.sym.pop())}:")
                self.emit("break", 1)
                self.seg = None
            elif body[p].op != "nop":
                self.translate(body[p], p)
        self.count(plan.tail)
        for stream in plan.streams:
            if stream.stride:
                self.emit(f"{stream.name} += {stream.stride >> stream.shift}")
        self.indent -= 2
        self.fast = None
        self.loops.pop()
        del self.sym[height:]
        loop = [item for item in self.lines[mark:] if not isinstance(item[1], _Segment)]
        del self.lines[mark:]

        self.emit(f"{w} = {lv} ^ {bias}")
        ahead = f"{bound} - {w}" if step > 0 else f"{w} - {bound}"
        self.emit(f"{m} = {ahead}" if abs(step) == 1 else f"{m} = ({ahead} + {abs(step) - 1}) // {abs(step)}")
        self.emit(f"if {m} < 0:")
        self.emit(f"{m} = 0", 1)
        conds = [f"0 <= {w} + {m} * {step} < {1 << 32}"] if abs(step) > 1 else []
        for stream in plan.streams:
            base, stride = stream.base, stream.stride
            self.emit(f"{base} = {self.stream_base(stream.aff, stream.offset)}")
            # The body's last access is a step before the test's.
            last = f"{base} + {m} * {stride}" if stream.tested else f"{base} + ({m} - 1) * {stride}"
            conds.append(f"{last if stride > 0 else base} + {stream.size} <= n")
            if stride < 0:
                conds.append(f"{last} >= {stream.offset}")
        self.emit(f"if {' and '.join(conds)}:")
        self.indent += 1
        for stream in plan.streams:
            if stream.name != stream.base:
                self.emit(f"{stream.name} = {stream.base}" + (f" >> {stream.shift}" if stream.shift else ""))
        self.emit("while True:")
        self.lines += loop
        done = f"({lv} ^ {bias}) - {w}" if step > 0 else f"{w} - ({lv} ^ {bias})"
        self.emit(f"{k} = {done}" if abs(step) == 1 else f"{k} = ({done}) // {abs(step)}")
        for seg in self.segments[first:]:
            seg.bump = k
            self.lines.append((self.indent, seg))
        self.segments[first].bump = f"{k} + 1"
        if self.memory.track_pages:
            self.env["pages"] = self.memory.touched_pages
            # A pointer ends at the test's last address, a step past the
            # body's, which ran only if the loop did.
            for stream in plan.streams:
                last = stream.name if stream.tested else f"({stream.name} - {stream.stride >> stream.shift})"
                if not stream.tested:
                    self.emit(f"if {k}:")
                last = f"({last} << {stream.shift})" if stream.shift else last
                self.stream_pages(stream.base, last, stream.stride, stream.size, not stream.tested)
        if outer:
            self.leave()
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.versioned.append(pc + 1)

    def stream_base(self, aff: dict, offset: int) -> str:
        """The address ``(aff mod 2**32) + offset`` at loop entry, each
        partial sum computed before the loops it is invariant over."""
        val = self.constant(aff[None], "i32")
        terms = [(self.local(j), c) for j, c in aff.items() if j is not None]
        for term, c in sorted(terms, key=lambda t: t[0].level):
            if c != 1:
                term = self.combine(f"({{}} * {s32(c)})", term)
            val = self.combine("({} + {})", val, term)
        if len(aff) > 1:
            val = self.combine(f"({{}} & {M32})", val)
        if offset:
            val = self.combine(f"({{}} + {offset})", val)
        return self.use(val)

    def stream_pages(
        self, first: str, last: str, stride: int, size: int, extra: int = 0
    ) -> None:
        """Add every page of the ``size``-byte accesses ``stride`` apart
        from the address ``first`` to the address ``last``."""
        end = size - 1
        if abs(stride) <= 4096:
            # Consecutive accesses land on the same or adjacent pages,
            # so the union of their pages is the span first..last.
            low, high = (first, last) if stride > 0 else (last, first) if stride else (first, first)
            self.emit(f"pages.update(range({low} >> 12, (({high} + {end}) >> 12) + 1))", extra)
        else:
            a = self.fresh()
            self.emit(f"for {a} in range({first}, {last} + {stride}, {stride}):", extra)
            self.emit(f"pages.update(range({a} >> 12, (({a} + {end}) >> 12) + 1))", extra + 1)

    def walk(self) -> None:
        body, matches = self.body, self.matches
        self.open_pair(self.head)
        pc = self.head + 2
        while self.constructs:
            ins = body[pc]
            op = ins.op
            if not self.reachable and op not in ("else", "end"):
                # Dead code after a br: skip it, nested constructs whole.
                pc = matches[pc][0] + 1 if op in ("block", "loop", "if") else pc + 1
                continue
            if op == "block":
                if body[pc + 1].op == "loop" and matches[pc + 1][0] == matches[pc][0] - 1:
                    self.open_pair(pc)
                    pc += 2
                    continue
                self.open_block(pc)
            elif op == "loop":
                self.open_loop(pc)
            elif op == "if":
                self.count(pc)
                self.open_if(pc)
            elif op == "else":
                self.on_else(pc)
            elif op == "end":
                construct = self.constructs[-1]
                if construct.kind == "pair":
                    self.close_pair(construct)
                    pc = construct.end + 1
                    continue
                self.close(construct, pc)
            elif op == "br":
                self.count(pc)
                self.branch(ins.args[0])
                self.reachable = False
            elif op == "br_if":
                self.count(pc)
                self.emit(f"if {self.truth(self.sym.pop())}:")
                self.push()
                self.branch(ins.args[0])
                self.pop()
                self.seg = None
            else:
                self.count(pc)
                if op != "nop":
                    self.translate(ins, pc)
            pc += 1

    # -- assembly ----------------------------------------------------------
    def counted(self, seg: _Segment) -> bool:
        return self.counts is not None or bool(seg.loads or seg.stores)

    def render(self, marked: bool) -> List[str]:
        """The unit's body: each segment marker becomes its counter bump,
        each preheader its hoisted values."""
        body: List[str] = []
        for item in self.lines:
            if isinstance(item, _Slot):
                body.extend(
                    f"{'    ' * item.indent}{name} = {expr}"
                    for expr, name in item.names.items()
                )
                continue
            indent, line = item
            if isinstance(line, _Segment):  # the bump opening a segment
                line = f"c{line.index} += {line.bump}" if self.counted(line) else "pass"
            elif isinstance(line, int):  # the site mark of a trapping op
                line = f"at = {line}" if marked else "pass"
            body.append("    " * indent + line)
        return body

    def flush(self, live: List[_Segment]) -> List[str]:
        """Add what the segments ``live`` counted to the count of each pc
        they cover and to the load and store totals."""
        flush = []
        if self.counts is not None:
            self.env["counts"] = self.counts
            flush += [
                f"for _pc in {self.bind(tuple(seg.pcs))}: counts[_pc] += c{seg.index}"
                for seg in live
            ]
        for attr, key in (("load_count", "loads"), ("store_count", "stores")):
            terms = [
                f"c{seg.index}" + (f" * {getattr(seg, key)}" if getattr(seg, key) > 1 else "")
                for seg in live
                if getattr(seg, key)
            ]
            if terms:
                flush.append(f"mem.{attr} += {' + '.join(terms)}")
        return flush

    def nest_handler(self) -> Callable:
        self.walk()
        counts = self.counts
        fixes = {
            pc: (
                tuple(seg.pcs[done:]) if counts is not None else (),
                seg.loads - loads,
                seg.stores - stores,
            )
            for pc, seg, done, loads, stores in self.sites
        }
        marked = any(pcs or loads or stores for pcs, loads, stores in fixes.values())
        body = self.render(marked)

        live = [seg for seg in self.segments if self.counted(seg)]
        prologue = ["L = f.locals"] + [f"l{i} = L[{i}]" for i in self.used]
        if live:
            prologue.append(" = ".join(f"c{seg.index}" for seg in live) + " = 0")
        if self.accesses:
            # No call or memory.grow in a nest: the size cannot change.
            prologue.append("n = len(data)")
        views = sorted(self.views)
        prologue += [f'{view} = memoryview(data).cast("{view[2:]}")' for view in views]
        if marked:
            prologue.append("at = 0")
        if self.go_targets:
            prologue.append("go = 0")
        prologue += [f"{name} = {expr}" for expr, name in self.prologue.names.items()]

        flush = self.flush(live)
        # A view left alive would keep memory.grow from resizing ``data``.
        flush += [f"{view}.release()" for view in views]
        if flush:
            lines = ["try:"] + ["    " + line for line in body]
            if marked:
                self.env.update(
                    fixes=fixes, _undo=_undo_after_trap, _Trap=Trap,
                    counts=counts, mem=self.memory,
                )
                lines += [
                    "except _Trap:",
                    "    if at:",
                    "        _undo(fixes[at], counts, mem)",
                    "    raise",
                ]
            lines += ["finally:"] + ["    " + line for line in flush]
        else:
            lines = body
        handler = _build(
            "_nest", self.env, prologue + lines, f"<nest:{self.head}..{self.end}>"
        )
        handler.versioned = tuple(self.versioned)
        return handler


class _FunctionCompiler(_UnitCompiler):
    """Generates one function unit, the tier-2 handler of a whole
    function whose params and locals have the type names
    ``local_types``, the first ``n_params`` of them params; see the
    comment above.  It emits control flow and counters as a nest unit
    does and adds the proofs."""

    def __init__(
        self, body: Sequence[Instr], matches, memory, counts,
        local_types: Sequence[str] = (), n_params: int = 0,
    ) -> None:
        super().__init__(body, matches, memory, counts, 0, len(body))
        #: what is known of each local's value: (interval, affine form,
        #: node); declared locals start at zero
        self.known = [
            (None, None, ("local", i, 0)) if i < n_params
            else ((0, 0), {None: 0}, ("const", 0, ty)) if ty == "i32"
            else (None, None, ("const", 0 if ty == "i64" else 0.0, ty))
            for i, ty in enumerate(local_types)
        ]
        #: local -> how often it was reassigned; a node names a version
        self.versions = [0] * len(local_types)
        #: the memory size the entry guard requires
        self.need = 0
        #: the counted loop whose body is being translated, outside any
        #: ``if`` arm in it
        self.loop: Optional[_Counted] = None
        self.trips = 0
        self.bases = 0

    # -- proofs --------------------------------------------------------
    def local(self, index: int) -> _Val:
        """Local ``index`` with what is known of it; one known to hold an
        integer constant reads as that constant."""
        ival, aff, node = self.known[index]
        if node[0] == "const" and node[2] in ("i32", "i64"):
            return self.constant(node[1], node[2])
        val = super().local(index)
        val.node = node
        if ival is not None:
            if aff is None and val.level == 0:
                # No enclosing loop writes it: it is its own affine form.
                aff = {index: 1, None: 0}
            val.ival, val.aff = ival, aff
        return val

    def constant(self, value: Any, ty: str) -> _Val:
        val = super().constant(value, ty)
        val.node = ("const", value, ty)
        if ty == "i32" and value < _I31:
            val.ival, val.aff = (value, value), {None: value}
        return val

    def wrote(self, index: int, value: _Val) -> None:
        if self.loop is not None:
            self.loop.batchable = False
        self.versions[index] += 1
        aff = value.aff
        if aff is not None and index in aff:
            aff = None
        node = value.node
        if node[0] != "const":
            # The local's version names its value: two locals, or one
            # local before and after a store, may hold values of one
            # expression tree that differ.
            node = ("local", index, self.versions[index])
        self.known[index] = (value.ival, aff, node)
        self.forget((index,))

    def forget(self, indices) -> None:
        """Drop every affine form over the old values of ``indices``."""
        known = self.known
        for k, (ival, aff, node) in enumerate(known):
            if aff is not None and any(j in aff for j in indices):
                known[k] = (ival, None, node)
        for val in self.sym:
            if val.aff is not None and any(j in val.aff for j in indices):
                val.aff = None

    def invalidate(self, indices) -> None:
        """Locals ``indices`` now hold values nothing is known of."""
        for j in indices:
            self.versions[j] += 1
            self.known[j] = (None, None, ("local", j, self.versions[j]))
        self.forget(indices)

    def select(self, first: _Val, second: _Val, cond: _Val) -> _Val:
        val = super().select(first, second, cond)
        val.ival = _hull(first, second)
        val.node = ("select", cond.node, first.node, second.node, val.ival)
        return val

    def binop(self, op: str, a: _Val, b: _Val, pc: int) -> _Val:
        if a.node is not None and b.node is not None and a.node[0] == b.node[0] == "const":
            # A constant expression that traps keeps the function on
            # tier 1, which traps the same only if the expression runs.
            try:
                value = _BINOPS[op](a.node[1], b.node[1])
            except Trap as exc:
                raise _Bailout(f"{op} on constants raises: {exc}")
            return self.constant(value, "i32" if op in predecode.CMP_NAMES else op[:3])
        if a.ival is not None and b.ival is not None:
            val = self.proven(op, a, b)
            if val is not None:
                return val
        if op in predecode.TRAPPING_BINOPS:
            # A constant divisor that cannot trap makes the table
            # function safe; anything else could trap mid-function.
            if b.const is None:
                raise _Bailout(f"{op} with a non-constant divisor")
            ones = M32 if op[:3] == "i32" else M64
            if b.const == 0 or (op.endswith("div_s") and b.const == ones):
                raise _Bailout(f"{op} by {b.const} may trap")
            fn = self.bind(_BINOPS[op])
            val = self.combine(f"{fn}({{}}, {{}})", self.canon(a), self.canon(b))
        else:
            val = super().binop(op, a, b, pc)
        val.node = ("bin", op, a.node, b.node, None)
        if op in predecode.CMP_NAMES:
            val.ival = (0, 1)
        return val

    def proven(self, op: str, a: _Val, b: _Val) -> Optional[_Val]:
        """``op`` on operands with intervals, unmasked when its result
        provably stays in [0, 2**31); None otherwise."""
        sym = _PROVEN_CMP.get(op)
        if sym is not None:
            return self.combine(
                f"({{}} {sym} {{}})", self.canon(a), self.canon(b), cond=True,
                ival=(0, 1), node=("bin", op, a.node, b.node, (0, 1)),
            )
        (al, ah), (bl, bh) = a.ival, b.ival
        if a.cond:
            a = self.canon(a)
        if b.cond:
            b = self.canon(b)
        args, aff, align = (a, b), None, 1
        if op == "i32.add":
            lo, hi, template = al + bl, ah + bh, "({} + {})"
            aff, align = _aff_sum(a.aff, b.aff, 1), min(a.align, b.align)
        elif op == "i32.sub":
            lo, hi, template = al - bh, ah - bl, "({} - {})"
            aff, align = _aff_sum(a.aff, b.aff, -1), min(a.align, b.align)
        elif op == "i32.mul":
            products = (al * bl, al * bh, ah * bl, ah * bh)
            lo, hi, template = min(products), max(products), "({} * {})"
            aff, align = _aff_scale(a.aff, b.aff), min(a.align * b.align, 4096)
        elif b.const is None:
            return None
        elif op == "i32.shl":
            shift = b.const & 31
            lo, hi, template, args = al << shift, ah << shift, f"({{}} << {shift})", (a,)
            aff = _aff_scale(a.aff, {None: 1 << shift})
            align = min(a.align << shift, 4096)
        elif op in ("i32.div_s", "i32.div_u") and bl > 0:
            lo, hi, template = al // bh, ah // bl, "({} // {})"
        elif op in ("i32.rem_s", "i32.rem_u") and bl > 0:
            lo, hi, template = 0, min(ah, bl - 1), "({} % {})"
        else:
            return None
        if lo < 0 or hi >= _I31:
            return None
        return self.combine(
            template, *args, align=align, ival=(lo, hi), aff=aff,
            node=("bin", op, a.node, b.node, (lo, hi)),
        )

    def unop(self, op: str, a: _Val, pc: int) -> _Val:
        if a.node is not None and a.node[0] == "const":
            try:
                value = _UNOPS[op](a.node[1])
            except Trap as exc:
                raise _Bailout(f"{op} on a constant raises: {exc}")
            return self.constant(value, op[:3])
        if op in predecode.TRAPPING_UNOPS:
            raise _Bailout(f"{op} may trap")
        node = ("un", op, a.node, a.ival)
        if op == "f64.convert_i32_s" and a.ival is not None:
            return self.combine("float({})", self.num(a), node=node)
        val = super().unop(op, a, pc)
        ival = (0, 1) if op in ("i32.eqz", "i64.eqz") else None
        if val is a:
            return replace(a, ival=ival, aff=None, node=node)
        val.ival, val.node = ival, node
        return val

    # -- memory ----------------------------------------------------------
    def load(self, ins: Instr, pc: int) -> None:
        """A load the entry guard proves in bounds, counted by its
        segment."""
        fmt, mask = _FAST_LOAD[ins.op]
        packer = struct.Struct(fmt)
        addr = self.sym.pop()
        where, _ = self.proven_access(addr, ins.args[1], packer.size, "load", ins.op)
        unpack = self.bind(packer.unpack_from)
        masked = f" & {mask}" if mask is not None else ""
        value = self.temp(f"{unpack}(data, {where})[0]{masked}")
        self.seg.loads += 1
        self.sym.append(_Val(
            value, len(self.loops), ival=_LOAD_IVAL.get(ins.op),
            node=("load", ins.op, addr.node, ins.args[1]),
        ))

    def store(self, ins: Instr, pc: int) -> None:
        """A store proven like a load."""
        value = self.sym.pop()
        stored = self.stored(value, ins.op)
        packer = struct.Struct(_FAST_STORE[ins.op][0])
        where, stream = self.proven_access(
            self.sym.pop(), ins.args[1], packer.size, "store", ins.op
        )
        self.emit(f"{self.bind(packer.pack_into)}(data, {where}, {stored})")
        self.seg.stores += 1
        if stream is not None:
            self.loop.stores.append((stream, value.node, ins.op))

    def proven_access(
        self, addr: _Val, offset: int, size: int, kind: str, op: str
    ) -> Tuple[str, Optional[int]]:
        """The effective address of an access the entry guard proves in
        bounds, and its stream index if it is a stream of the counted
        loop; any other access adds its pages here."""
        if addr.ival is None:
            raise _Bailout(f"{op}: unproven address")
        memory = self.memory
        if memory is None:
            raise _Bailout(f"{op} in a module without memory")
        self.need = max(self.need, addr.ival[1] + offset + size)
        self.env.update(data=memory.data, mem=memory)
        loop = self.loop
        if loop is not None and addr.aff is not None:
            aff = dict(addr.aff)
            aff[None] = aff.get(None, 0) + offset
            loop.streams.append(_Stream(
                kind, op, aff.get(loop.var, 0) * loop.step, size, _render_aff(aff),
                (addr.node, offset),
            ))
            return self.use(self.address(addr, offset)), len(loop.streams) - 1
        if loop is not None:
            loop.batchable = False
        where = self.name(self.address(addr, offset))
        if memory.track_pages:
            self.touch(where.expr, size, where.align, 0)
        return where.expr, None

    # -- control ---------------------------------------------------------
    def walk_span(self, pc: int, end: int) -> None:
        """Translate ``body[pc:end]``: straight-line ops, counted loops
        and ``if``s."""
        body = self.body
        while pc < end:
            ins = body[pc]
            op = ins.op
            if op == "block":
                pc = self.counted_loop(pc)
            elif op == "if":
                pc = self.walk_if(pc)
            elif op in _FUNCTION_OPS:
                self.count(pc)
                if op != "nop":
                    self.translate(ins, pc)
                pc += 1
            else:
                raise _Bailout(f"unsupported op {op}")

    def walk_if(self, pc: int) -> int:
        """Translate the ``if`` at ``pc``; return the pc after its end.

        Its ``if`` and ``end`` count with the code around it, each arm
        in its own segments.
        """
        if self.body[pc].args[0] is not None:
            raise _Bailout("if with a result type")
        if len(self.sym) != 1:
            raise _Bailout("if entered with values under its condition")
        end, else_pc = self.matches[pc]
        known, loop = list(self.known), self.loop
        if loop is not None:
            loop.batchable = False
        self.loop = None
        self.count(pc)
        self.open_if(pc, resume=self.seg)
        construct = self.constructs[-1]
        self.walk_span(pc + 1, end if else_pc is None else else_pc)
        if else_pc is not None:
            if self.sym:
                raise _Bailout("if arm leaves values on the stack")
            self.known = list(known)
            self.on_else(else_pc)
            self.walk_span(else_pc + 1, end)
        if self.sym:
            raise _Bailout("if arm leaves values on the stack")
        self.close(construct, end)
        self.known, self.loop = known, loop
        self.invalidate({
            ins.args[0]
            for ins in self.body[pc + 1 : end]
            if ins.op in ("local.set", "local.tee")
        })
        return end + 1

    def counted_loop(self, pc: int) -> int:
        """Translate the counted loop whose ``block`` is at ``pc``; return
        the pc after it.

        The loop is a pair of the counted shape (:func:`_loop_shape`)
        with a signed test, ``v >= bound`` (``<=`` counting down), and a
        bound the body does not change.  The block and the failing test
        run once per entry; the test and the tail once per iteration
        too; the two ``end``s never run.
        """
        body = self.body
        if self.sym:
            raise _Bailout("loop entered with values on the stack")
        shape = _loop_shape(body, self.matches, pc)
        if isinstance(shape, str):
            raise _Bailout(shape)
        if shape.search or not shape.bias:
            raise _Bailout(f"unsupported loop test {body[shape.cmp].op}")
        var, step, exit_pc, loop_pc = shape.var, shape.step, shape.exit, pc + 1
        step_pc, tail, end = shape.tail - 4, shape.tail + 1, shape.tail + 2
        start = self.known[var][0]
        if start is None:
            raise _Bailout("loop start interval unknown")
        assigned = {
            body[p].args[0]
            for p in range(exit_pc + 1, step_pc)
            if body[p].op in ("local.set", "local.tee")
        }
        bound_reads = {
            body[p].args[0]
            for p in range(loop_pc + 2, exit_pc - 1)
            if body[p].op == "local.get"
        }
        if var in assigned or var in bound_reads or bound_reads & assigned:
            raise _Bailout("loop variable or bound written in the body")

        tests = range(loop_pc, exit_pc + 1)
        self.count(pc)
        for p in tests:
            self.count(p)
        for p in range(loop_pc + 2, exit_pc - 1):
            if body[p].op not in _BOUND_OPS:
                raise _Bailout(f"loop bound uses {body[p].op}")
            self.translate(body[p], p)
        if len(self.sym) != 1:
            raise _Bailout("loop bound is not one value")
        stop = self.sym.pop()
        if stop.ival is None:
            raise _Bailout("loop bound interval unknown")
        (v0l, v0h), (sl, sh) = start, stop.ival
        if step > 0:
            if sh - 1 + step >= _I31:
                raise _Bailout("loop range may wrap")
            inside, after = (v0l, max(v0l, sh - 1)), (v0l, max(v0h, sh - 1 + step))
        else:
            if sl + 1 + step < 0:
                raise _Bailout("loop range may wrap")
            inside, after = (min(v0h, sl + 1), v0h), (min(v0l, sl + 1 + step), v0h)

        trips = f"m{self.trips}"
        self.trips += 1
        bound, lv = self.use(stop), f"l{var}"
        if step == 1:
            self.emit(f"{trips} = {bound} - {lv}")
        elif step > 0:
            self.emit(f"{trips} = ({bound} - {lv} + {step - 1}) // {step}")
        else:
            self.emit(f"{trips} = ({lv} - {bound} + {-step - 1}) // {-step}")
        self.emit(f"if {trips} > 0:")
        self.push()
        self.invalidate(assigned | {var})
        self.known[var] = (inside, {var: 1, None: 0}, ("local", var, self.versions[var]))
        outer, resume = self.loop, self.seg
        if outer is not None:
            outer.batchable = False
        loop = self.loop = _Counted(var, trips, step, assigned)
        seg = self.seg = _Segment(len(self.segments), pcs=list(tests), bump=trips)
        self.segments.append(seg)
        self.lines.append((self.indent, seg))
        slot = _Slot(self.indent)
        self.lines.append(slot)
        self.loops.append((self.writes[loop_pc], slot))
        mark = len(self.lines)
        self.indent += 1
        self.walk_span(exit_pc + 1, step_pc)
        self.indent -= 1
        if self.sym:
            raise _Bailout("loop body leaves values on the stack")
        seg.pcs.extend(range(step_pc, tail))
        scalar = self.lines[mark:]
        del self.lines[mark:]
        self.loops.pop()
        self.loop = outer

        bases: Dict[str, str] = {}
        for stream in loop.streams:
            stream.name = bases.get(stream.base, "")
            if not stream.name:
                stream.name = bases[stream.base] = f"b{self.bases}"
                self.bases += 1
                self.emit(f"{stream.name} = {stream.base}")
        batched = None
        # A loop that cannot reach VEC_MIN trips would never run batched.
        most = -((v0l - sh) // step)  # the intervals' bound on the trips
        if loop.batchable and loop.stores and step > 0 and most >= vectorize.VEC_MIN:
            batched = vectorize.batch(loop, self.bind, self.versions)
        shift = 0
        if batched is not None:
            lines, alias = batched
            self.env["_np"] = vectorize._np
            alias = f" and ({alias})" if alias else ""
            self.emit(f"if {trips} >= {vectorize.VEC_MIN}{alias}:")
            for line in lines:
                self.emit(line, 1)
            self.emit(f"{lv} += {trips}" if step == 1 else f"{lv} += {trips} * {step}", 1)
            self.emit("else:")
            shift = 1
        if step == 1:
            self.emit(f"for {lv} in range({lv}, {lv} + {trips}):", shift)
        else:
            self.emit(f"for {lv} in range({lv}, {lv} + {trips} * {step}, {step}):", shift)
        if not scalar:
            self.emit("pass", shift + 1)
        elif not shift:
            self.lines += scalar
        else:  # the scalar loop moves under ``else:``
            for item in scalar:
                if isinstance(item, _Slot):
                    item.indent += 1
                    self.lines.append(item)
                else:
                    self.lines.append((item[0] + 1, item[1]))
        self.emit(f"{lv} += {step}", shift)
        if self.memory is not None and self.memory.track_pages:
            self.env["pages"] = self.memory.touched_pages
            spans = {(st.name, st.stride, st.size): st for st in loop.streams}
            for stream in spans.values():
                name, stride = stream.name, stream.stride
                last = f"{name} + ({trips} - 1) * {stride}"
                self.stream_pages(name, last, stride, stream.size)
        self.pop()

        self.invalidate(assigned | {var})
        self.known[var] = (after, None, ("local", var, self.versions[var]))
        self.seg = resume
        return end + 1

    # -- assembly ----------------------------------------------------------
    def handler(self, n_results: int) -> Callable:
        self.walk_span(0, len(self.body))
        if len(self.sym) != n_results:
            raise _Bailout(f"body ends with {len(self.sym)} values, not {n_results}")
        results = [self.use(self.canon(val)) for val in self.sym]
        live = [seg for seg in self.segments if self.counted(seg)]
        lines = ["L = f.locals"] + [f"l{i} = L[{i}]" for i in self.used]
        if self.need:
            lines.append(f"if len(data) < {self.need}: return 0")
        if live:
            lines.append(" = ".join(f"c{seg.index}" for seg in live) + " = 0")
        lines += self.render(False)
        lines += self.flush(live)
        if results:
            lines += ["S = f.stack"] + [f"S.append({value})" for value in results]
        lines.append("return -1")
        return _build("_tier2", self.env, lines, "<tier2>")



def _branch_targets(body: Sequence[Instr], head: int, end: int) -> set:
    """Opener pcs of the constructs some branch in ``body[head:end]``
    targets."""
    targeted = set()
    openers: List[int] = []
    for pc in range(head, end):
        ins = body[pc]
        if ins.op in ("block", "loop", "if"):
            openers.append(pc)
        elif ins.op == "end":
            openers.pop()
        elif ins.op in ("br", "br_if"):
            targeted.add(openers[-1 - ins.args[0]])
    return targeted


def _gen_nest(
    nest, body: Sequence[Instr], matches, memory: Optional[LinearMemory], counts
) -> Callable:
    """Compile one ``predecode.LoopNest`` to its loop handler.

    Installed at the nest's ``block`` pc, the handler runs the whole
    nest and returns the pc after its ``end``.  It counts every pc it
    runs but the ``block``, which dispatch counts, per segment, and adds
    the counts to ``counts`` (None when not profiling) and to the
    memory's load and store totals in a ``finally``.  A trap records how far its segment
    got only where one can happen, on a slow-path access or before a
    ``div``/``rem``/``trunc``, and an ``except`` takes back what the
    segment counted past it: the handler leaves exactly the counts,
    touched pages and memory tier-1 dispatch leaves.
    """
    return _UnitCompiler(
        body, matches, memory, counts, nest.head, nest.end,
        targeted=_branch_targets(body, nest.head, nest.end),
    ).nest_handler()


def _gen_function(
    body: Sequence[Instr], matches, local_types: Sequence[str], n_params: int,
    n_results: int, memory: Optional[LinearMemory], counts,
) -> Optional[Callable]:
    """Compile one whole function to its tier-2 handler, or None when it
    falls outside the shape a function unit compiles.

    ``local_types`` are its params' and locals' type names, ``counts``
    its per-pc count list (None when not profiling).  The handler
    ``fn(frame)`` returns -1 having run the call, its results pushed,
    or 0 having touched nothing when the memory is smaller than its
    entry guard needs.  It counts every pc of the function.
    """
    try:
        return _FunctionCompiler(
            body, matches, memory, counts, local_types, n_params
        ).handler(n_results)
    except _Bailout:
        return None


# ----------------------------------------------------------------------
# Numeric operator tables
# ----------------------------------------------------------------------
def _div_s32(a, b):
    sa, sb = s32(a), s32(b)
    if sb == 0:
        raise Trap("integer-divide-by-zero")
    if sa == -0x8000_0000 and sb == -1:
        raise Trap("integer-overflow")
    return _trunc_div(sa, sb) & M32


def _div_u32(a, b):
    if b == 0:
        raise Trap("integer-divide-by-zero")
    return a // b


def _rem_s32(a, b):
    sa, sb = s32(a), s32(b)
    if sb == 0:
        raise Trap("integer-divide-by-zero")
    return _trunc_rem(sa, sb) & M32


def _rem_u32(a, b):
    if b == 0:
        raise Trap("integer-divide-by-zero")
    return a % b


def _div_s64(a, b):
    sa, sb = s64(a), s64(b)
    if sb == 0:
        raise Trap("integer-divide-by-zero")
    if sa == -0x8000_0000_0000_0000 and sb == -1:
        raise Trap("integer-overflow")
    return _trunc_div(sa, sb) & M64


def _div_u64(a, b):
    if b == 0:
        raise Trap("integer-divide-by-zero")
    return a // b


def _rem_s64(a, b):
    sa, sb = s64(a), s64(b)
    if sb == 0:
        raise Trap("integer-divide-by-zero")
    return _trunc_rem(sa, sb) & M64


def _rem_u64(a, b):
    if b == 0:
        raise Trap("integer-divide-by-zero")
    return a % b


_BINOPS: Dict[str, Callable[[Any, Any], Any]] = {
    # i32
    "i32.add": lambda a, b: (a + b) & M32,
    "i32.sub": lambda a, b: (a - b) & M32,
    "i32.mul": lambda a, b: (a * b) & M32,
    "i32.div_s": _div_s32,
    "i32.div_u": _div_u32,
    "i32.rem_s": _rem_s32,
    "i32.rem_u": _rem_u32,
    "i32.and": lambda a, b: a & b,
    "i32.or": lambda a, b: a | b,
    "i32.xor": lambda a, b: a ^ b,
    "i32.shl": lambda a, b: (a << (b & 31)) & M32,
    "i32.shr_s": lambda a, b: (s32(a) >> (b & 31)) & M32,
    "i32.shr_u": lambda a, b: a >> (b & 31),
    "i32.rotl": lambda a, b: _rotl(a, b, 32, M32),
    "i32.rotr": lambda a, b: _rotr(a, b, 32, M32),
    "i32.eq": lambda a, b: 1 if a == b else 0,
    "i32.ne": lambda a, b: 1 if a != b else 0,
    "i32.lt_s": lambda a, b: 1 if s32(a) < s32(b) else 0,
    "i32.lt_u": lambda a, b: 1 if a < b else 0,
    "i32.gt_s": lambda a, b: 1 if s32(a) > s32(b) else 0,
    "i32.gt_u": lambda a, b: 1 if a > b else 0,
    "i32.le_s": lambda a, b: 1 if s32(a) <= s32(b) else 0,
    "i32.le_u": lambda a, b: 1 if a <= b else 0,
    "i32.ge_s": lambda a, b: 1 if s32(a) >= s32(b) else 0,
    "i32.ge_u": lambda a, b: 1 if a >= b else 0,
    # i64
    "i64.add": lambda a, b: (a + b) & M64,
    "i64.sub": lambda a, b: (a - b) & M64,
    "i64.mul": lambda a, b: (a * b) & M64,
    "i64.div_s": _div_s64,
    "i64.div_u": _div_u64,
    "i64.rem_s": _rem_s64,
    "i64.rem_u": _rem_u64,
    "i64.and": lambda a, b: a & b,
    "i64.or": lambda a, b: a | b,
    "i64.xor": lambda a, b: a ^ b,
    "i64.shl": lambda a, b: (a << (b & 63)) & M64,
    "i64.shr_s": lambda a, b: (s64(a) >> (b & 63)) & M64,
    "i64.shr_u": lambda a, b: a >> (b & 63),
    "i64.rotl": lambda a, b: _rotl(a, b, 64, M64),
    "i64.rotr": lambda a, b: _rotr(a, b, 64, M64),
    "i64.eq": lambda a, b: 1 if a == b else 0,
    "i64.ne": lambda a, b: 1 if a != b else 0,
    "i64.lt_s": lambda a, b: 1 if s64(a) < s64(b) else 0,
    "i64.lt_u": lambda a, b: 1 if a < b else 0,
    "i64.gt_s": lambda a, b: 1 if s64(a) > s64(b) else 0,
    "i64.gt_u": lambda a, b: 1 if a > b else 0,
    "i64.le_s": lambda a, b: 1 if s64(a) <= s64(b) else 0,
    "i64.le_u": lambda a, b: 1 if a <= b else 0,
    "i64.ge_s": lambda a, b: 1 if s64(a) >= s64(b) else 0,
    "i64.ge_u": lambda a, b: 1 if a >= b else 0,
    # f32
    "f32.add": lambda a, b: to_f32(a + b),
    "f32.sub": lambda a, b: to_f32(a - b),
    "f32.mul": lambda a, b: to_f32(a * b),
    "f32.div": lambda a, b: to_f32(_fdiv(a, b)),
    "f32.min": _fmin,
    "f32.max": _fmax,
    "f32.copysign": lambda a, b: math.copysign(a, b),
    "f32.eq": lambda a, b: 1 if a == b else 0,
    "f32.ne": lambda a, b: 1 if a != b else 0,
    "f32.lt": lambda a, b: 1 if a < b else 0,
    "f32.gt": lambda a, b: 1 if a > b else 0,
    "f32.le": lambda a, b: 1 if a <= b else 0,
    "f32.ge": lambda a, b: 1 if a >= b else 0,
    # f64
    "f64.add": lambda a, b: a + b,
    "f64.sub": lambda a, b: a - b,
    "f64.mul": lambda a, b: a * b,
    "f64.div": _fdiv,
    "f64.min": _fmin,
    "f64.max": _fmax,
    "f64.copysign": lambda a, b: math.copysign(a, b),
    "f64.eq": lambda a, b: 1 if a == b else 0,
    "f64.ne": lambda a, b: 1 if a != b else 0,
    "f64.lt": lambda a, b: 1 if a < b else 0,
    "f64.gt": lambda a, b: 1 if a > b else 0,
    "f64.le": lambda a, b: 1 if a <= b else 0,
    "f64.ge": lambda a, b: 1 if a >= b else 0,
}

_UNOPS: Dict[str, Callable[[Any], Any]] = {
    # integer unary
    "i32.eqz": lambda a: 1 if a == 0 else 0,
    "i64.eqz": lambda a: 1 if a == 0 else 0,
    "i32.clz": lambda a: _clz(a, 32),
    "i32.ctz": lambda a: _ctz(a, 32),
    "i32.popcnt": lambda a: a.bit_count(),
    "i64.clz": lambda a: _clz(a, 64),
    "i64.ctz": lambda a: _ctz(a, 64),
    "i64.popcnt": lambda a: a.bit_count(),
    # float unary
    "f32.abs": lambda a: to_f32(math.fabs(a)),
    "f32.neg": lambda a: to_f32(-a if a == a else _NAN),
    "f32.ceil": lambda a: to_f32(_fceil(a)),
    "f32.floor": lambda a: to_f32(_ffloor(a)),
    "f32.trunc": lambda a: to_f32(_ftrunc(a)),
    "f32.nearest": lambda a: to_f32(_fnearest(a)),
    "f32.sqrt": lambda a: to_f32(_fsqrt(a)),
    "f64.abs": math.fabs,
    "f64.neg": lambda a: -a if a == a else _NAN,
    "f64.ceil": _fceil,
    "f64.floor": _ffloor,
    "f64.trunc": _ftrunc,
    "f64.nearest": _fnearest,
    "f64.sqrt": _fsqrt,
    # conversions
    "i32.wrap_i64": lambda a: a & M32,
    "i32.trunc_f32_s": lambda a: _trunc_to_int(a, -(2**31), 2**31 - 1) & M32,
    "i32.trunc_f32_u": lambda a: _trunc_to_int(a, 0, 2**32 - 1),
    "i32.trunc_f64_s": lambda a: _trunc_to_int(a, -(2**31), 2**31 - 1) & M32,
    "i32.trunc_f64_u": lambda a: _trunc_to_int(a, 0, 2**32 - 1),
    "i64.extend_i32_s": lambda a: s32(a) & M64,
    "i64.extend_i32_u": lambda a: a,
    "i64.trunc_f32_s": lambda a: _trunc_to_int(a, -(2**63), 2**63 - 1) & M64,
    "i64.trunc_f32_u": lambda a: _trunc_to_int(a, 0, 2**64 - 1),
    "i64.trunc_f64_s": lambda a: _trunc_to_int(a, -(2**63), 2**63 - 1) & M64,
    "i64.trunc_f64_u": lambda a: _trunc_to_int(a, 0, 2**64 - 1),
    "f32.convert_i32_s": lambda a: to_f32(float(s32(a))),
    "f32.convert_i32_u": lambda a: to_f32(float(a)),
    "f32.convert_i64_s": lambda a: to_f32(float(s64(a))),
    "f32.convert_i64_u": lambda a: to_f32(float(a)),
    "f32.demote_f64": to_f32,
    "f64.convert_i32_s": lambda a: float(s32(a)),
    "f64.convert_i32_u": lambda a: float(a),
    "f64.convert_i64_s": lambda a: float(s64(a)),
    "f64.convert_i64_u": lambda a: float(a),
    "f64.promote_f32": lambda a: a,
    "i32.reinterpret_f32": lambda a: struct.unpack("<I", struct.pack("<f", a))[0],
    "i64.reinterpret_f64": lambda a: struct.unpack("<Q", struct.pack("<d", a))[0],
    "f32.reinterpret_i32": lambda a: struct.unpack("<f", struct.pack("<I", a))[0],
    "f64.reinterpret_i64": lambda a: struct.unpack("<d", struct.pack("<Q", a))[0],
    # sign extension
    "i32.extend8_s": lambda a: ((a & 0xFF) - 0x100 if a & 0x80 else a & 0xFF) & M32,
    "i32.extend16_s": lambda a: ((a & 0xFFFF) - 0x10000 if a & 0x8000 else a & 0xFFFF) & M32,
    "i64.extend8_s": lambda a: ((a & 0xFF) - 0x100 if a & 0x80 else a & 0xFF) & M64,
    "i64.extend16_s": lambda a: ((a & 0xFFFF) - 0x10000 if a & 0x8000 else a & 0xFFFF) & M64,
    "i64.extend32_s": lambda a: (s32(a & M32)) & M64,
}
