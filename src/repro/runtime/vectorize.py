"""Tier-2 compiler: whole-function Wasm -> Python codegen.

The fused interpreter (tier 1) is still a per-instruction machine; this
module compiles an *entire function body* into one Python function so a
hot PolyBench kernel costs a handful of Python statements per loop
iteration instead of one dynamic dispatch per Wasm instruction — and,
when NumPy is available, batches whole innermost loops through
``numpy.frombuffer`` slices.

Observable equivalence is the hard constraint: outputs (floats by bit
pattern), ``load_count``/``store_count``, touched-page sets and the
per-pc execution profile must be bit-identical to the per-instruction
tiers.  Three mechanisms make that possible:

* **Interval + affine analysis.**  An expression gets a signed interval
  ``ival`` only when it provably stays in ``[0, 2**31)`` with no
  intermediate wrap-around, so plain (unmasked) Python arithmetic is
  exact; everything else reuses the interpreter's masked expression
  templates or its ``_BINOPS``/``_UNOPS`` table functions, so the
  semantics are the interpreter's semantics by construction.  Affine
  forms over loop induction variables (the same shape the register-IR
  BCE pass proves in ``repro.compiler.bce``) turn memory accesses into
  (base, stride, size) *streams* whose traffic and page footprint are
  accounted in bulk.

* **Entry-only deoptimisation.**  Every access address has a static
  upper bound, so a single ``len(data) < NEED`` guard at function entry
  is the only runtime bounds check.  If it fails, the handler returns 0
  having touched *nothing* (no locals, no memory, no counters) and the
  tier-1 dispatch loop runs the whole call instead.

* **Flow counters.**  Per-pc profile counts are reconstructed exactly
  from a handful of counters — one per straight-line flow region — with
  loop-body counters bulk-incremented by the trip count.  A loop's
  header/condition pcs belong to both the entry and the iteration
  counter (they execute ``entries + iterations`` times); the two
  ``end`` pcs of the block/loop pair never execute at all in the
  recognised loop shape and map to no counter.

:func:`compile_function` runs at a function's first call and binds
every Python object the generated code uses — the instance's memory,
the interpreter's operator functions, float constants as they are (so
a NaN keeps its sign and payload), the per-pc count list — when it
generates the code, as the interpreter's tier-1 handlers do.  A body
outside the supported shape raises :class:`Bailout` internally and the
function simply stays on tier 1; any other exception is a compiler bug
and propagates.  NumPy ineligibility (:class:`VecBail`) is never an
error — the scalar compiled loop is kept instead.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime import interpreter as I
from repro.runtime.predecode import (
    BINOP_NAMES,
    CMP_NAMES,
    CONST_NAMES,
    LOAD_NAMES,
    STORE_NAMES,
    TRAPPING_BINOPS,
    TRAPPING_UNOPS,
    UNOP_NAMES,
)
from repro.wasm.errors import Trap

try:  # NumPy is optional: scalar codegen carries the perf floor alone.
    import numpy as _np

    _np.seterr(all="ignore")  # Wasm float ops never raise
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: NumPy engages for innermost loops of at least this many iterations.
VEC_MIN = 16

M32 = 0xFFFFFFFF
I31 = 1 << 31  # exclusive bound for "plain arithmetic is exact"
PAGE = 4096


class Bailout(Exception):
    """Function shape unsupported by tier 2 (stays on tier 1)."""


class VecBail(Exception):
    """One loop cannot use the NumPy path (scalar loop still emitted)."""


#: Signed i32 compares become plain Python compares when both operands
#: carry intervals (signed value == canonical value in [0, 2**31)).
_SIGNED_CMP32 = {
    "i32.lt_s": "<",
    "i32.gt_s": ">",
    "i32.le_s": "<=",
    "i32.ge_s": ">=",
}

#: Unsigned sub-width loads with statically known result ranges.
_LOAD_IVAL = {
    "i32.load8_u": (0, 0xFF),
    "i32.load16_u": (0, 0xFFFF),
}


class Val:
    """One symbolic stack slot.

    ``py`` is a pure Python expression for the canonical runtime value;
    ``node`` is a structural tuple used for invariance/reduction
    matching and NumPy regeneration; ``ival`` (signed interval, only
    when provably inside ``[0, 2**31)`` with no wrap) licenses plain
    arithmetic; ``aff`` is an affine form ``{None: const, local: coeff}``
    over currently-stable locals; ``locs`` are the local slots the
    ``py`` text reads (for flush-on-assignment).
    """

    __slots__ = ("py", "ty", "node", "ival", "aff", "locs")

    def __init__(self, py, ty, node, ival=None, aff=None, locs=frozenset()):
        self.py = py
        self.ty = ty
        self.node = node
        self.ival = ival
        self.aff = aff
        self.locs = locs


class _Compiler:
    def __init__(
        self, body, matches, local_types, n_params, n_results, memory, counts
    ):
        self.body = body
        self.matches = matches
        self.local_types = list(local_types)
        self.n_params = n_params
        self.n_results = n_results
        self.memory = memory
        self.counts = counts
        self.lines: List[str] = []
        self.indent = 0
        #: name -> the object the generated code sees under that name.
        self.env: Dict[str, Any] = {}
        self.counter_pcs: List[List[int]] = []
        self.ntmp = 0
        self.nm = 0
        self.nb = 0
        self.need = 0
        self.lver = [0] * len(self.local_types)
        self.lvals: List[Val] = []
        for i, ty in enumerate(self.local_types):
            if i >= n_params:
                # Declared locals start at zero: a known constant.
                zero: Any = 0 if ty in ("i32", "i64") else 0.0
                iv = (0, 0) if ty == "i32" else None
                self.lvals.append(
                    Val(
                        f"l{i}",
                        ty,
                        ("const", zero, ty),
                        ival=iv,
                        aff={None: 0} if iv else None,
                        locs=frozenset((i,)),
                    )
                )
            else:
                self.lvals.append(
                    Val(f"l{i}", ty, ("local", i, 0), locs=frozenset((i,)))
                )
        self.loop_stack: List[dict] = []
        self.sym: List[Val] = []
        self._vec: Optional[dict] = None

    # -- infrastructure ------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def _tmp(self) -> str:
        name = f"t{self.ntmp}"
        self.ntmp += 1
        return name

    def bind(self, value: Any, prefix: str) -> str:
        """A fresh name under which the generated code sees ``value``."""
        name = f"{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def new_counter(self, pcs: Sequence[int] = ()) -> int:
        self.counter_pcs.append(list(pcs))
        return len(self.counter_pcs) - 1

    def _unstable(self, index: int) -> bool:
        return any(
            index == ctx["var"] or index in ctx["assigned"]
            for ctx in self.loop_stack
        )

    def _invalidate(self, idxs) -> None:
        if not idxs:
            return
        for j in idxs:
            self.lver[j] += 1
            self.lvals[j] = Val(
                f"l{j}",
                self.local_types[j],
                ("local", j, self.lver[j]),
                locs=frozenset((j,)),
            )
        for k, lv in enumerate(self.lvals):
            if lv.aff is not None and any(
                key in idxs for key in lv.aff if key is not None
            ):
                self.lvals[k] = Val(
                    lv.py, lv.ty, lv.node, ival=lv.ival, aff=None, locs=lv.locs
                )

    def _touch_mem(self) -> None:
        memory = self.memory
        if memory is None:
            raise Bailout("memory access in a module without memory")
        env = self.env
        env["data"] = memory.data
        env["mem"] = memory
        env["T"] = memory.touched_pages
        env["track"] = memory.track_pages

    def _const_val(self, value: Any, ty: str) -> Val:
        node = ("const", value, ty)
        if ty in ("i32", "i64"):
            iv = (value, value) if ty == "i32" and value < I31 else None
            return Val(
                repr(value), ty, node, ival=iv, aff={None: value} if iv else None
            )
        if value != value or value in (float("inf"), float("-inf")):
            # No literal spells these; a NaN is bound as it is, so its
            # sign and payload survive.
            return Val(self.bind(value, "_k"), ty, node)
        return Val(repr(value), ty, node)

    def _node_ival(self, node) -> Optional[Tuple[int, int]]:
        kind = node[0]
        if kind == "const":
            v = node[1]
            if isinstance(v, int) and not isinstance(v, bool) and 0 <= v < I31:
                return (v, v)
            return None
        if kind == "local":
            _, j, ver = node
            return self.lvals[j].ival if ver == self.lver[j] else None
        if kind in ("bin", "un", "load", "select"):
            return node[-1]
        return None

    @staticmethod
    def _render_aff(aff: Dict[Optional[int], int]) -> str:
        terms = []
        for k, c in aff.items():
            if k is None or c == 0:
                continue
            terms.append(f"l{k}" if c == 1 else f"l{k}*{c}")
        terms.append(str(aff.get(None, 0)))
        return " + ".join(terms)

    # -- operators -----------------------------------------------------
    def _binop(self, op: str) -> None:
        b = self.sym.pop()
        a = self.sym.pop()
        ty = op.split(".", 1)[0]
        rty = "i32" if op in CMP_NAMES else ty
        locs = a.locs | b.locs
        if a.node[0] == "const" and b.node[0] == "const":
            # A constant expression that traps keeps the body on tier 1,
            # which traps the same only if the expression runs.
            try:
                value = I._BINOPS[op](a.node[1], b.node[1])
            except Trap as exc:
                raise Bailout(f"{op} on constants raises: {exc}")
            self.sym.append(self._const_val(value, rty))
            return

        iv = None
        aff = None
        py = None
        if op in CMP_NAMES:
            iv = (0, 1)
            sym = _SIGNED_CMP32.get(op)
            if sym is not None:
                if a.ival is None or b.ival is None:
                    py = None  # needs signed decode: table function below
                else:
                    py = f"(1 if {a.py} {sym} {b.py} else 0)"
            if py is None:
                template = I._INLINE_BINOPS.get(op)
                if template is not None:
                    py = template.format(a.py, b.py)
        elif ty == "i32" and a.ival is not None and b.ival is not None:
            al, ah = a.ival
            bl, bh = b.ival
            lo = hi = None
            if op == "i32.add":
                lo, hi = al + bl, ah + bh
                py = f"({a.py} + {b.py})"
                aff = self._aff_sum(a.aff, b.aff, 1)
            elif op == "i32.sub":
                lo, hi = al - bh, ah - bl
                py = f"({a.py} - {b.py})"
                aff = self._aff_sum(a.aff, b.aff, -1)
            elif op == "i32.mul":
                products = (al * bl, al * bh, ah * bl, ah * bh)
                lo, hi = min(products), max(products)
                py = f"({a.py} * {b.py})"
                aff = self._aff_scale(a.aff, b.aff)
            elif op == "i32.shl" and b.node[0] == "const":
                s = b.node[1] & 31
                lo, hi = al << s, ah << s
                py = f"({a.py} << {s})"
                aff = self._aff_scale(a.aff, {None: 1 << s})
            elif op in ("i32.div_s", "i32.div_u") and b.node[0] == "const" and bl > 0:
                lo, hi = al // bh, ah // bl
                py = f"({a.py} // {b.py})"
            elif op in ("i32.rem_s", "i32.rem_u") and b.node[0] == "const" and bl > 0:
                lo, hi = 0, min(ah, bl - 1)
                py = f"({a.py} % {b.py})"
            if py is not None and lo is not None and 0 <= lo and hi < I31:
                iv = (lo, hi)
            else:
                py = aff = None

        if py is None:
            template = I._INLINE_BINOPS.get(op)
            if template is not None:
                py = template.format(a.py, b.py)
            elif op in TRAPPING_BINOPS:
                # A constant non-trapping divisor makes the table
                # function safe; anything else could trap mid-function.
                if b.node[0] != "const":
                    raise Bailout(f"{op} with non-constant divisor")
                d = b.node[1]
                if d == 0:
                    raise Bailout(f"{op} by constant zero")
                bits = 32 if ty == "i32" else 64
                if op.endswith("div_s") and d == (1 << bits) - 1:
                    raise Bailout(f"{op} by constant -1 may overflow")
                py = f"{self.bind(I._BINOPS[op], '_f')}({a.py}, {b.py})"
            else:
                py = f"{self.bind(I._BINOPS[op], '_f')}({a.py}, {b.py})"
        node = ("bin", op, a.node, b.node, iv)
        self.sym.append(Val(py, rty, node, ival=iv, aff=aff, locs=locs))

    @staticmethod
    def _aff_sum(x, y, sign):
        if x is None or y is None:
            return None
        out = dict(x)
        out.setdefault(None, 0)
        for k, c in y.items():
            out[k] = out.get(k, 0) + sign * c
        return {k: c for k, c in out.items() if c != 0 or k is None}

    @staticmethod
    def _aff_scale(x, y):
        """Affine product: valid only when one side is a pure constant."""
        for const, other in ((x, y), (y, x)):
            if (
                const is not None
                and other is not None
                and all(k is None for k in const)
            ):
                c = const.get(None, 0)
                return {k: v * c for k, v in other.items()}
        return None

    def _unop(self, op: str) -> None:
        a = self.sym.pop()
        rty = op.split(".", 1)[0]
        if a.node[0] == "const":
            try:
                value = I._UNOPS[op](a.node[1])
            except Trap as exc:
                raise Bailout(f"{op} on constant raises: {exc}")
            self.sym.append(self._const_val(value, rty))
            return
        if op in TRAPPING_UNOPS:
            raise Bailout(f"{op} may trap")
        iv = None
        if op in ("i32.eqz", "i64.eqz"):
            iv = (0, 1)
        template = I._INLINE_UNOPS.get(op)
        if template is not None:
            py = template.format(a.py)
        elif op == "f64.convert_i32_s" and a.ival is not None:
            py = f"float({a.py})"
        else:
            py = f"{self.bind(I._UNOPS[op], '_g')}({a.py})"
        node = ("un", op, a.node, iv)
        self.sym.append(Val(py, rty, node, ival=iv, locs=a.locs))

    # -- memory --------------------------------------------------------
    def _access(self, ins, stream_ctx, kind):
        """Common address handling; returns (eff_expr, fmt, mask, size, si)."""
        op = ins.op
        offset = ins.args[1]
        if kind == "load":
            fmt, mask = I._FAST_LOAD[op]
        else:
            fmt, mask = I._FAST_STORE[op]
        size = struct.calcsize(fmt)
        addr = self.sym.pop()
        if addr.ival is None:
            raise Bailout(f"{op}: unproven address bounds")
        self.need = max(self.need, addr.ival[1] + offset + size)
        self._touch_mem()
        eff = addr.py if offset == 0 else f"({addr.py} + {offset})"
        si = None
        if stream_ctx is not None and addr.aff is not None:
            aff = dict(addr.aff)
            aff[None] = aff.get(None, 0) + offset
            stride = aff.get(stream_ctx["var"], 0)
            stream_ctx["streams"].append(
                {
                    "kind": kind,
                    "op": op,
                    "stride": stride,
                    "size": size,
                    "base": self._render_aff(aff),
                    "node": (addr.node, offset),
                    "name": None,
                }
            )
            si = len(stream_ctx["streams"]) - 1
        else:
            if stream_ctx is not None:
                stream_ctx["vec_ok"] = False
            t = self._tmp()
            self.emit(f"{t} = {eff}")
            eff = t
            self.emit(f"mem.{kind}_count += 1")
            self.emit(
                f"if track: T.update(range({t} >> 12, "
                f"(({t} + {size - 1}) >> 12) + 1))"
            )
        return eff, fmt, mask, size, si

    def _store(self, ins, stream_ctx) -> None:
        value = self.sym.pop()
        eff, fmt, mask, size, si = self._access(ins, stream_ctx, "store")
        vpy = value.py if mask is None else f"({value.py} & {mask})"
        pk = self.bind(struct.Struct(fmt).pack_into, "_p")
        self.emit(f"{pk}(data, {eff}, {vpy})")
        if stream_ctx is not None:
            if si is not None:
                stream_ctx["stores"].append(
                    {"si": si, "value": value, "op": ins.op}
                )
            # si None already cleared vec_ok in _access

    # -- control -------------------------------------------------------
    def _walk(self, start, end, ctr, stream_ctx):
        body = self.body
        pc = start
        while pc < end:
            ins = body[pc]
            op = ins.op
            if op == "block":
                pc = self._loop(pc, ctr, stream_ctx)
                continue
            if op == "if":
                pc = self._if(pc, ctr, stream_ctx)
                continue
            self.counter_pcs[ctr].append(pc)
            if op == "nop":
                pass
            elif op == "local.get":
                index = ins.args[0]
                lv = self.lvals[index]
                aff = lv.aff
                if (
                    aff is None
                    and lv.ival is not None
                    and not self._unstable(index)
                ):
                    aff = {index: 1, None: 0}
                self.sym.append(
                    Val(
                        f"l{index}",
                        lv.ty,
                        lv.node,
                        ival=lv.ival,
                        aff=aff,
                        locs=frozenset((index,)),
                    )
                )
            elif op == "local.set":
                if stream_ctx is not None:
                    stream_ctx["vec_ok"] = False
                self._local_set(ins.args[0])
            elif op in CONST_NAMES:
                self.sym.append(self._const_val(I._const_value(ins), op[:3]))
            elif op == "drop":
                self.sym.pop()
            elif op == "select":
                c = self.sym.pop()
                b = self.sym.pop()
                a = self.sym.pop()
                iv = None
                if a.ty == "i32" and a.ival is not None and b.ival is not None:
                    iv = (
                        min(a.ival[0], b.ival[0]),
                        max(a.ival[1], b.ival[1]),
                    )
                self.sym.append(
                    Val(
                        f"({a.py} if {c.py} else {b.py})",
                        a.ty,
                        ("select", c.node, a.node, b.node, iv),
                        ival=iv,
                        locs=a.locs | b.locs | c.locs,
                    )
                )
            elif op in LOAD_NAMES:
                self._do_load(ins, stream_ctx)
            elif op in STORE_NAMES:
                self._store(ins, stream_ctx)
            elif op in BINOP_NAMES:
                self._binop(op)
            elif op in UNOP_NAMES:
                self._unop(op)
            else:
                raise Bailout(f"unsupported op {op}")
            pc += 1

    def _do_load(self, ins, stream_ctx) -> None:
        op = ins.op
        offset = ins.args[1]
        addr_node = self.sym[-1].node  # captured before _access pops it
        eff, fmt, mask, size, _si = self._access(ins, stream_ctx, "load")
        un = self.bind(struct.Struct(fmt).unpack_from, "_u")
        t = self._tmp()
        if mask is None:
            self.emit(f"{t} = {un}(data, {eff})[0]")
        else:
            self.emit(f"{t} = {un}(data, {eff})[0] & {mask}")
        iv = _LOAD_IVAL.get(op)
        self.sym.append(
            Val(t, op.split(".", 1)[0], ("load", op, addr_node, offset, iv), ival=iv)
        )

    def _local_set(self, index: int) -> None:
        value = self.sym.pop()
        for i, sv in enumerate(self.sym):
            if index in sv.locs:
                t = self._tmp()
                self.emit(f"{t} = {sv.py}")
                aff = sv.aff
                if aff is not None and index in aff:
                    aff = None
                self.sym[i] = Val(
                    t, sv.ty, sv.node, ival=sv.ival, aff=aff, locs=frozenset()
                )
        self.emit(f"l{index} = {value.py}")
        self.lver[index] += 1
        aff = value.aff
        if aff is not None and index in aff:
            aff = None
        self.lvals[index] = Val(
            f"l{index}",
            value.ty,
            value.node,
            ival=value.ival,
            aff=aff,
            locs=frozenset((index,)),
        )
        for k, lv in enumerate(self.lvals):
            if k != index and lv.aff is not None and index in lv.aff:
                self.lvals[k] = Val(
                    lv.py, lv.ty, lv.node, ival=lv.ival, aff=None, locs=lv.locs
                )

    def _eval_pure(self, start, end) -> Val:
        body = self.body
        depth0 = len(self.sym)
        for pc in range(start, end):
            ins = body[pc]
            op = ins.op
            if op in CONST_NAMES:
                self.sym.append(self._const_val(I._const_value(ins), op[:3]))
            elif op == "local.get":
                index = ins.args[0]
                lv = self.lvals[index]
                self.sym.append(
                    Val(
                        f"l{index}",
                        lv.ty,
                        lv.node,
                        ival=lv.ival,
                        aff=lv.aff,
                        locs=frozenset((index,)),
                    )
                )
            elif op in BINOP_NAMES:
                self._binop(op)
            elif op in UNOP_NAMES and op not in TRAPPING_UNOPS:
                self._unop(op)
            else:
                raise Bailout(f"loop bound uses {op}")
        if len(self.sym) != depth0 + 1:
            raise Bailout("loop bound stack mismatch")
        return self.sym.pop()

    def _loop(self, block_pc, ctr, parent_ctx):
        body = self.body
        if parent_ctx is not None:
            parent_ctx["vec_ok"] = False
        if self.sym:
            raise Bailout("loop entered with non-empty symbolic stack")
        match = self.matches.get(block_pc)
        if match is None:
            raise Bailout("unmatched block")
        block_end, blk_else = match
        if blk_else is not None:
            raise Bailout("block with else")
        if body[block_pc].args[0] is not None:
            raise Bailout("block with result type")
        loop_pc = block_pc + 1
        if loop_pc >= len(body) or body[loop_pc].op != "loop":
            raise Bailout("bare block (not a counted loop)")
        if body[loop_pc].args[0] is not None:
            raise Bailout("loop with result type")
        loop_end, _ = self.matches[loop_pc]
        if loop_end != block_end - 1:
            raise Bailout("loop/block ends not adjacent")

        brif = None
        for pc in range(loop_pc + 1, loop_end):
            if body[pc].op == "br_if":
                brif = pc
                break
        if brif is None:
            raise Bailout("loop without br_if exit")
        if body[brif].args[0] != 1:
            raise Bailout("loop exit depth != 1")
        if body[loop_pc + 1].op != "local.get":
            raise Bailout("loop condition does not start with local.get")
        v = body[loop_pc + 1].args[0]
        cmp_op = body[brif - 1].op
        if cmp_op not in ("i32.ge_s", "i32.le_s"):
            raise Bailout(f"unsupported loop condition {cmp_op}")
        stop = self._eval_pure(loop_pc + 2, brif - 1)
        if stop.ival is None:
            raise Bailout("loop bound interval unknown")

        t0 = loop_end - 5
        if t0 <= brif:
            raise Bailout("loop body too short for induction tail")
        tail = body[t0:loop_end]
        if not (
            tail[0].op == "local.get"
            and tail[0].args[0] == v
            and tail[1].op == "i32.const"
            and tail[2].op == "i32.add"
            and tail[3].op == "local.set"
            and tail[3].args[0] == v
            and tail[4].op == "br"
            and tail[4].args[0] == 0
        ):
            raise Bailout("unrecognised induction tail")
        sc = tail[1].args[0] & M32
        step = sc - (1 << 32) if sc >= I31 else sc
        if step == 0:
            raise Bailout("zero loop step")
        if (step > 0) != (cmp_op == "i32.ge_s"):
            raise Bailout("loop step/condition direction mismatch")
        start = self.lvals[v]
        if start.ival is None:
            raise Bailout("loop start interval unknown")

        assigned = set()
        for pc in range(brif + 1, t0):
            if body[pc].op in ("local.set", "local.tee"):
                assigned.add(body[pc].args[0])
        if v in assigned:
            raise Bailout("loop variable assigned in body")
        if v in stop.locs or (stop.locs & assigned):
            raise Bailout("loop bound not invariant")

        v0l, v0h = start.ival
        sl, sh = stop.ival
        if step > 0:
            if sh - 1 + step >= I31:
                raise Bailout("loop range may wrap")
            var_iv = (v0l, max(v0l, sh - 1))
            post_iv = (v0l, max(v0h, sh - 1 + step))
        else:
            if sl + 1 + step < 0:
                raise Bailout("loop range may wrap")
            var_iv = (min(v0h, sl + 1), v0h)
            post_iv = (min(v0l, sl + 1 + step), v0h)

        self._invalidate(assigned | {v})
        self.lvals[v] = Val(
            f"l{v}",
            "i32",
            ("local", v, self.lver[v]),
            ival=var_iv,
            aff={v: 1, None: 0},
            locs=frozenset((v,)),
        )

        i_ctr = self.new_counter()
        cond_pcs = list(range(loop_pc, brif + 1))
        self.counter_pcs[ctr].append(block_pc)
        self.counter_pcs[ctr].extend(cond_pcs)
        self.counter_pcs[i_ctr].extend(cond_pcs)
        self.counter_pcs[i_ctr].extend(range(t0, loop_end))

        mv = f"m{self.nm}"
        self.nm += 1
        if step == 1:
            self.emit(f"{mv} = {stop.py} - l{v}")
        elif step > 0:
            self.emit(f"{mv} = ({stop.py} - l{v} + {step - 1}) // {step}")
        else:
            self.emit(f"{mv} = (l{v} - {stop.py} + {-step - 1}) // {-step}")
        self.emit(f"if {mv} > 0:")
        self.indent += 1
        self.emit(f"c{i_ctr} += {mv}")

        ctx = {
            "var": v,
            "assigned": assigned,
            "streams": [],
            "stores": [],
            "vec_ok": True,
            "m": mv,
            "step": step,
        }
        self.loop_stack.append(ctx)
        outer_lines, outer_indent = self.lines, self.indent
        self.lines, self.indent = [], 0
        self._walk(brif + 1, t0, i_ctr, ctx)
        if self.sym:
            raise Bailout("loop body leaves values on stack")
        body_lines = self.lines
        self.lines, self.indent = outer_lines, outer_indent
        self.loop_stack.pop()

        for st in ctx["streams"]:
            st["name"] = f"b{self.nb}"
            self.nb += 1
            self.emit(f"{st['name']} = {st['base']}")

        vec = None
        if ctx["vec_ok"] and ctx["stores"] and _np is not None and step > 0:
            try:
                vec = self._try_vec(ctx)
            except VecBail:
                vec = None
        if vec is not None:
            vec_lines, alias = vec
            self.env["_np"] = _np
            cond = f"{mv} >= {VEC_MIN}"
            if alias:
                cond += f" and ({alias})"
            self.emit(f"if {cond}:")
            self.indent += 1
            for line in vec_lines:
                self.emit(line)
            self.emit(f"l{v} += {mv}" if step == 1 else f"l{v} += {mv} * {step}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self._emit_scalar_loop(v, mv, step, body_lines)
            self.indent -= 1
        else:
            self._emit_scalar_loop(v, mv, step, body_lines)

        nl = sum(1 for st in ctx["streams"] if st["kind"] == "load")
        ns = sum(1 for st in ctx["streams"] if st["kind"] == "store")
        if nl:
            self.emit(f"mem.load_count += {nl} * {mv}")
        if ns:
            self.emit(f"mem.store_count += {ns} * {mv}")
        for st in ctx["streams"]:
            name, stride, size = st["name"], st["stride"], st["size"]
            if stride == 0:
                self.emit(
                    f"if track: T.update(range({name} >> 12, "
                    f"(({name} + {size - 1}) >> 12) + 1))"
                )
            elif 0 < stride <= PAGE:
                # Consecutive accesses land on the same or adjacent
                # pages, so the union of per-access page ranges is the
                # full contiguous span first..last.
                self.emit(
                    f"if track: T.update(range({name} >> 12, "
                    f"(({name} + ({mv} - 1) * {stride} + {size - 1}) >> 12) + 1))"
                )
            else:
                self.emit("if track:")
                self.indent += 1
                a = self._tmp()
                self.emit(
                    f"for {a} in range({name}, {name} + {mv} * {stride}, {stride}):"
                )
                self.indent += 1
                self.emit(
                    f"T.update(range({a} >> 12, (({a} + {size - 1}) >> 12) + 1))"
                )
                self.indent -= 2
        self.indent -= 1

        self._invalidate(assigned | {v})
        self.lvals[v] = Val(
            f"l{v}",
            "i32",
            ("local", v, self.lver[v]),
            ival=post_iv,
            locs=frozenset((v,)),
        )
        return block_end + 1

    def _emit_scalar_loop(self, v, mv, step, body_lines) -> None:
        if step == 1:
            self.emit(f"for l{v} in range(l{v}, l{v} + {mv}):")
        else:
            self.emit(f"for l{v} in range(l{v}, l{v} + {mv} * {step}, {step}):")
        pad = "    " * (self.indent + 1)
        for line in body_lines:
            self.lines.append(pad + line)
        if not body_lines:
            self.lines.append(pad + "pass")
        self.emit(f"l{v} += {step}")

    def _if(self, if_pc, ctr, stream_ctx):
        body = self.body
        if stream_ctx is not None:
            stream_ctx["vec_ok"] = False
        if body[if_pc].args[0] is not None:
            raise Bailout("if with result type")
        cond = self.sym.pop()
        if self.sym:
            raise Bailout("if entered with non-empty symbolic stack")
        end_pc, else_pc = self.matches[if_pc]
        self.counter_pcs[ctr].append(if_pc)
        self.counter_pcs[ctr].append(end_pc)
        assigned = {
            body[pc].args[0]
            for pc in range(if_pc + 1, end_pc)
            if body[pc].op in ("local.set", "local.tee")
        }
        saved = list(self.lvals)
        t_ctr = self.new_counter([else_pc] if else_pc is not None else [])
        self.emit(f"if {cond.py}:")
        self.indent += 1
        self.emit(f"c{t_ctr} += 1")
        then_end = else_pc if else_pc is not None else end_pc
        self._walk(if_pc + 1, then_end, t_ctr, None)
        if self.sym:
            raise Bailout("if arm leaves values on stack")
        self.indent -= 1
        if else_pc is not None:
            self.lvals = list(saved)
            u_ctr = self.new_counter()
            self.emit("else:")
            self.indent += 1
            self.emit(f"c{u_ctr} += 1")
            self._walk(else_pc + 1, end_pc, u_ctr, None)
            if self.sym:
                raise Bailout("if arm leaves values on stack")
            self.indent -= 1
        self.lvals = list(saved)
        self._invalidate(assigned)
        return end_pc + 1

    # -- NumPy batching ------------------------------------------------
    def _try_vec(self, ctx):
        streams = ctx["streams"]
        stores = ctx["stores"]
        for st in streams:
            if st["stride"] < 0:
                raise VecBail
        for s in stores:
            stream = streams[s["si"]]
            if s["op"] != "f64.store" or stream["stride"] % 8 != 0:
                raise VecBail
        reductions = [s for s in stores if streams[s["si"]]["stride"] == 0]
        if reductions and len(stores) != 1:
            raise VecBail
        self._vec = {"ctx": ctx, "lines": [], "names": {}, "isvec": {}, "ar": None}
        lines = self._vec["lines"]
        mv = ctx["m"]
        try:
            if reductions:
                s = stores[0]
                stream = streams[s["si"]]
                vn = s["value"].node
                if not (vn[0] == "bin" and vn[1] in ("f64.add", "f64.sub")):
                    raise VecBail
                acc = vn[2]
                if acc[0] != "load" or acc[1] != "f64.load":
                    raise VecBail
                if (acc[2], acc[3]) != stream["node"]:
                    raise VecBail
                expr, isvec = self._vecgen(vn[3])
                if s["si"] in self._vec["names"]:
                    raise VecBail  # rest reads the accumulator cell
                packer = struct.Struct("<d")
                un = self.bind(packer.unpack_from, "_u")
                pk = self.bind(packer.pack_into, "_p")
                op = "+" if vn[1] == "f64.add" else "-"
                lines.append(f"_acc = {un}(data, {stream['name']})[0]")
                if isvec:
                    lines.append(f"_ts = {expr}")
                    lines.append(f"for _t in _ts.tolist(): _acc = _acc {op} _t")
                else:
                    lines.append(f"_t = {expr}")
                    lines.append(f"for _i in range({mv}): _acc = _acc {op} _t")
                lines.append(f"{pk}(data, {stream['name']}, _acc)")
            else:
                for s in stores:
                    stream = streams[s["si"]]
                    expr, _ = self._vecgen(s["value"].node)
                    se = stream["stride"] // 8
                    if se == 0:
                        raise VecBail
                    dst = f"_d{s['si']}"
                    view = (
                        f"_np.frombuffer(data, _np.float64, "
                        f"({mv} - 1) * {se} + 1, {stream['name']})"
                    )
                    if se != 1:
                        view += f"[::{se}]"
                    lines.append(f"{dst} = {view}")
                    lines.append(f"{dst}[:] = {expr}")
            alias = self._alias_conditions(ctx, reductions)
        finally:
            vec = self._vec
            self._vec = None
        return vec["lines"], alias

    def _alias_conditions(self, ctx, reductions):
        """Runtime disjointness checks between load and store streams.

        Sequential semantics allow a load stream to coincide with a
        store stream only element-wise (identical base/stride/size) and
        only when a single store exists; everything else must be
        disjoint.  Bases are only known at run time, so the checks are
        emitted into the tier-up condition.
        """
        streams = ctx["streams"]
        mv = ctx["m"]
        used_loads = [
            si for si in self._vec["names"] if streams[si]["kind"] == "load"
        ]
        store_idx = [s["si"] for s in ctx["stores"]]
        single_store = len(store_idx) == 1

        def extent(st):
            if st["stride"] == 0:
                return str(st["size"])
            return f"(({mv}) - 1) * {st['stride']} + {st['size']}"

        conds = []
        for li in used_loads:
            L = streams[li]
            for si in store_idx:
                S = streams[si]
                if li == si:
                    continue
                disjoint = (
                    f"({L['name']} + {extent(L)} <= {S['name']} or "
                    f"{S['name']} + {extent(S)} <= {L['name']})"
                )
                if (
                    single_store
                    and not reductions
                    and L["stride"] == S["stride"]
                    and L["size"] == S["size"]
                ):
                    conds.append(f"({L['name']} == {S['name']} or {disjoint})")
                else:
                    conds.append(disjoint)
        for i, si in enumerate(store_idx):
            for sj in store_idx[i + 1 :]:
                A, B = streams[si], streams[sj]
                conds.append(
                    f"({A['name']} + {extent(A)} <= {B['name']} or "
                    f"{B['name']} + {extent(B)} <= {A['name']})"
                )
        return " and ".join(conds)

    def _vec_arange(self):
        if self._vec["ar"] is None:
            ctx = self._vec["ctx"]
            v, mv, step = ctx["var"], ctx["m"], ctx["step"]
            self._vec["lines"].append(
                f"_ar = _np.arange(l{v}, l{v} + {mv} * {step}, {step}, "
                f"dtype=_np.int64)"
            )
            self._vec["ar"] = "_ar"
        return self._vec["ar"]

    def _vec_load(self, addr_node, off):
        ctx = self._vec["ctx"]
        mv = ctx["m"]
        for si, st in enumerate(ctx["streams"]):
            if st["kind"] == "load" and st["node"] == (addr_node, off):
                break
        else:
            raise VecBail
        name = self._vec["names"].get(si)
        if name is None:
            stride = st["stride"]
            if st["op"] != "f64.load":
                raise VecBail
            if stride == 0:
                # Loop-invariant cell: alias checks guarantee no store
                # writes it, so one scalar read is exact.
                name = f"_s{si}"
                un = self.bind(struct.Struct("<d").unpack_from, "_u")
                self._vec["lines"].append(f"{name} = {un}(data, {st['name']})[0]")
                isvec = False
            elif stride % 8 == 0:
                se = stride // 8
                name = f"_w{si}"
                view = (
                    f"_np.frombuffer(data, _np.float64, "
                    f"({mv} - 1) * {se} + 1, {st['name']})"
                )
                if se != 1:
                    view += f"[::{se}]"
                self._vec["lines"].append(f"{name} = {view}")
                isvec = True
            else:
                raise VecBail
            self._vec["names"][si] = name
            self._vec["isvec"][si] = isvec
        return name, self._vec["isvec"][si]

    def _vecgen(self, node):
        kind = node[0]
        if kind == "const":
            _, val, ty = node
            if ty not in ("f64", "i32"):
                raise VecBail
            if isinstance(val, float) and (
                val != val or val in (float("inf"), float("-inf"))
            ):
                return self.bind(val, "_k"), False
            return repr(val), False
        if kind == "local":
            _, j, ver = node
            if ver != self.lver[j]:
                raise VecBail
            ctx = self._vec["ctx"]
            if j == ctx["var"]:
                return self._vec_arange(), True
            if j in ctx["assigned"]:
                raise VecBail
            return f"l{j}", False
        if kind == "load":
            _, op, addr_node, off, _iv = node
            if op != "f64.load":
                raise VecBail
            return self._vec_load(addr_node, off)
        if kind == "bin":
            _, op, an, bn, iv = node
            a, av = self._vecgen(an)
            b, bv = self._vecgen(bn)
            isvec = av or bv
            if op in ("f64.add", "f64.sub", "f64.mul"):
                sym = {"f64.add": "+", "f64.sub": "-", "f64.mul": "*"}[op]
                return f"({a} {sym} {b})", isvec
            if op == "f64.div":
                if not isvec:
                    return f"{self.bind(I._BINOPS[op], '_f')}({a}, {b})", False
                return f"({a} / {b})", True
            if iv is None:
                raise VecBail
            if op in ("i32.add", "i32.sub", "i32.mul"):
                sym = {"i32.add": "+", "i32.sub": "-", "i32.mul": "*"}[op]
                return f"({a} {sym} {b})", isvec
            if op in ("i32.rem_s", "i32.rem_u") and bn[0] == "const":
                return f"({a} % {bn[1]})", isvec
            if op in ("i32.div_s", "i32.div_u") and bn[0] == "const":
                return f"({a} // {bn[1]})", isvec
            if op == "i32.shl" and bn[0] == "const":
                return f"({a} << {bn[1] & 31})", isvec
            raise VecBail
        if kind == "un":
            _, op, an, _iv = node
            if op == "f64.convert_i32_s":
                if self._node_ival(an) is None:
                    raise VecBail
                a, av = self._vecgen(an)
                if av:
                    return f"({a}).astype(_np.float64)", True
                return f"float({a})", False
            raise VecBail
        raise VecBail

    # -- assembly ------------------------------------------------------
    def compile(self):
        """The handler ``fn(frame) -> -1 (done) | 0 (deopt)``."""
        c0 = self.new_counter()
        self.emit(f"c{c0} += 1")
        self._walk(0, len(self.body), c0, None)
        if len(self.sym) != self.n_results:
            raise Bailout(
                f"body ends with {len(self.sym)} values, "
                f"expected {self.n_results}"
            )

        src = []
        nlocals = len(self.local_types)
        if nlocals:
            src.append("L = f.locals")
            for i in range(0, nlocals, 8):
                src.append(
                    "; ".join(
                        f"l{j} = L[{j}]" for j in range(i, min(i + 8, nlocals))
                    )
                )
        if self.need:
            src.append(f"if len(data) < {self.need}: return 0")
        ncounters = len(self.counter_pcs)
        for i in range(0, ncounters, 8):
            src.append(
                "; ".join(f"c{j} = 0" for j in range(i, min(i + 8, ncounters)))
            )
        src.extend(self.lines)
        if self.counts is not None:
            self.env["C"] = self.counts
            for i, pcs in enumerate(self.counter_pcs):
                if pcs:
                    name = self.bind(tuple(pcs), "_P")
                    src.append(f"if c{i}:")
                    src.append(f"    for _pc in {name}: C[_pc] += c{i}")
        if self.sym:
            src.append("S = f.stack")
            for v in self.sym:
                src.append(f"S.append({v.py})")
        src.append("return -1")
        return I._build("_t2", self.env, src, "<tier2>")


def compile_function(
    body, matches, local_types, n_params, n_results, memory, counts
) -> Optional[Callable]:
    """Compile one function body against one instance.

    ``memory`` is the instance's linear memory (None without one) and
    ``counts`` the function's per-pc count list (None when not
    profiling).  Returns the handler ``fn(frame) -> -1 (done) | 0
    (deopt)``, or None when the body falls outside the supported shape;
    never raises :class:`Bailout`.
    """
    try:
        return _Compiler(
            body, matches, local_types, n_params, n_results, memory, counts
        ).compile()
    except Bailout:
        return None
