"""NumPy batching of tier 2's innermost counted loops.

A tier-2 function unit (``interpreter._FunctionCompiler``) runs each
counted loop as a Python ``for`` over a trip count computed at loop
entry.  When NumPy is available and an innermost loop does nothing but
read and write f64 *streams* (accesses at addresses affine in the loop
variable, ``interpreter._Stream``), :func:`batch` regenerates its
stores as whole-array statements over ``numpy.frombuffer`` views of
linear memory, from the expression trees (``_Val.node``) the unit
compiler built for them.  The unit compiler emits the batched lines
behind a run-time condition, at least :data:`VEC_MIN` trips and the
streams disjoint where sequential order would tell, with the scalar
loop as the other branch.

Outputs stay bit-identical to the scalar loop: each element is one
IEEE operation in the same order, and a reduction into one cell
(``acc += expr``) accumulates its terms one at a time in loop order.
Counts and touched pages are the unit compiler's, the same on both
branches.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.runtime import interpreter as I

try:  # NumPy is optional: the scalar loop carries the perf floor alone.
    import numpy as _np

    _np.seterr(all="ignore")  # Wasm float ops never raise
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: NumPy engages for innermost loops of at least this many iterations.
VEC_MIN = 16


class VecBail(Exception):
    """One loop cannot use the NumPy path (the scalar loop runs it)."""


def batch(loop, bind, versions) -> Optional[Tuple[List[str], str]]:
    """The NumPy lines of one counted loop (``interpreter._Counted``)
    and the alias condition they need, or None when the loop cannot be
    batched.

    ``bind(value)`` names an object for the generated code, and
    ``versions[j]`` is how often local ``j`` was reassigned: an
    expression tree that read an older value of a local is not
    regenerated.
    """
    if _np is None:
        return None
    try:
        return _Batch(loop, bind, versions).build()
    except VecBail:
        return None


class _Batch:
    def __init__(self, loop, bind, versions) -> None:
        self.loop = loop
        self.bind = bind
        self.versions = versions
        self.lines: List[str] = []
        #: stream index -> the name a load stream is read under
        self.names = {}
        self.isvec = {}
        self.ar: Optional[str] = None

    def build(self) -> Tuple[List[str], str]:
        loop = self.loop
        streams, stores = loop.streams, loop.stores
        lines = self.lines
        for st in streams:
            if st.stride < 0:
                raise VecBail
        for si, _node, op in stores:
            if op != "f64.store" or streams[si].stride % 8 != 0:
                raise VecBail
        reductions = [s for s in stores if streams[s[0]].stride == 0]
        if reductions and len(stores) != 1:
            raise VecBail
        m = loop.trips
        if reductions:
            si, vn, _op = stores[0]
            stream = streams[si]
            if vn is None or vn[0] != "bin" or vn[1] not in ("f64.add", "f64.sub"):
                raise VecBail
            acc = vn[2]
            if acc is None or acc[0] != "load" or acc[1] != "f64.load":
                raise VecBail
            if (acc[2], acc[3]) != stream.node:
                raise VecBail
            expr, isvec = self.gen(vn[3])
            if si in self.names:
                raise VecBail  # the rest reads the accumulator cell
            packer = struct.Struct("<d")
            un = self.bind(packer.unpack_from)
            pk = self.bind(packer.pack_into)
            op = "+" if vn[1] == "f64.add" else "-"
            lines.append(f"_acc = {un}(data, {stream.name})[0]")
            if isvec:
                lines.append(f"_ts = {expr}")
                lines.append(f"for _t in _ts.tolist(): _acc = _acc {op} _t")
            else:
                lines.append(f"_t = {expr}")
                lines.append(f"for _i in range({m}): _acc = _acc {op} _t")
            lines.append(f"{pk}(data, {stream.name}, _acc)")
        else:
            for si, vn, _op in stores:
                stream = streams[si]
                expr, _ = self.gen(vn)
                se = stream.stride // 8
                if se == 0:
                    raise VecBail
                dst = f"_d{si}"
                lines.append(f"{dst} = {self.view(stream, se)}")
                lines.append(f"{dst}[:] = {expr}")
        return lines, self.alias(reductions)

    def view(self, stream, se: int) -> str:
        view = (
            f"_np.frombuffer(data, _np.float64, "
            f"({self.loop.trips} - 1) * {se} + 1, {stream.name})"
        )
        return view + f"[::{se}]" if se != 1 else view

    def alias(self, reductions) -> str:
        """Run-time disjointness checks between load and store streams.

        Sequential semantics allow a load stream to coincide with a
        store stream only element-wise (identical base/stride/size) and
        only when a single store exists; everything else must be
        disjoint.  Bases are only known at run time, so the checks join
        the batched branch's condition.
        """
        streams = self.loop.streams
        m = self.loop.trips
        used_loads = [si for si in self.names if streams[si].kind == "load"]
        store_idx = [s[0] for s in self.loop.stores]
        single_store = len(store_idx) == 1

        def extent(st):
            if st.stride == 0:
                return str(st.size)
            return f"(({m}) - 1) * {st.stride} + {st.size}"

        def disjoint(a, b):
            return (
                f"({a.name} + {extent(a)} <= {b.name} or "
                f"{b.name} + {extent(b)} <= {a.name})"
            )

        conds = []
        for li in used_loads:
            L = streams[li]
            for si in store_idx:
                S = streams[si]
                if li == si:
                    continue
                if (
                    single_store
                    and not reductions
                    and L.stride == S.stride
                    and L.size == S.size
                ):
                    conds.append(f"({L.name} == {S.name} or {disjoint(L, S)})")
                else:
                    conds.append(disjoint(L, S))
        for i, si in enumerate(store_idx):
            for sj in store_idx[i + 1 :]:
                conds.append(disjoint(streams[si], streams[sj]))
        return " and ".join(conds)

    def arange(self) -> str:
        if self.ar is None:
            loop = self.loop
            v, m, step = loop.var, loop.trips, loop.step
            self.lines.append(
                f"_ar = _np.arange(l{v}, l{v} + {m} * {step}, {step}, "
                f"dtype=_np.int64)"
            )
            self.ar = "_ar"
        return self.ar

    def load(self, addr_node, off):
        for si, st in enumerate(self.loop.streams):
            if st.kind == "load" and st.node == (addr_node, off):
                break
        else:
            raise VecBail
        name = self.names.get(si)
        if name is None:
            stride = st.stride
            if st.op != "f64.load":
                raise VecBail
            if stride == 0:
                # Loop-invariant cell: alias checks guarantee no store
                # writes it, so one scalar read is exact.
                name = f"_s{si}"
                un = self.bind(struct.Struct("<d").unpack_from)
                self.lines.append(f"{name} = {un}(data, {st.name})[0]")
                isvec = False
            elif stride % 8 == 0:
                name = f"_w{si}"
                self.lines.append(f"{name} = {self.view(st, stride // 8)}")
                isvec = True
            else:
                raise VecBail
            self.names[si] = name
            self.isvec[si] = isvec
        return name, self.isvec[si]

    def gen(self, node):
        """``node`` as a NumPy or scalar expression, and whether it is an
        array."""
        if node is None:
            raise VecBail
        kind = node[0]
        if kind == "const":
            _, val, ty = node
            if ty not in ("f64", "i32"):
                raise VecBail
            if isinstance(val, float) and (
                val != val or val in (float("inf"), float("-inf"))
            ):
                return self.bind(val), False
            return repr(val), False
        if kind == "local":
            _, j, ver = node
            if ver != self.versions[j]:
                raise VecBail
            if j == self.loop.var:
                return self.arange(), True
            if j in self.loop.assigned:
                raise VecBail
            return f"l{j}", False
        if kind == "load":
            _, op, addr_node, off = node
            if op != "f64.load":
                raise VecBail
            return self.load(addr_node, off)
        if kind == "bin":
            _, op, an, bn, iv = node
            a, av = self.gen(an)
            b, bv = self.gen(bn)
            isvec = av or bv
            if op in ("f64.add", "f64.sub", "f64.mul"):
                sym = {"f64.add": "+", "f64.sub": "-", "f64.mul": "*"}[op]
                return f"({a} {sym} {b})", isvec
            if op == "f64.div":
                if not isvec:
                    return f"{self.bind(I._BINOPS[op])}({a}, {b})", False
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
            _, op, an, a_ival = node
            if op == "f64.convert_i32_s" and a_ival is not None:
                a, av = self.gen(an)
                if av:
                    return f"({a}).astype(_np.float64)", True
                return f"float({a})", False
            raise VecBail
        raise VecBail
