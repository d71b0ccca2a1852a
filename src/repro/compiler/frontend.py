"""Wasm stack code → register IR.

The translation simulates the operand stack with virtual registers:
``local.get``/``local.set`` become register renames (free, like a real
compiler after SSA construction), loop-carried locals get ``phi``
pseudo-defs in the loop header so loop-invariant analysis sees true
data flow, and every memory access is preceded by a ``boundscheck``
pseudo-op that instruction selection later expands according to the
active bounds-checking strategy.

Block-splitting rules give each IR block a *leader*: the first Wasm pc
translated into it (excluding ``end``/``else``, which branches can skip
in ways that would skew counts).  The dynamic execution count of the
leader — recorded by the profiling interpreter — is exactly the block's
execution count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.ir import IRBlock, IRFunction, IRInstr
from repro.wasm.instructions import Instr
from repro.wasm.module import Function, Module

#: wasm binop suffix -> IR op for integers.
_INT_BINOPS = {
    "add": "iadd", "sub": "isub", "mul": "imul",
    "div_s": "idiv", "div_u": "idiv", "rem_s": "irem", "rem_u": "irem",
    "and": "iand", "or": "ior", "xor": "ixor",
    "shl": "ishl", "shr_s": "ishr", "shr_u": "ishr",
    "rotl": "irot", "rotr": "irot",
}
_FLOAT_BINOPS = {
    "add": "fadd", "sub": "fsub", "mul": "fmul", "div": "fdiv",
    "min": "fmin", "max": "fmax", "copysign": "fcopysign",
}
_FLOAT_UNOPS = {
    "neg": "fneg", "abs": "fabs", "sqrt": "fsqrt",
    "ceil": "fround", "floor": "fround", "trunc": "fround", "nearest": "fround",
}
_BIT_UNOPS = {"clz", "ctz", "popcnt"}
#: Bulk-memory ops: no workload uses them, so the cost model has no
#: lowering for them.
BULK_MEMORY_OPS = frozenset({"memory.copy", "memory.fill"})


class _Ctrl:
    """One entry of the frontend's control stack."""

    __slots__ = (
        "kind", "arity", "result_regs", "stack_base", "header",
        "loop_pc", "entry_if_depth",
    )

    def __init__(self, kind, arity, result_regs, stack_base,
                 header=None, loop_pc=-1, entry_if_depth=0):
        self.kind = kind
        self.arity = arity
        self.result_regs = result_regs
        self.stack_base = stack_base
        self.header = header
        self.loop_pc = loop_pc
        self.entry_if_depth = entry_if_depth


def _loop_write_sets(body: List[Instr]) -> Dict[int, Set[int]]:
    """For each ``loop`` pc, the set of local indices written inside it."""
    writes: Dict[int, Set[int]] = {}
    open_loops: List[int] = []
    open_kinds: List[str] = []
    for pc, ins in enumerate(body):
        op = ins.op
        if op == "loop":
            writes[pc] = set()
            open_loops.append(pc)
            open_kinds.append("loop")
        elif op in ("block", "if"):
            open_kinds.append(op)
        elif op == "end":
            kind = open_kinds.pop()
            if kind == "loop":
                open_loops.pop()
        elif op in ("local.set", "local.tee"):
            for loop_pc in open_loops:
                writes[loop_pc].add(ins.args[0])
    return writes


def lower_function(module: Module, func_index: int, func: Function) -> IRFunction:
    return _Lowering(module, func_index, func).run()


def lower_module(module: Module) -> Dict[int, IRFunction]:
    """Lower every defined function, keyed by absolute index."""
    result = {}
    for local_index, func in enumerate(module.funcs):
        func_index = module.num_imported_funcs + local_index
        result[func_index] = lower_function(module, func_index, func)
    return result


class _Lowering:
    def __init__(self, module: Module, func_index: int, func: Function) -> None:
        self.module = module
        self.func = func
        ftype = module.type_at(func.type_index)
        self.ftype = ftype
        self.irf = IRFunction(func_index, func.name, num_params=len(ftype.params))
        self.loop_writes = _loop_write_sets(func.body)
        self.vstack: List[int] = []
        self.ctrls: List[_Ctrl] = []
        self.loop_path: Tuple[int, ...] = ()
        self.if_depth = 0
        self.scope_path: Tuple[Tuple, ...] = ()
        self.unreachable = False
        self.cur: Optional[IRBlock] = None
        self.local_regs: List[int] = []

    # -- small helpers ---------------------------------------------------
    def emit(self, op, dest=None, srcs=(), imm=None, valtype="i32", pc=-1) -> IRInstr:
        ins = IRInstr(op, dest, tuple(srcs), imm, valtype, pc)
        self.cur.instrs.append(ins)
        return ins

    def push(self, reg: int) -> None:
        self.vstack.append(reg)

    def pop(self) -> int:
        base = self.ctrls[-1].stack_base if self.ctrls else 0
        if len(self.vstack) <= base:
            if self.unreachable:
                return self.irf.new_reg()  # dummy in dead code
            raise AssertionError("frontend stack underflow (module not validated?)")
        return self.vstack.pop()

    def fresh_block(self) -> IRBlock:
        block = self.irf.new_block(self.loop_path, self.if_depth, self.scope_path)
        self.cur = block
        return block

    # -- main ------------------------------------------------------------
    def run(self) -> IRFunction:
        irf = self.irf
        for _ in self.ftype.params:
            irf.new_reg()
        self.local_regs = list(range(len(self.ftype.params)))
        self.fresh_block()
        for valtype in self.func.locals:
            reg = irf.new_reg()
            self.emit("const", reg, imm=0, valtype=valtype.value)
            self.local_regs.append(reg)
        for pc, ins in enumerate(self.func.body):
            self.translate(pc, ins)
        # Implicit function end.
        if not self.unreachable:
            self.emit("ret", srcs=tuple(self.vstack[-len(self.ftype.results):])
                      if self.ftype.results else ())
        return irf

    # -- translation ------------------------------------------------------
    def translate(self, pc: int, ins: Instr) -> None:
        op = ins.op
        if op not in ("end", "else"):
            self.cur.set_leader(pc)

        if op == "nop":
            return
        if op in ("block", "loop", "if"):
            self._enter_block(pc, ins)
            return
        if op == "else":
            self._else(pc)
            return
        if op == "end":
            self._end(pc)
            return
        if op in ("br", "br_if", "br_table", "return"):
            self._branch_like(pc, ins)
            return
        if op == "unreachable":
            self.emit("trap", pc=pc)
            self._go_unreachable()
            return
        if op in ("call", "call_indirect"):
            self._call(pc, ins)
            return
        if self.unreachable:
            return  # dead straight-line code: skip entirely
        self._straightline(pc, ins)

    # -- control ------------------------------------------------------------
    def _enter_block(self, pc: int, ins: Instr) -> None:
        arity = 0 if ins.args[0] is None else 1
        result_type = ins.args[0].value if arity else "i32"
        result_regs = [self.irf.new_reg() for _ in range(arity)]
        if ins.op == "if":
            cond = self.pop()
            ctrl = _Ctrl("if", arity, result_regs, len(self.vstack))
            self.ctrls.append(ctrl)
            self.emit("brif", srcs=(cond,), pc=pc)
            self.if_depth += 1
            self.scope_path = self.scope_path + (("if", pc, 0),)
            self.fresh_block()
            return
        if ins.op == "block":
            # No block split: code up to the first branch inside a wasm
            # `block` keeps the enclosing IR block (and its outer scope
            # path), which is sound — nothing can skip it.  Blocks
            # created after any split inside carry the "blk" entry and
            # therefore stop dominating once the construct ends.
            self.scope_path = self.scope_path + (("blk", pc),)
            self.ctrls.append(_Ctrl("block", arity, result_regs, len(self.vstack)))
            return
        # loop
        self.loop_path = self.loop_path + (pc,)
        self.scope_path = self.scope_path + (("loop", pc),)
        header = self.irf.new_block(self.loop_path, self.if_depth, self.scope_path)
        header.set_leader(pc)  # executions of the 'loop' opcode == iterations
        self.cur = header
        ctrl = _Ctrl(
            "loop", arity, result_regs, len(self.vstack),
            header=header, loop_pc=pc, entry_if_depth=self.if_depth,
        )
        self.ctrls.append(ctrl)
        # Loop-carried locals become phi defs in the header.
        for local_index in sorted(self.loop_writes.get(pc, ())):
            old_reg = self.local_regs[local_index]
            phi = self.irf.new_reg()
            self.emit("phi", phi, srcs=(old_reg,), pc=pc,
                      valtype=self._local_type(local_index))
            self.local_regs[local_index] = phi

    def _local_type(self, local_index: int) -> str:
        params = self.ftype.params
        if local_index < len(params):
            return params[local_index].value
        return self.func.locals[local_index - len(params)].value

    def _else(self, pc: int) -> None:
        ctrl = self.ctrls[-1]
        if not self.unreachable:
            self._move_results(ctrl, pc)
            self.emit("br", pc=pc)  # jump over the else arm
        del self.vstack[ctrl.stack_base:]
        self.unreachable = False
        # Flip the scope entry to the else arm: facts from the then arm
        # must not dominate into it.
        entry = self.scope_path[-1]
        self.scope_path = self.scope_path[:-1] + (("if", entry[1], 1),)
        self.fresh_block()

    def _end(self, pc: int) -> None:
        if not self.ctrls:
            return  # function-level end handled by run()
        ctrl = self.ctrls.pop()
        if not self.unreachable:
            self._move_results(ctrl, pc)
        del self.vstack[ctrl.stack_base:]
        self.unreachable = False
        if ctrl.kind == "loop":
            self.loop_path = self.loop_path[:-1]
        elif ctrl.kind == "if":
            self.if_depth -= 1
        self.scope_path = self.scope_path[:-1]
        self.fresh_block()
        self.vstack.extend(ctrl.result_regs)

    def _move_results(self, ctrl: _Ctrl, pc: int) -> None:
        if ctrl.arity == 0:
            return
        values = self.vstack[-ctrl.arity:]
        for value, dest in zip(values, ctrl.result_regs):
            self.emit("move", dest, srcs=(value,), pc=pc)

    def _branch_target(self, depth: int) -> Optional[_Ctrl]:
        if depth >= len(self.ctrls):
            return None  # function level: a return
        return self.ctrls[len(self.ctrls) - 1 - depth]

    def _branch_like(self, pc: int, ins: Instr) -> None:
        op = ins.op
        if self.unreachable:
            return
        if op == "return":
            nres = len(self.ftype.results)
            srcs = tuple(self.vstack[-nres:]) if nres else ()
            self.emit("ret", srcs=srcs, pc=pc)
            self._go_unreachable()
            return
        if op == "br":
            self._emit_branch(self._branch_target(ins.args[0]), pc)
            self._go_unreachable()
            return
        if op == "br_if":
            cond = self.pop()
            target = self._branch_target(ins.args[0])
            if target is not None and target.kind != "loop" and target.arity:
                # Values carried on a conditional exit edge: the real
                # compiler places the moves on the split edge.
                values = self.vstack[-target.arity:]
                for value, dest in zip(values, target.result_regs):
                    self.emit("move", dest, srcs=(value,), pc=pc)
            self.emit("brif", srcs=(cond,), pc=pc)
            # Fallthrough continues in a new block (branch splits flow).
            self.fresh_block()
            return
        # br_table
        index = self.pop()
        labels, default = ins.args
        self.emit("brtable", srcs=(index,), imm=len(labels) + 1, pc=pc)
        self._go_unreachable()

    def _emit_branch(self, target: Optional[_Ctrl], pc: int) -> None:
        if target is None:  # branch to function level == return
            nres = len(self.ftype.results)
            srcs = tuple(self.vstack[-nres:]) if nres else ()
            self.emit("ret", srcs=srcs, pc=pc)
            return
        if target.kind != "loop" and target.arity:
            self._move_results(target, pc)
        self.emit("br", pc=pc)

    def _go_unreachable(self) -> None:
        self.unreachable = True
        base = self.ctrls[-1].stack_base if self.ctrls else 0
        del self.vstack[base:]
        self.fresh_block()

    # -- calls ------------------------------------------------------------------
    def _call(self, pc: int, ins: Instr) -> None:
        if self.unreachable:
            return
        if ins.op == "call":
            callee = ins.args[0]
            ftype = self.module.func_type(callee)
            args = [self.pop() for _ in ftype.params][::-1]
            dest = self.irf.new_reg() if ftype.results else None
            self.emit("call", dest, srcs=tuple(args), imm=callee, pc=pc,
                      valtype=ftype.results[0].value if ftype.results else "i32")
            if ftype.results:
                self.push(dest)
            return
        type_index, _ = ins.args
        ftype = self.module.type_at(type_index)
        index = self.pop()
        args = [self.pop() for _ in ftype.params][::-1]
        dest = self.irf.new_reg() if ftype.results else None
        self.emit("call_indirect", dest, srcs=(index, *args), imm=type_index, pc=pc,
                  valtype=ftype.results[0].value if ftype.results else "i32")
        if ftype.results:
            self.push(dest)

    # -- straight-line ---------------------------------------------------------------
    def _straightline(self, pc: int, ins: Instr) -> None:
        op = ins.op
        info = ins.info

        if info.category == "const":
            dest = self.irf.new_reg()
            self.emit("const", dest, imm=ins.args[0], valtype=op[:3], pc=pc)
            self.push(dest)
            return
        if op == "drop":
            self.pop()
            return
        if op == "select":
            cond = self.pop()
            second = self.pop()
            first = self.pop()
            dest = self.irf.new_reg()
            self.emit("select", dest, srcs=(first, second, cond), pc=pc)
            self.push(dest)
            return
        if op == "local.get":
            self.push(self.local_regs[ins.args[0]])
            return
        if op == "local.set":
            self.local_regs[ins.args[0]] = self.pop()
            return
        if op == "local.tee":
            self.local_regs[ins.args[0]] = self.vstack[-1]
            return
        if op == "global.get":
            dest = self.irf.new_reg()
            self.emit("gload", dest, imm=ins.args[0], pc=pc)
            self.push(dest)
            return
        if op == "global.set":
            self.emit("gstore", srcs=(self.pop(),), imm=ins.args[0], pc=pc)
            return
        if info.category == "load":
            addr = self.pop()
            align, offset = ins.args
            self.emit("boundscheck", srcs=(addr,), imm=info.access_bytes, pc=pc)
            dest = self.irf.new_reg()
            self.emit("load", dest, srcs=(addr,), imm=(offset, info.access_bytes),
                      valtype=info.results[0], pc=pc)
            self.push(dest)
            return
        if info.category == "store":
            value = self.pop()
            addr = self.pop()
            self.emit("boundscheck", srcs=(addr,), imm=info.access_bytes, pc=pc)
            self.emit("store", srcs=(addr, value), imm=(ins.args[1], info.access_bytes),
                      valtype=info.params[1], pc=pc)
            return
        if op == "memory.size":
            dest = self.irf.new_reg()
            self.emit("memsize", dest, pc=pc)
            self.push(dest)
            return
        if op == "memory.grow":
            delta = self.pop()
            dest = self.irf.new_reg()
            self.emit("growmem", dest, srcs=(delta,), pc=pc)
            self.push(dest)
            return
        if op in BULK_MEMORY_OPS:
            raise NotImplementedError(
                f"{op}: the compiler cost model does not price bulk-memory ops"
            )
        # Numeric ops, by name structure: "<type>.<suffix>".
        prefix, _, suffix = op.partition(".")
        is_float = prefix in ("f32", "f64")
        if info.category == "compare":
            if suffix == "eqz":
                src = self.pop()
                dest = self.irf.new_reg()
                self.emit("icmp", dest, srcs=(src,), imm="eqz", pc=pc, valtype=prefix)
            else:
                b = self.pop()
                a = self.pop()
                dest = self.irf.new_reg()
                self.emit("fcmp" if is_float else "icmp", dest, srcs=(a, b),
                          imm=suffix, pc=pc, valtype=prefix)
            self.push(dest)
            return
        if info.category == "convert":
            src = self.pop()
            dest = self.irf.new_reg()
            self.emit("convert", dest, srcs=(src,), imm=op,
                      valtype=info.results[0], pc=pc)
            self.push(dest)
            return
        # arith
        if len(info.params) == 1:
            src = self.pop()
            dest = self.irf.new_reg()
            if is_float:
                self.emit(_FLOAT_UNOPS[suffix], dest, srcs=(src,),
                          valtype=prefix, pc=pc)
            else:
                assert suffix in _BIT_UNOPS, op
                self.emit("ibit", dest, srcs=(src,), imm=suffix, valtype=prefix, pc=pc)
            self.push(dest)
            return
        b = self.pop()
        a = self.pop()
        dest = self.irf.new_reg()
        ir_op = _FLOAT_BINOPS[suffix] if is_float else _INT_BINOPS[suffix]
        self.emit(ir_op, dest, srcs=(a, b), imm=suffix, valtype=prefix, pc=pc)
        self.push(dest)
