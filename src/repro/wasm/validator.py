"""Module validation: the spec's type-checking algorithm.

Implements the standard validation algorithm (value stack + control
frame stack, with stack-polymorphic ``unreachable`` handling) for every
function body, plus module-level checks: index spaces, constant
expressions, single-memory/single-table MVP limits, export uniqueness,
alignment bounds on memory instructions, and mutability rules.

Raises :class:`~repro.wasm.errors.ValidationError` with the function
and instruction position on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.wasm import opcodes
from repro.wasm.errors import ValidationError
from repro.wasm.instructions import Instr
from repro.wasm.module import Function, Module
from repro.wasm.types import FuncType, ValType

#: The bottom/polymorphic type used while type-checking unreachable code.
UNKNOWN = "unknown"

StackType = Union[ValType, str]


@dataclass
class _Frame:
    opcode: str  # 'func' | 'block' | 'loop' | 'if' | 'else'
    start_types: List[ValType]
    end_types: List[ValType]
    height: int
    unreachable: bool = False

    @property
    def label_types(self) -> List[ValType]:
        """Types expected by a branch to this frame's label."""
        return self.start_types if self.opcode == "loop" else self.end_types


class _BodyValidator:
    """Validates one function body."""

    def __init__(self, module: Module, func_type: FuncType, locals_: List[ValType], where: str):
        self.module = module
        self.where = where
        self.locals = list(func_type.params) + list(locals_)
        self.vals: List[StackType] = []
        self.ctrls: List[_Frame] = []
        self._push_frame("func", [], list(func_type.results))

    # -- stack primitives ------------------------------------------------
    def fail(self, message: str, position: int = -1) -> None:
        suffix = f" at instruction {position}" if position >= 0 else ""
        raise ValidationError(f"{self.where}{suffix}: {message}")

    def _push_val(self, valtype: StackType) -> None:
        self.vals.append(valtype)

    def _pop_val(self, expect: Optional[StackType] = None) -> StackType:
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return expect if expect is not None else UNKNOWN
            self.fail("value stack underflow")
        actual = self.vals.pop()
        if expect is not None and actual != UNKNOWN and actual != expect:
            self.fail(f"expected {expect}, found {actual}")
        return actual

    def _push_vals(self, types: List[ValType]) -> None:
        for valtype in types:
            self._push_val(valtype)

    def _pop_vals(self, types: List[ValType]) -> None:
        for valtype in reversed(types):
            self._pop_val(valtype)

    # -- control frames ---------------------------------------------------
    def _push_frame(self, opcode: str, start: List[ValType], end: List[ValType]) -> None:
        self.ctrls.append(_Frame(opcode, start, end, len(self.vals)))
        self._push_vals(start)

    def _pop_frame(self) -> _Frame:
        if not self.ctrls:
            self.fail("control stack underflow")
        frame = self.ctrls[-1]
        self._pop_vals(frame.end_types)
        if len(self.vals) != frame.height:
            self.fail("values remain on stack at end of block")
        self.ctrls.pop()
        return frame

    def _set_unreachable(self) -> None:
        frame = self.ctrls[-1]
        del self.vals[frame.height :]
        frame.unreachable = True

    def _label(self, depth: int) -> _Frame:
        if depth >= len(self.ctrls):
            self.fail(f"branch depth {depth} exceeds nesting {len(self.ctrls)}")
        return self.ctrls[len(self.ctrls) - 1 - depth]

    # -- main loop ----------------------------------------------------------
    def run(self, body: List[Instr]) -> None:
        for position, ins in enumerate(body):
            try:
                self._check(ins)
            except ValidationError:
                raise
            except Exception as exc:  # defensive: annotate position
                self.fail(f"{type(exc).__name__}: {exc}", position)
        self._finish()

    def _finish(self) -> None:
        """Implicit end of the function body."""
        frame = self._pop_frame()
        if self.ctrls:
            self.fail("unclosed block at end of function")
        if len(self.vals) != 0:
            self.fail("values remain on stack at function end")

    # -- per-instruction ------------------------------------------------------
    def _check(self, ins: Instr) -> None:
        op = ins.op
        info = ins.info
        if info.category in ("const", "compare", "arith", "convert", "load", "store", "memory"):
            self._check_simple(ins, info)
        elif info.category == "parametric":
            self._check_parametric(op)
        elif info.category == "variable":
            self._check_variable(ins)
        else:
            self._check_control(ins)

    def _check_simple(self, ins: Instr, info: opcodes.OpInfo) -> None:
        if info.category in ("load", "store"):
            if self.module.num_memories == 0:
                self.fail(f"{ins.op} with no memory defined")
            align = ins.args[0]
            if (1 << align) > info.access_bytes:
                self.fail(f"{ins.op} alignment 2**{align} exceeds access width")
        if info.category == "memory" and self.module.num_memories == 0:
            self.fail(f"{ins.op} with no memory defined")
        self._pop_vals([ValType(p) for p in info.params])
        self._push_vals([ValType(r) for r in info.results])

    def _check_parametric(self, op: str) -> None:
        if op == "drop":
            self._pop_val()
        elif op == "select":
            self._pop_val(ValType.I32)
            first = self._pop_val()
            second = self._pop_val(first if first != UNKNOWN else None)
            self._push_val(second if first == UNKNOWN else first)

    def _check_variable(self, ins: Instr) -> None:
        op = ins.op
        index = ins.args[0]
        if op.startswith("local."):
            if index >= len(self.locals):
                self.fail(f"local index {index} out of range")
            valtype = self.locals[index]
            if op == "local.get":
                self._push_val(valtype)
            elif op == "local.set":
                self._pop_val(valtype)
            else:  # local.tee
                self._pop_val(valtype)
                self._push_val(valtype)
        else:
            if index >= self.module.num_globals:
                self.fail(f"global index {index} out of range")
            gtype = self.module.global_type(index)
            if op == "global.get":
                self._push_val(gtype.valtype)
            else:
                if not gtype.mutable:
                    self.fail(f"global.set on immutable global {index}")
                self._pop_val(gtype.valtype)

    def _check_control(self, ins: Instr) -> None:
        op = ins.op
        if op == "nop":
            return
        if op == "unreachable":
            self._set_unreachable()
        elif op in ("block", "loop"):
            result = ins.args[0]
            end = [result] if result is not None else []
            self._push_frame(op, [], end)
        elif op == "if":
            self._pop_val(ValType.I32)
            result = ins.args[0]
            end = [result] if result is not None else []
            self._push_frame("if", [], end)
        elif op == "else":
            frame = self.ctrls[-1]
            if frame.opcode != "if":
                self.fail("else without matching if")
            popped = self._pop_frame()
            self._push_frame("else", [], popped.end_types)
        elif op == "end":
            frame = self._pop_frame()
            if frame.opcode == "func":
                self.fail("end beyond function body")
            self._push_vals(frame.end_types)
        elif op == "br":
            frame = self._label(ins.args[0])
            self._pop_vals(frame.label_types)
            self._set_unreachable()
        elif op == "br_if":
            self._pop_val(ValType.I32)
            frame = self._label(ins.args[0])
            self._pop_vals(frame.label_types)
            self._push_vals(frame.label_types)
        elif op == "br_table":
            labels, default = ins.args
            self._pop_val(ValType.I32)
            default_types = self._label(default).label_types
            for label in labels:
                types = self._label(label).label_types
                if types != default_types:
                    self.fail("br_table labels have mismatched types")
            self._pop_vals(default_types)
            self._set_unreachable()
        elif op == "return":
            self._pop_vals(self.ctrls[0].end_types)
            self._set_unreachable()
        elif op == "call":
            func_type = self.module.func_type(ins.args[0])
            self._pop_vals(list(func_type.params))
            self._push_vals(list(func_type.results))
        elif op == "call_indirect":
            type_index, table_index = ins.args
            if table_index >= self.module.num_tables:
                self.fail("call_indirect with no table defined")
            func_type = self.module.type_at(type_index)
            self._pop_val(ValType.I32)
            self._pop_vals(list(func_type.params))
            self._push_vals(list(func_type.results))
        else:  # pragma: no cover - closed set
            self.fail(f"unhandled control instruction {op}")


# ----------------------------------------------------------------------
# Module-level validation
# ----------------------------------------------------------------------
def validate_module(module: Module) -> None:
    """Validate ``module``; raises ValidationError on the first problem."""
    _validate_structure(module)
    for index, func in enumerate(module.funcs):
        func_type = module.type_at(func.type_index)
        where = f"func[{module.num_imported_funcs + index}]" + (
            f" ({func.name})" if func.name else ""
        )
        _BodyValidator(module, func_type, func.locals, where).run(func.body)


def _validate_structure(module: Module) -> None:
    if module.num_memories > 1:
        raise ValidationError("MVP allows at most one memory")
    if module.num_tables > 1:
        raise ValidationError("MVP allows at most one table")
    for imp in module.imports:
        if imp.kind == "func":
            module.type_at(imp.desc)
    for func in module.funcs:
        module.type_at(func.type_index)
    for glob in module.globals:
        _check_const_expr(module, glob.init, glob.type.valtype)
    seen_export_names = set()
    for export in module.exports:
        if export.name in seen_export_names:
            raise ValidationError(f"duplicate export name {export.name!r}")
        seen_export_names.add(export.name)
        limit = {
            "func": module.num_funcs,
            "table": module.num_tables,
            "memory": module.num_memories,
            "global": module.num_globals,
        }[export.kind]
        if export.index >= limit:
            raise ValidationError(
                f"export {export.name!r} index {export.index} out of range"
            )
    if module.start is not None:
        start_type = module.func_type(module.start)
        if start_type.params or start_type.results:
            raise ValidationError("start function must have type [] -> []")
    for element in module.elements:
        if element.table_index >= module.num_tables:
            raise ValidationError("element segment table index out of range")
        _check_const_expr(module, element.offset, ValType.I32)
        for func_index in element.func_indices:
            if func_index >= module.num_funcs:
                raise ValidationError(
                    f"element segment function index {func_index} out of range"
                )
    for segment in module.data:
        if segment.memory_index >= module.num_memories:
            raise ValidationError("data segment memory index out of range")
        _check_const_expr(module, segment.offset, ValType.I32)


_CONST_OPS = {
    "i32.const": ValType.I32,
    "i64.const": ValType.I64,
    "f32.const": ValType.F32,
    "f64.const": ValType.F64,
}


def _check_const_expr(module: Module, expr: List[Instr], expect: ValType) -> None:
    if len(expr) != 1:
        raise ValidationError("constant expression must be a single instruction")
    ins = expr[0]
    if ins.op in _CONST_OPS:
        if _CONST_OPS[ins.op] != expect:
            raise ValidationError(
                f"constant expression type {_CONST_OPS[ins.op]} != {expect}"
            )
        return
    if ins.op == "global.get":
        index = ins.args[0]
        imported = module.imported("global")
        if index >= len(imported):
            raise ValidationError(
                "constant global.get must reference an imported global"
            )
        gtype = imported[index].desc
        if gtype.mutable:
            raise ValidationError("constant global.get must be immutable")
        if gtype.valtype != expect:
            raise ValidationError("constant global.get type mismatch")
        return
    raise ValidationError(f"{ins.op} not allowed in constant expression")
