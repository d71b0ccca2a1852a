"""Decode WebAssembly binaries into :class:`~repro.wasm.module.Module`.

Strict where it matters for the test suite: section ordering, size
framing, LEB128 bounds, value-type bytes and opcode bytes are all
checked, raising :class:`~repro.wasm.errors.DecodeError` with positions.
Custom sections (id 0) are skipped.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.wasm import opcodes
from repro.wasm.encoder import MAGIC, VERSION
from repro.wasm.errors import DecodeError
from repro.wasm.instructions import Instr
from repro.wasm.leb128 import decode_signed, decode_unsigned
from repro.wasm.module import (
    DataSegment,
    ElementSegment,
    Export,
    Function,
    Global,
    Import,
    Module,
)
from repro.wasm.types import (
    FUNC_TYPE_TAG,
    FUNCREF,
    FuncType,
    GlobalType,
    Limits,
    MemoryType,
    TableType,
    ValType,
)

_EXPORT_KIND = {0: "func", 1: "table", 2: "memory", 3: "global"}


class _Reader:
    """A bounded cursor over the binary."""

    def __init__(self, data: bytes, offset: int = 0, end: int | None = None) -> None:
        self.data = data
        self.offset = offset
        if end is None:
            end = len(data)
        elif end > len(data):
            # A section/entry header may claim more bytes than the
            # binary holds; an unclamped end would turn the byte()
            # bounds check into an IndexError past len(data).
            raise DecodeError(
                f"declared size extends {end - len(data)} bytes past "
                "end of input"
            )
        self.end = end

    @property
    def remaining(self) -> int:
        return self.end - self.offset

    def byte(self) -> int:
        if self.offset >= self.end:
            raise DecodeError(f"unexpected end of input at offset {self.offset}")
        value = self.data[self.offset]
        self.offset += 1
        return value

    def raw(self, count: int) -> bytes:
        if self.offset + count > self.end:
            raise DecodeError(f"unexpected end of input at offset {self.offset}")
        value = self.data[self.offset : self.offset + count]
        self.offset += count
        return value

    def u32(self) -> int:
        value, self.offset = decode_unsigned(self.data[: self.end], self.offset, 32)
        return value

    def s32(self) -> int:
        value, self.offset = decode_signed(self.data[: self.end], self.offset, 32)
        return value

    def s64(self) -> int:
        value, self.offset = decode_signed(self.data[: self.end], self.offset, 64)
        return value

    def f32(self) -> float:
        return struct.unpack("<f", self.raw(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def name(self) -> str:
        length = self.u32()
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 name at offset {self.offset}") from exc

    def valtype(self) -> ValType:
        return ValType.from_binary(self.byte())

    def limits(self) -> Limits:
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            minimum = self.u32()
            maximum = self.u32()
            if maximum < minimum:
                raise DecodeError("limits maximum below minimum")
            return Limits(minimum, maximum)
        raise DecodeError(f"invalid limits flag {flag:#x}")


def decode_module(data: bytes) -> Module:
    """Parse binary ``data`` into a Module."""
    if data[:4] != MAGIC:
        raise DecodeError("bad magic number (not a wasm binary)")
    if data[4:8] != VERSION:
        raise DecodeError(f"unsupported wasm version {data[4:8]!r}")
    reader = _Reader(data, offset=8)
    module = Module()
    last_section = 0
    while reader.remaining:
        section_id = reader.byte()
        size = reader.u32()
        body = _Reader(reader.data, reader.offset, reader.offset + size)
        reader.offset += size
        if reader.offset > reader.end:
            raise DecodeError(f"section {section_id} overruns the binary")
        if section_id == 0:
            continue  # custom section: skipped
        if section_id <= last_section:
            raise DecodeError(f"section {section_id} out of order")
        last_section = section_id
        _SECTION_DECODERS.get(section_id, _unknown_section(section_id))(body, module)
        if body.remaining:
            raise DecodeError(f"trailing bytes in section {section_id}")
    if any(True for _ in module.funcs if _.body is None):  # pragma: no cover
        raise DecodeError("function without code entry")
    return module


def _unknown_section(section_id: int):
    def fail(body: _Reader, module: Module) -> None:
        raise DecodeError(f"unknown section id {section_id}")

    return fail


# ----------------------------------------------------------------------
# Per-section decoders
# ----------------------------------------------------------------------
def _decode_types(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        tag = body.byte()
        if tag != FUNC_TYPE_TAG:
            raise DecodeError(f"expected func type tag 0x60, got {tag:#x}")
        params = tuple(body.valtype() for _ in range(body.u32()))
        results = tuple(body.valtype() for _ in range(body.u32()))
        module.types.append(FuncType(params, results))


def _decode_imports(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        mod_name = body.name()
        item_name = body.name()
        kind_byte = body.byte()
        if kind_byte == 0x00:
            desc: object = body.u32()
            kind = "func"
        elif kind_byte == 0x01:
            if body.byte() != FUNCREF:
                raise DecodeError("table import with non-funcref element type")
            desc = TableType(body.limits())
            kind = "table"
        elif kind_byte == 0x02:
            desc = MemoryType(body.limits())
            kind = "memory"
        elif kind_byte == 0x03:
            valtype = body.valtype()
            mutable = body.byte() == 0x01
            desc = GlobalType(valtype, mutable)
            kind = "global"
        else:
            raise DecodeError(f"invalid import kind {kind_byte:#x}")
        module.imports.append(Import(mod_name, item_name, kind, desc))


def _decode_func_decls(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        module.funcs.append(Function(type_index=body.u32(), body=None))  # type: ignore[arg-type]


def _decode_tables(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        if body.byte() != FUNCREF:
            raise DecodeError("table with non-funcref element type")
        module.tables.append(TableType(body.limits()))


def _decode_memories(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        module.memories.append(MemoryType(body.limits()))


def _decode_globals(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        valtype = body.valtype()
        mutable = body.byte() == 0x01
        init = _decode_expr(body)
        module.globals.append(Global(GlobalType(valtype, mutable), init))


def _decode_exports(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        name = body.name()
        kind_byte = body.byte()
        if kind_byte not in _EXPORT_KIND:
            raise DecodeError(f"invalid export kind {kind_byte:#x}")
        module.exports.append(Export(name, _EXPORT_KIND[kind_byte], body.u32()))


def _decode_start(body: _Reader, module: Module) -> None:
    module.start = body.u32()


def _decode_elements(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        table_index = body.u32()
        offset = _decode_expr(body)
        func_indices = [body.u32() for _ in range(body.u32())]
        module.elements.append(ElementSegment(table_index, offset, func_indices))


def _decode_code(body: _Reader, module: Module) -> None:
    count = body.u32()
    if count != len(module.funcs):
        raise DecodeError(
            f"code section has {count} entries but {len(module.funcs)} declared"
        )
    for func in module.funcs:
        size = body.u32()
        entry = _Reader(body.data, body.offset, body.offset + size)
        body.offset += size
        locals_: List[ValType] = []
        for _ in range(entry.u32()):
            run = entry.u32()
            valtype = entry.valtype()
            if len(locals_) + run > 50_000:
                raise DecodeError("too many locals")
            locals_.extend([valtype] * run)
        func.locals = locals_
        func.body = _decode_expr(entry)
        if entry.remaining:
            raise DecodeError("trailing bytes in code entry")


def _decode_data(body: _Reader, module: Module) -> None:
    for _ in range(body.u32()):
        memory_index = body.u32()
        offset = _decode_expr(body)
        length = body.u32()
        module.data.append(DataSegment(memory_index, offset, body.raw(length)))


_SECTION_DECODERS = {
    1: _decode_types,
    2: _decode_imports,
    3: _decode_func_decls,
    4: _decode_tables,
    5: _decode_memories,
    6: _decode_globals,
    7: _decode_exports,
    8: _decode_start,
    9: _decode_elements,
    10: _decode_code,
    11: _decode_data,
}


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def _decode_expr(body: _Reader) -> List[Instr]:
    """Decode instructions until the matching top-level ``end``."""
    instrs: List[Instr] = []
    depth = 0
    while True:
        code = body.byte()
        if code == 0xFC:
            # Miscellaneous prefix: the real opcode is an LEB128
            # sub-opcode, stored in the table as 0xFC00 | sub.
            code = 0xFC00 | body.u32()
        try:
            info = opcodes.BY_CODE[code]
        except KeyError:
            raise DecodeError(
                f"unknown opcode {code:#04x} at offset {body.offset - 1}"
            ) from None
        if info.name == "end":
            if depth == 0:
                return instrs
            depth -= 1
            instrs.append(Instr("end"))
            continue
        if info.name in ("block", "loop", "if"):
            depth += 1
        instrs.append(_decode_instr(info, body))


def _decode_instr(info: opcodes.OpInfo, body: _Reader) -> Instr:
    imm = info.imm
    if imm == "":
        return Instr(info.name)
    if imm == "u32":
        return Instr(info.name, (body.u32(),))
    if imm == "memarg":
        return Instr(info.name, (body.u32(), body.u32()))
    if imm == "i32":
        return Instr(info.name, (body.s32(),))
    if imm == "i64":
        return Instr(info.name, (body.s64(),))
    if imm == "f32":
        return Instr(info.name, (body.f32(),))
    if imm == "f64":
        return Instr(info.name, (body.f64(),))
    if imm == "block":
        tag = body.byte()
        block_type = None if tag == 0x40 else ValType.from_binary(tag)
        return Instr(info.name, (block_type,))
    if imm == "br_table":
        labels = tuple(body.u32() for _ in range(body.u32()))
        return Instr(info.name, (labels, body.u32()))
    if imm == "call_indirect":
        return Instr(info.name, (body.u32(), body.u32()))
    if imm == "memidx":
        if body.byte() != 0x00:
            raise DecodeError("non-zero memory index reserved byte")
        return Instr(info.name)
    if imm == "memcopy":
        if body.byte() != 0x00 or body.byte() != 0x00:
            raise DecodeError("non-zero memory index reserved byte")
        return Instr(info.name)
    if imm == "memfill":
        if body.byte() != 0x00:
            raise DecodeError("non-zero memory index reserved byte")
        return Instr(info.name)
    raise AssertionError(f"unhandled immediate kind {imm!r}")  # pragma: no cover
