"""WebAssembly substrate.

A from-scratch implementation of the WebAssembly MVP (plus the
sign-extension operators) sufficient to author, encode, decode, validate
and execute the paper's benchmark programs:

* :mod:`types`, :mod:`opcodes`, :mod:`instructions`, :mod:`module` —
  the language model;
* :mod:`leb128`, :mod:`encoder`, :mod:`decoder` — the binary format;
* :mod:`validator` — the spec's type-checking algorithm;
* :mod:`builder` — a structured module/function builder;
* :mod:`dsl` — a small expression DSL used to author the PolyBench and
  SPEC-proxy workloads as genuine Wasm modules;
* :mod:`wat` — a WAT-style text printer for debugging.
"""

from repro.wasm.errors import DecodeError, ValidationError, Trap, WasmError
from repro.wasm.types import ValType, FuncType, Limits, MemoryType, TableType, GlobalType
from repro.wasm.instructions import Instr
from repro.wasm.module import Module, Function, Export, Import, Global, DataSegment, ElementSegment
from repro.wasm.encoder import encode_module
from repro.wasm.decoder import decode_module
from repro.wasm.validator import validate_module
from repro.wasm.builder import ModuleBuilder, FunctionBuilder
from repro.wasm.wat import module_to_wat
from repro.wasm.wat_parser import parse_wat, WatParseError

__all__ = [
    "DecodeError",
    "ValidationError",
    "Trap",
    "WasmError",
    "ValType",
    "FuncType",
    "Limits",
    "MemoryType",
    "TableType",
    "GlobalType",
    "Instr",
    "Module",
    "Function",
    "Export",
    "Import",
    "Global",
    "DataSegment",
    "ElementSegment",
    "encode_module",
    "decode_module",
    "validate_module",
    "ModuleBuilder",
    "FunctionBuilder",
    "module_to_wat",
    "parse_wat",
    "WatParseError",
]
