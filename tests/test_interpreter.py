"""Semantic tests for the interpreter: numerics, control flow, traps."""

import math
import struct

import pytest

from repro.wasm import ModuleBuilder, Trap
from repro.wasm.errors import ExhaustionError, LinkError
from repro.wasm.types import ValType
from repro.runtime import Interpreter, HostFunc

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64


def run1(op, *args, types=None, result=I32, consts=None):
    """Evaluate a single instruction applied to constant arguments."""
    mb = ModuleBuilder()
    types = types or [I32] * len(args)
    fb = mb.func("f", params=list(types), results=[result], export=True)
    for index in range(len(args)):
        fb.emit("local.get", index)
    if consts:
        fb.emit(op, *consts)
    else:
        fb.emit(op)
    interp = Interpreter(mb.build())
    return interp.invoke("f", *args)


class TestI32Arithmetic:
    def test_add_wraps(self):
        assert run1("i32.add", 0xFFFFFFFF, 1) == 0

    def test_sub_wraps(self):
        assert run1("i32.sub", 0, 1) == 0xFFFFFFFF

    def test_mul_wraps(self):
        assert run1("i32.mul", 0x10000, 0x10000) == 0

    def test_div_s_truncates_toward_zero(self):
        assert run1("i32.div_s", (-7) & 0xFFFFFFFF, 2) == (-3) & 0xFFFFFFFF

    def test_div_u(self):
        assert run1("i32.div_u", 0xFFFFFFFF, 2) == 0x7FFFFFFF

    def test_div_by_zero_traps(self):
        with pytest.raises(Trap, match="divide-by-zero"):
            run1("i32.div_s", 1, 0)

    def test_div_overflow_traps(self):
        with pytest.raises(Trap, match="overflow"):
            run1("i32.div_s", 0x80000000, 0xFFFFFFFF)

    def test_rem_s_sign_follows_dividend(self):
        assert run1("i32.rem_s", (-7) & 0xFFFFFFFF, 3) == (-1) & 0xFFFFFFFF
        assert run1("i32.rem_s", 7, (-3) & 0xFFFFFFFF) == 1

    def test_rem_s_no_overflow_trap(self):
        assert run1("i32.rem_s", 0x80000000, 0xFFFFFFFF) == 0

    def test_shifts_mask_count(self):
        assert run1("i32.shl", 1, 33) == 2
        assert run1("i32.shr_u", 0x80000000, 31) == 1

    def test_shr_s_is_arithmetic(self):
        assert run1("i32.shr_s", 0x80000000, 31) == 0xFFFFFFFF

    def test_rotl(self):
        assert run1("i32.rotl", 0x80000001, 1) == 0x00000003

    def test_rotr(self):
        assert run1("i32.rotr", 0x00000003, 1) == 0x80000001

    def test_clz_ctz_popcnt(self):
        assert run1("i32.clz", 1) == 31
        assert run1("i32.clz", 0) == 32
        assert run1("i32.ctz", 0x80000000) == 31
        assert run1("i32.ctz", 0) == 32
        assert run1("i32.popcnt", 0xF0F0F0F0) == 16

    def test_signed_comparisons(self):
        neg_one = 0xFFFFFFFF
        assert run1("i32.lt_s", neg_one, 0) == 1
        assert run1("i32.lt_u", neg_one, 0) == 0
        assert run1("i32.ge_s", neg_one, 0) == 0

    def test_eqz(self):
        assert run1("i32.eqz", 0) == 1
        assert run1("i32.eqz", 7) == 0


class TestI64Arithmetic:
    def test_add_wraps(self):
        assert run1("i64.add", (1 << 64) - 1, 1, types=[I64, I64], result=I64) == 0

    def test_mul(self):
        assert (
            run1("i64.mul", 1 << 32, 1 << 32, types=[I64, I64], result=I64) == 0
        )

    def test_div_s(self):
        neg7 = (-7) & ((1 << 64) - 1)
        assert run1("i64.div_s", neg7, 2, types=[I64, I64], result=I64) == (-3) & (
            (1 << 64) - 1
        )

    def test_clz64(self):
        assert run1("i64.clz", 1, types=[I64], result=I64) == 63


class TestFloats:
    def test_f64_arith(self):
        assert run1("f64.add", 1.5, 2.25, types=[F64, F64], result=F64) == 3.75

    def test_f64_div_by_zero_gives_inf(self):
        assert run1("f64.div", 1.0, 0.0, types=[F64, F64], result=F64) == math.inf
        assert run1("f64.div", -1.0, 0.0, types=[F64, F64], result=F64) == -math.inf

    def test_zero_div_zero_is_nan(self):
        assert math.isnan(run1("f64.div", 0.0, 0.0, types=[F64, F64], result=F64))

    def test_min_nan_propagates(self):
        assert math.isnan(
            run1("f64.min", math.nan, 1.0, types=[F64, F64], result=F64)
        )

    def test_min_negative_zero(self):
        result = run1("f64.min", -0.0, 0.0, types=[F64, F64], result=F64)
        assert math.copysign(1.0, result) == -1.0

    def test_max_positive_zero(self):
        result = run1("f64.max", -0.0, 0.0, types=[F64, F64], result=F64)
        assert math.copysign(1.0, result) == 1.0

    def test_sqrt(self):
        assert run1("f64.sqrt", 9.0, types=[F64], result=F64) == 3.0

    def test_sqrt_negative_is_nan(self):
        assert math.isnan(run1("f64.sqrt", -1.0, types=[F64], result=F64))

    def test_nearest_ties_to_even(self):
        assert run1("f64.nearest", 2.5, types=[F64], result=F64) == 2.0
        assert run1("f64.nearest", 3.5, types=[F64], result=F64) == 4.0

    def test_floor_ceil_trunc(self):
        assert run1("f64.floor", -1.5, types=[F64], result=F64) == -2.0
        assert run1("f64.ceil", -1.5, types=[F64], result=F64) == -1.0
        assert run1("f64.trunc", -1.9, types=[F64], result=F64) == -1.0

    def test_copysign(self):
        assert run1("f64.copysign", 3.0, -1.0, types=[F64, F64], result=F64) == -3.0

    def test_f32_rounds_results(self):
        # 0.1 + 0.2 in f32 differs from f64.
        result = run1("f32.add", 0.1, 0.2, types=[F32, F32], result=F32)
        expected = struct.unpack("<f", struct.pack("<f",
            struct.unpack("<f", struct.pack("<f", 0.1))[0]
            + struct.unpack("<f", struct.pack("<f", 0.2))[0]))[0]
        assert result == expected

    def test_f32_abs(self):
        assert run1("f32.abs", -2.5, types=[F32], result=F32) == 2.5


class TestConversions:
    def test_wrap(self):
        assert run1("i32.wrap_i64", (1 << 35) + 7, types=[I64]) == 7

    def test_extend_s(self):
        assert (
            run1("i64.extend_i32_s", 0xFFFFFFFF, types=[I32], result=I64)
            == (1 << 64) - 1
        )

    def test_extend_u(self):
        assert run1("i64.extend_i32_u", 0xFFFFFFFF, types=[I32], result=I64) == 0xFFFFFFFF

    def test_trunc_basic(self):
        assert run1("i32.trunc_f64_s", -3.7, types=[F64]) == (-3) & 0xFFFFFFFF

    def test_trunc_nan_traps(self):
        with pytest.raises(Trap, match="invalid-conversion"):
            run1("i32.trunc_f64_s", math.nan, types=[F64])

    def test_trunc_overflow_traps(self):
        with pytest.raises(Trap, match="overflow"):
            run1("i32.trunc_f64_s", 3e9, types=[F64])

    def test_trunc_unsigned_range(self):
        assert run1("i32.trunc_f64_u", 3e9, types=[F64]) == 3_000_000_000

    def test_convert(self):
        assert run1("f64.convert_i32_s", 0xFFFFFFFF, types=[I32], result=F64) == -1.0
        assert run1("f64.convert_i32_u", 0xFFFFFFFF, types=[I32], result=F64) == 4294967295.0

    def test_reinterpret_roundtrip(self):
        bits = run1("i64.reinterpret_f64", 1.5, types=[F64], result=I64)
        assert bits == struct.unpack("<Q", struct.pack("<d", 1.5))[0]

    def test_sign_extension_ops(self):
        assert run1("i32.extend8_s", 0x80, types=[I32]) == 0xFFFFFF80
        assert run1("i32.extend16_s", 0x8000, types=[I32]) == 0xFFFF8000
        assert run1("i64.extend32_s", 0x80000000, types=[I64], result=I64) == (
            0xFFFFFFFF80000000
        )


class TestControlFlow:
    def test_if_else(self):
        mb = ModuleBuilder()
        fb = mb.func("f", params=[I32], results=[I32], export=True)
        fb.emit("local.get", 0)
        with fb.if_(I32):
            fb.emit("i32.const", 10)
            fb.else_()
            fb.emit("i32.const", 20)
        interp = Interpreter(mb.build())
        assert interp.invoke("f", 1) == 10
        assert interp.invoke("f", 0) == 20

    def test_br_table(self):
        mb = ModuleBuilder()
        fb = mb.func("f", params=[I32], results=[I32], export=True)
        result = fb.add_local(I32)
        with fb.block() as b0:
            with fb.block() as b1:
                with fb.block() as b2:
                    fb.emit("local.get", 0)
                    fb.emit("br_table", (0, 1), 2)
                fb.emit("i32.const", 100)
                fb.emit("local.set", result)
                fb.br(b0)
            fb.emit("i32.const", 200)
            fb.emit("local.set", result)
            fb.br(b0)
        fb.emit("local.get", result)
        interp = Interpreter(mb.build())
        assert interp.invoke("f", 0) == 100
        assert interp.invoke("f", 1) == 200
        assert interp.invoke("f", 9) == 0  # default: falls out with local unset

    def test_early_return(self):
        mb = ModuleBuilder()
        fb = mb.func("f", params=[I32], results=[I32], export=True)
        fb.emit("local.get", 0)
        with fb.if_():
            fb.emit("i32.const", 1)
            fb.emit("return")
        fb.emit("i32.const", 2)
        interp = Interpreter(mb.build())
        assert interp.invoke("f", 1) == 1
        assert interp.invoke("f", 0) == 2

    def test_unreachable_traps(self):
        mb = ModuleBuilder()
        fb = mb.func("f", export=True)
        fb.emit("unreachable")
        with pytest.raises(Trap, match="unreachable"):
            Interpreter(mb.build()).invoke("f")

    def test_loop_iterates(self):
        mb = ModuleBuilder()
        fb = mb.func("fact", params=[I32], results=[I32], export=True)
        acc = fb.add_local(I32)
        fb.emit("i32.const", 1)
        fb.emit("local.set", acc)
        with fb.block() as done:
            with fb.loop() as top:
                fb.emit("local.get", 0)
                fb.emit("i32.eqz")
                fb.br_if(done)
                fb.emit("local.get", acc)
                fb.emit("local.get", 0)
                fb.emit("i32.mul")
                fb.emit("local.set", acc)
                fb.emit("local.get", 0)
                fb.emit("i32.const", 1)
                fb.emit("i32.sub")
                fb.emit("local.set", 0)
                fb.br(top)
        fb.emit("local.get", acc)
        assert Interpreter(mb.build()).invoke("fact", 6) == 720

    def test_recursion(self):
        mb = ModuleBuilder()
        fb = mb.func("fib", params=[I32], results=[I32], export=True)
        fb.emit("local.get", 0)
        fb.emit("i32.const", 2)
        fb.emit("i32.lt_s")
        with fb.if_(I32):
            fb.emit("local.get", 0)
            fb.else_()
            fb.emit("local.get", 0)
            fb.emit("i32.const", 1)
            fb.emit("i32.sub")
            fb.emit("call", 0)
            fb.emit("local.get", 0)
            fb.emit("i32.const", 2)
            fb.emit("i32.sub")
            fb.emit("call", 0)
            fb.emit("i32.add")
        assert Interpreter(mb.build()).invoke("fib", 10) == 55

    def test_stack_exhaustion(self):
        mb = ModuleBuilder()
        fb = mb.func("inf", export=True)
        fb.emit("call", 0)
        with pytest.raises(ExhaustionError):
            Interpreter(mb.build()).invoke("inf")


class TestHostFunctions:
    def test_host_call(self):
        mb = ModuleBuilder()
        host_index = mb.import_func("env", "twice", [I32], [I32])
        fb = mb.func("f", params=[I32], results=[I32], export=True)
        fb.emit("local.get", 0)
        fb.emit("call", host_index)
        interp = Interpreter(
            mb.build(),
            imports={("env", "twice"): HostFunc((I32,), (I32,), lambda x: x * 2)},
        )
        assert interp.invoke("f", 21) == 42

    def test_missing_import_raises(self):
        mb = ModuleBuilder()
        mb.import_func("env", "gone", [], [])
        fb = mb.func("f", export=True)
        fb.emit("nop")
        with pytest.raises(LinkError, match="unresolved"):
            Interpreter(mb.build())

    def test_import_type_mismatch(self):
        mb = ModuleBuilder()
        mb.import_func("env", "h", [I32], [I32])
        fb = mb.func("f", export=True)
        fb.emit("nop")
        with pytest.raises(LinkError, match="type"):
            Interpreter(
                mb.build(), imports={("env", "h"): HostFunc((), (), lambda: None)}
            )


class TestGlobals:
    def test_global_get_set(self):
        mb = ModuleBuilder()
        g = mb.add_global(I32, 5, mutable=True)
        fb = mb.func("bump", results=[I32], export=True)
        fb.emit("global.get", g)
        fb.emit("i32.const", 1)
        fb.emit("i32.add")
        fb.emit("global.set", g)
        fb.emit("global.get", g)
        interp = Interpreter(mb.build())
        assert interp.invoke("bump") == 6
        assert interp.invoke("bump") == 7


# ----------------------------------------------------------------------
# Generated-code forms mirror the operator tables
# ----------------------------------------------------------------------
from repro.runtime import interpreter as _interp  # noqa: E402
from repro.runtime import predecode  # noqa: E402
from repro.wasm import opcodes  # noqa: E402

_INT_BOUNDARIES = {
    "i32": (0, 1, 2**31 - 1, 2**31, 2**32 - 1),
    "i64": (0, 1, 2**63 - 1, 2**63, 2**64 - 1),
}
_FLOAT_BOUNDARIES = (
    0.0, -0.0, 1.0, -1.5, 2.0**-1074, 3.4028234663852886e38,
    math.inf, -math.inf, math.nan,
)


def _operands(op):
    ty = opcodes.BY_NAME[op].params[0]
    return _INT_BOUNDARIES.get(ty, _FLOAT_BOUNDARIES)


def _same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _form(gen, val, params):
    """A function of ``params`` computing ``val``'s canonical value."""
    return eval(f"lambda {params}: {gen.use(gen.canon(val))}", dict(gen.env))


class TestInlineTemplates:
    """The form generated code takes for each non-trapping op, on
    operands nothing is known of, computes what the op's table function
    does on boundary operands."""

    @pytest.mark.parametrize("op", sorted(predecode.NONTRAP_BINOPS))
    def test_binop_template(self, op):
        gen = _interp._FunctionCompiler([], {}, None, None)
        fn = _form(gen, gen.binop(op, _interp._Val("a", 0), _interp._Val("b", 0), 0), "a, b")
        table = _interp._BINOPS[op]
        for a in _operands(op):
            for b in _operands(op):
                assert _same(fn(a, b), table(a, b)), (op, a, b)

    @pytest.mark.parametrize("op", sorted(predecode.NONTRAP_UNOPS))
    def test_unop_template(self, op):
        gen = _interp._FunctionCompiler([], {}, None, None)
        fn = _form(gen, gen.unop(op, _interp._Val("a", 0), 0), "a")
        table = _interp._UNOPS[op]
        for a in _operands(op):
            assert _same(fn(a), table(a)), (op, a)


#: Intervals of i32 operands inside [0, 2**31), small to the limit.
_INTERVALS = (
    (0, 0), (0, 1), (1, 1), (3, 7), (0, 255), (255, 255), (4096, 65535),
    (46340, 46341), (2**30, 2**30), (0, 2**31 - 1), (2**31 - 1, 2**31 - 1),
)

#: op -> whether its right operand must be a constant for the proof.
_PROVEN_OPS = {
    "i32.add": False, "i32.sub": False, "i32.mul": False,
    "i32.lt_s": False, "i32.gt_s": False, "i32.le_s": False, "i32.ge_s": False,
    "i32.shl": True, "i32.div_s": True, "i32.div_u": True,
    "i32.rem_s": True, "i32.rem_u": True,
}


def _points(lo, hi):
    return sorted({lo, hi, (lo + hi) // 2, min(lo + 1, hi), max(hi - 1, lo)})


class TestProvenForms:
    """Every form a tier-2 function unit emits for an op whose operands
    carry intervals computes what the op's table function does on every
    operand those intervals admit; where the proof holds, the form is a
    plain Python operator with no wrap mask or sign flip, and its result
    lies in the interval it claims."""

    @pytest.mark.parametrize("op", sorted(_PROVEN_OPS))
    def test_matches_table(self, op):
        table = _interp._BINOPS[op]
        unmasked = 0
        for a_ival in _INTERVALS:
            for b_ival in _INTERVALS:
                gen = _interp._FunctionCompiler([], {}, None, None)
                a = _interp._Val("a", 0, ival=a_ival)
                if _PROVEN_OPS[op]:
                    if b_ival[0] != b_ival[1]:
                        continue
                    b = gen.constant(b_ival[0], "i32")
                    b_values = [b_ival[0]]
                else:
                    b = _interp._Val("b", 0, ival=b_ival)
                    b_values = _points(*b_ival)
                try:
                    val = gen.binop(op, a, b, 0)
                except _interp._Bailout:
                    continue  # e.g. a divisor of 0: tier 2 refuses it
                if val.ival is not None:
                    assert "&" not in val.expr and "^" not in val.expr, (op, val.expr)
                    unmasked += 1
                fn = _form(gen, val, "a, b")
                for x in _points(*a_ival):
                    for y in b_values:
                        assert fn(x, y) == table(x, y), (op, a_ival, b_ival, x, y)
                        if val.ival is not None:
                            assert val.ival[0] <= table(x, y) <= val.ival[1]
        assert unmasked, f"{op}: no interval pair took the proven form"
