"""Boundary-value and canonicalisation properties for the diff suite.

Hypothesis round-trip properties over the two substrate layers whose
corner cases the differential harness leans on: LEB128 at the exact
edges of its bit-widths (u32 max, s64 min, over-long forms) and the
interpreter's f32 canonicalisation (every f32-typed value the
interpreter produces must be exactly representable in IEEE single
precision, idempotent under re-rounding, and stable across the binary
round trip of an f32-computing module).
"""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.diffcheck.genome import build_genome_module, genome_from_seed
from repro.runtime.interpreter import TIERS, Interpreter, to_f32
from repro.wasm import decode_module, encode_module, validate_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import DecodeError, Trap, WasmError
from repro.wasm.leb128 import (
    decode_signed,
    decode_unsigned,
    encode_signed,
    encode_u32,
    encode_unsigned,
)
from repro.wasm.types import ValType
from tests.test_differential_fuzz import genomes

pytestmark = pytest.mark.diff

U32_MAX = (1 << 32) - 1
U64_MAX = (1 << 64) - 1
S64_MIN = -(1 << 63)
S64_MAX = (1 << 63) - 1
S32_MIN = -(1 << 31)


class TestLeb128Boundaries:
    def test_u32_max_roundtrip(self):
        encoded = encode_u32(U32_MAX)
        assert encoded == b"\xff\xff\xff\xff\x0f"
        assert decode_unsigned(encoded, 0, 32) == (U32_MAX, 5)

    def test_u64_max_roundtrip(self):
        encoded = encode_unsigned(U64_MAX)
        assert len(encoded) == 10
        assert decode_unsigned(encoded, 0, 64) == (U64_MAX, 10)

    def test_s64_min_roundtrip(self):
        encoded = encode_signed(S64_MIN, 64)
        assert len(encoded) == 10
        assert decode_signed(encoded, 0, 64) == (S64_MIN, 10)

    def test_s64_max_roundtrip(self):
        encoded = encode_signed(S64_MAX, 64)
        assert decode_signed(encoded, 0, 64) == (S64_MAX, len(encoded))

    def test_s32_min_roundtrip(self):
        encoded = encode_signed(S32_MIN, 32)
        assert decode_signed(encoded, 0, 32) == (S32_MIN, len(encoded))

    def test_one_beyond_every_edge_rejected(self):
        with pytest.raises(ValueError):
            encode_u32(U32_MAX + 1)
        with pytest.raises(ValueError):
            encode_signed(S64_MIN - 1, 64)
        with pytest.raises(ValueError):
            encode_signed(S64_MAX + 1, 64)

    def test_overlong_unsigned_rejected(self):
        # 0 padded with redundant continuation bytes: too long for u32.
        with pytest.raises(DecodeError):
            decode_unsigned(b"\x80\x80\x80\x80\x80\x00", 0, 32)
        # Fits in 5 bytes but sets payload bits above bit 31.
        with pytest.raises(DecodeError):
            decode_unsigned(b"\xff\xff\xff\xff\x7f", 0, 32)

    def test_overlong_signed_rejected(self):
        # s64 needs at most 10 bytes; an 11-byte form must not decode.
        with pytest.raises(DecodeError):
            decode_signed(b"\x80" * 10 + b"\x00", 0, 64)
        # 10-byte form whose payload (2**63) exceeds the s64 range.
        with pytest.raises(DecodeError):
            decode_signed(b"\x80" * 9 + b"\x01", 0, 64)

    @given(st.integers(min_value=0, max_value=U64_MAX))
    def test_unsigned_minimal_length(self, value):
        """The encoder always emits the shortest form."""
        encoded = encode_unsigned(value)
        assert len(encoded) == max(1, math.ceil(value.bit_length() / 7))

    @given(st.integers(min_value=S64_MIN, max_value=S64_MAX))
    def test_signed_roundtrip_total(self, value):
        encoded = encode_signed(value, 64)
        decoded, offset = decode_signed(encoded, 0, 64)
        assert (decoded, offset) == (value, len(encoded))


def _f32_module(value: float, op: str):
    """A module whose exported ``run`` applies one f32 op to ``value``."""
    mb = ModuleBuilder("f32prop")
    fb = mb.func("run", results=[ValType.F32], export=True)
    if op == "const":
        fb.emit("f32.const", value)
    elif op == "demote":
        fb.emit("f64.const", value)
        fb.emit("f32.demote_f64")
    else:  # add: exercises arithmetic re-rounding
        fb.emit("f32.const", value)
        fb.emit("f32.const", 1.0)
        fb.emit("f32.add")
    return mb.build()


finite_f64 = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-3.0e38, max_value=3.0e38,
)


class TestF32Canonicalisation:
    @given(finite_f64)
    def test_to_f32_is_idempotent(self, value):
        once = to_f32(value)
        assert to_f32(once) == once or math.isnan(once)

    @given(finite_f64)
    def test_to_f32_matches_struct_rounding(self, value):
        expected = struct.unpack("<f", struct.pack("<f", value))[0]
        got = to_f32(value)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    @given(finite_f64, st.sampled_from(["const", "demote", "add"]))
    @settings(max_examples=120, deadline=None)
    def test_interpreter_results_are_single_precision(self, value, op):
        """Every f32 the interpreter returns survives re-rounding."""
        module = _f32_module(value, op)
        validate_module(module)
        result = Interpreter(module, validate=False).invoke("run")
        if math.isnan(result):
            return
        assert to_f32(result) == result

    @given(finite_f64, st.sampled_from(["const", "demote", "add"]))
    @settings(max_examples=60, deadline=None)
    def test_f32_results_survive_binary_roundtrip(self, value, op):
        module = _f32_module(value, op)
        direct = Interpreter(module, validate=False).invoke("run")
        decoded = decode_module(encode_module(module))
        roundtrip = Interpreter(decoded, validate=False).invoke("run")
        if math.isnan(direct):
            assert math.isnan(roundtrip)
        else:
            assert struct.pack("<f", direct) == struct.pack("<f", roundtrip)


class TestFusionEquivalence:
    """Loop handlers and tier 2 are unobservable except in speed.

    For generated programs (the diffcheck fuzzer's genomes, so
    shrinking happens on the seed), every execution tier must produce
    bit-identical return values, memory load/store counts, touched-page
    sets and per-pc profiles.  Each tier is pinned explicitly, and a
    loop-handler or tier-2 codegen failure propagates as a hard failure,
    so a property violation here cannot hide behind the ``legacy`` path.
    """

    @staticmethod
    def _observe(module, arg, tier):
        interp = Interpreter(
            module, tier=tier, validate=False,
            collect_profile=False, track_pages=True,
        )
        try:
            value = interp.invoke("run", arg)
        except Trap as exc:
            return ("trap", exc.kind)
        memory = interp.memory
        return (
            "value", value, memory.load_count, memory.store_count,
            tuple(sorted(memory.touched_pages)),
        )

    @given(st.integers(0, 10**9), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dispatch_modes_agree(self, seed, arg):
        module = build_genome_module(genome_from_seed(seed))
        validate_module(module)
        reference = self._observe(module, arg, "fused")
        for tier in TIERS:
            if tier != "fused":
                assert self._observe(module, arg, tier) == reference

    @given(st.integers(0, 10**9), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fusion_preserves_per_pc_counts(self, seed, arg):
        """Reconstructed per-pc counts match an actually-unfused run."""
        module = build_genome_module(genome_from_seed(seed))
        profiles = {}
        for tier in TIERS:
            interp = Interpreter(
                module, tier=tier, validate=False,
                collect_profile=True, track_pages=True,
            )
            try:
                interp.invoke("run", arg)
            except Trap:
                pass
            profile = interp.take_profile("fuzz", "prop")
            profiles[tier] = (
                dict(profile.instr_counts),
                dict(profile.op_totals),
                profile.total_instrs,
                profile.mem_loads,
                profile.mem_stores,
                profile.pages_touched,
            )
        assert profiles["fused"] == profiles["legacy"] == profiles["opt"]


#: The input that found the decoder's IndexError: a mutant of genome
#: seed 0's module whose code-section entry declares a size past
#: end-of-input (``_Reader`` now rejects an end beyond the binary).
_CODE_SIZE_PAST_END = bytes.fromhex(
    "0061736d0100000001060160017f017f030201000504010103130710020372756e"
    "0000066d656d6f727902000abc0001b90101037f20032000200041046f41026b41"
    "016a6d41e1006f6a2103200041446f41024604402003200041046f41026b6d2103"
    "0b2003b7440000000000007a40a244000000008000e03fa0aa210341ac80042003"
)


@st.composite
def byte_mutants(draw):
    """An encoded generated module with byte overwrites and a truncation."""
    data = bytearray(
        encode_module(build_genome_module(genome_from_seed(
            draw(st.integers(0, 10**9))
        )))
    )
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[: draw(st.integers(0, len(data)))])


class TestMutatorRobustness:
    """Generated and mutated inputs never push the substrate outside
    ``WasmError``.

    Any gene tuple builds into a validator-clean module (the genome's
    normalisation is total), and the decoder/validator contract for
    arbitrary mutated bytes is total too: accept, or reject with a
    ``WasmError`` subclass.  Any other exception escaping is a bug.
    """

    @given(genomes)
    @settings(max_examples=40, deadline=None)
    def test_genome_mutants_always_valid(self, genome):
        module = build_genome_module(genome)
        validate_module(module)
        assert encode_module(module)

    @given(byte_mutants())
    @example(_CODE_SIZE_PAST_END)
    @settings(max_examples=60, deadline=None)
    def test_byte_mutants_decode_or_wasm_error(self, data):
        try:
            module = decode_module(data)
            validate_module(module)
        except WasmError:
            return
        # Accepted mutants reach an encoding fixed point.
        canonical = encode_module(module)
        assert encode_module(decode_module(canonical)) == canonical
