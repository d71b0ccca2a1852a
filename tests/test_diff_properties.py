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
import os
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.diffcheck import fuzz
from repro.runtime.interpreter import Interpreter, to_f32
from repro.runtime.tiering import TIERS
from repro.wasm import decode_module, encode_module, validate_module
from repro.wasm.builder import ModuleBuilder
from repro.wasm.errors import DecodeError, Trap
from repro.wasm.leb128 import (
    decode_signed,
    decode_unsigned,
    encode_signed,
    encode_u32,
    encode_unsigned,
)
from repro.wasm.types import ValType

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
    """Superinstruction fusion and tier-2 are unobservable except in speed.

    For DSL-generated programs (the diffcheck fuzzer's generator, so
    shrinking happens on the seed), every execution tier must produce
    bit-identical return values, memory load/store counts, touched-page
    sets and per-pc profiles.  Each tier is pinned explicitly, so an
    ambient ``REPRO_TIER`` cannot collapse the comparison, and
    ``REPRO_TIER_STRICT`` turns any silent fused-codegen or tier-2
    fallback into a hard failure, so a property violation here cannot
    hide behind the ``legacy`` path.
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
        module = fuzz.build_program(random.Random(seed))
        validate_module(module)
        previous = os.environ.get("REPRO_TIER_STRICT")
        os.environ["REPRO_TIER_STRICT"] = "1"
        try:
            reference = self._observe(module, arg, "fused")
            for tier in TIERS:
                if tier != "fused":
                    assert self._observe(module, arg, tier) == reference
        finally:
            if previous is None:
                del os.environ["REPRO_TIER_STRICT"]
            else:
                os.environ["REPRO_TIER_STRICT"] = previous

    @given(st.integers(0, 10**9), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fusion_preserves_per_pc_counts(self, seed, arg):
        """Reconstructed per-pc counts match an actually-unfused run."""
        module = fuzz.build_program(random.Random(seed))
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


class TestMutatorRobustness:
    """Campaign mutators never push the substrate outside WasmError.

    The decoder/validator contract for arbitrary mutated input is
    total: accept, or reject with a ``WasmError`` subclass.  Any other
    exception escaping is a harness bug (and the campaign records it
    as a ``fuzz.harness-error`` find).  DSL-level mutants are stronger
    still: they must always build into a validator-clean module.
    """

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_genome_mutants_always_valid(self, seed, mutseed):
        from repro.fuzz.genome import build_genome_module, genome_from_seed
        from repro.fuzz.mutators import mutate_genome

        rng = random.Random(mutseed)
        genome = genome_from_seed(seed)
        for _ in range(5):
            genome = mutate_genome(genome, rng)
            module = build_genome_module(genome)
            validate_module(module)
            assert encode_module(module)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    # Found by this property: a code-section entry whose declared size
    # ran past end-of-input escaped as IndexError (decoder _Reader
    # accepted an end beyond len(data)).
    @example(seed=0, mutseed=894358740)
    @settings(max_examples=40, deadline=None)
    def test_byte_mutants_decode_or_wasm_error(self, seed, mutseed):
        from repro.fuzz.genome import build_genome_module, genome_from_seed
        from repro.fuzz.mutators import mutate_bytes, mutate_memarg
        from repro.wasm.errors import WasmError

        rng = random.Random(mutseed)
        data = encode_module(build_genome_module(genome_from_seed(seed)))
        for _ in range(8):
            mutator = mutate_memarg if rng.random() < 0.5 else mutate_bytes
            data = mutator(data, rng)
            try:
                module = decode_module(data)
            except WasmError:
                continue
            try:
                validate_module(module)
                encode_module(module)
            except WasmError:
                pass
