"""Differential fuzzing across the toolchain.

Hypothesis draws random genomes (:mod:`repro.diffcheck.genome`: loops,
branches, array traffic, trap-prone arithmetic, out-of-bounds accesses,
bulk fills) and builds them with ``build_genome_module``, whose field
normalisation makes any drawn integers valid, so shrinking works on
genes.  Each program is executed by the interpreter in three forms — as
built, after an encode→decode round trip, and after a WAT print
(structural check only) — and the observable results must agree
exactly.  This catches codec bugs on control flow that straight-line
round-trip tests cannot reach.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.diffcheck.fuzz import outcome_of
from repro.diffcheck.genome import GENE_KINDS, Gene, Genome, build_genome_module
from repro.wasm import decode_module, encode_module, module_to_wat, validate_module

genomes = st.builds(
    Genome,
    st.lists(
        st.builds(
            Gene, st.sampled_from(GENE_KINDS),
            st.integers(), st.integers(), st.integers(), st.integers(),
        ),
        min_size=1, max_size=5,
    ).map(tuple),
    st.integers(0, 2**31 - 1),
)


@given(genomes)
@settings(max_examples=60, deadline=None)
def test_binary_roundtrip_preserves_behaviour(genome):
    module = build_genome_module(genome)
    validate_module(module)
    direct = outcome_of(module, genome.arg, "trap")
    decoded = decode_module(encode_module(module))
    validate_module(decoded)
    assert outcome_of(decoded, genome.arg, "trap") == direct


@given(genomes)
@settings(max_examples=30, deadline=None)
def test_wat_printer_never_crashes_and_balances(genome):
    module = build_genome_module(genome)
    text = module_to_wat(module)
    assert text.count("(") == text.count(")") or '"' in text
    assert "(module" in text
    # Control structure indentation stays non-negative and balanced.
    for func in module.funcs:
        depth = 0
        for ins in func.body:
            if ins.op == "end":
                depth -= 1
            elif ins.op in ("block", "loop", "if"):
                depth += 1
        assert depth == 0


@given(genomes)
@settings(max_examples=30, deadline=None)
def test_execution_is_deterministic(genome):
    module = build_genome_module(genome)
    first = outcome_of(module, genome.arg, "trap")
    second = outcome_of(module, genome.arg, "trap")
    assert first == second
