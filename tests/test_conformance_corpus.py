"""Conformance corpus: all execution tiers agree on every program.

Each ``tests/corpus/*.wat`` fixture is a small program targeting one
semantic corner (wrap-around arithmetic, NaN bit patterns, memarg edge
offsets, br_table, bulk memory ops, …).  The harness runs every
exported function under all three tiers — ``legacy`` (the pre-rewrite
per-op closures), ``fused`` (per-op closures with fast memory paths,
and loop handlers) and ``opt`` (tier-2 whole-function codegen) — and
requires *bit-identical observables*: results (floats compared
by bit pattern), trap kinds, per-pc execution counts, opcode totals,
load/store counts and touched-page sets.

Every module also makes a binary encode/decode round trip first, so
the corpus exercises the wire format (including the 0xFC-prefixed
bulk-memory opcodes) on the way in.
"""

import pathlib
import struct

import pytest

from repro.runtime.interpreter import Interpreter
from repro.wasm import decode_module, encode_module, validate_module
from repro.wasm.errors import Trap
from repro.wasm.wat_parser import parse_wat
from tests.test_tiering import _loop_handlers

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.wat"))


def _bits(value):
    """Floats compared by IEEE bit pattern so NaN == NaN, -0.0 != 0.0."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _run_module(module, tier):
    interp = Interpreter(
        module,
        tier=tier,
        collect_profile=True,
        track_pages=True,
    )
    outcomes = []
    for export in module.exports:
        if export.kind != "func":
            continue
        try:
            outcomes.append((export.name, "ok", _bits(interp.invoke(export.name))))
        except Trap as trap:
            outcomes.append((export.name, "trap", trap.kind))
    profile = interp.take_profile("conformance", "corpus")
    return {
        "outcomes": outcomes,
        "instr_counts": dict(profile.instr_counts),
        "op_totals": dict(profile.op_totals),
        "total_instrs": profile.total_instrs,
        "mem_loads": profile.mem_loads,
        "mem_stores": profile.mem_stores,
        "pages_touched": profile.pages_touched,
        "grow_events": list(profile.grow_events),
        "peak_pages": profile.peak_pages,
    }


def test_corpus_is_populated():
    # The corpus is meant to grow; losing files should be loud.
    assert len(CORPUS) >= 30


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_tiers_agree(path):
    """All three execution tiers are bit-identical on the corpus.

    The opt tier's whole-function compiler runs from each function's
    first call wherever it can; an unexpected fused-codegen or
    tier-2 codegen failure propagates as a hard error.
    Agreement covers outcomes *and* the reconstructed per-pc profile.
    """
    module = parse_wat(path.read_text())
    validate_module(module)
    # Wire round trip: the binary form must reproduce the module.
    module = decode_module(encode_module(module))
    validate_module(module)

    reference = _run_module(module, tier="fused")
    assert reference["outcomes"], f"{path.name} exports no functions"
    for tier in ("legacy", "opt"):
        observed = _run_module(module, tier=tier)
        for key, value in reference.items():
            assert observed[key] == value, (
                f"{path.name}: {key} differs between fused and tier {tier}"
            )


def test_tier2_compiles_some_of_the_corpus():
    """The opt tier must engage on the corpus, not just bail out."""
    installed = 0
    for path in CORPUS:
        module = parse_wat(path.read_text())
        interp = Interpreter(module, tier="opt")
        for export in module.exports:
            if export.kind == "func":
                try:
                    interp.invoke(export.name)
                except Trap:
                    pass
        installed += sum(
            1 for handler in interp._tier2.values() if handler
        )
    assert installed > 0, "tier-2 installed zero handlers across the corpus"


#: Corpus programs that run on per-op dispatch alone: no function tier
#: 2 takes and no loop nest a loop handler runs.
PER_OP_ONLY = frozenset((
    "block_br", "br_table", "bulk_copy", "bulk_fill", "globals", "mem_grow",
    "recursion",
))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_fusion_actually_applies(path):
    """The corpus must exercise generated code, not just fall back:
    under ``opt`` each program runs a tier-2 function or a loop handler,
    except exactly those in :data:`PER_OP_ONLY`."""
    assert PER_OP_ONLY <= {p.stem for p in CORPUS}
    module = parse_wat(path.read_text())
    interp = Interpreter(module, tier="opt")
    for export in module.exports:
        if export.kind == "func":
            try:
                interp.invoke(export.name)
            except Trap:
                pass
    generated = any(interp._tier2.values()) or bool(_loop_handlers(interp))
    assert generated == (path.stem not in PER_OP_ONLY), path.stem
