"""Replay the seeded fuzz regression corpus (tests/fuzz_corpus/).

Every entry is a once-found failure promoted to a permanent
regression: genome entries (the ``"cases"`` and ``"campaign"`` lists
in seeds.json) go back through the full ``check_module_case`` oracle,
case genomes additionally through every execution tier for every
argument in ``"args"``, and the ``.wat`` distillations run under the
full bounds-strategy x tier grid.  See tests/fuzz_corpus/README.md for
the promotion policy.
"""

import json
import pathlib

import pytest

from repro.diffcheck import fuzz
from repro.diffcheck.genome import build_genome_module, genome_from_json
from repro.runtime.interpreter import TIERS, Interpreter
from repro.runtime.strategies import STRATEGY_ORDER
from repro.wasm import decode_module, encode_module, validate_module
from repro.wasm.errors import Trap
from repro.wasm.wat_parser import parse_wat

pytestmark = pytest.mark.diff

CORPUS_DIR = pathlib.Path(__file__).parent / "fuzz_corpus"
MANIFEST = json.loads((CORPUS_DIR / "seeds.json").read_text())
SEED_CASES = MANIFEST["cases"]
SEED_ARGS = MANIFEST["args"]
CAMPAIGN_CASES = MANIFEST.get("campaign", [])
WAT_CASES = sorted(CORPUS_DIR.glob("*.wat"))


def _outcome(module, arg, strategy, tier):
    interp = Interpreter(
        module, strategy=strategy, tier=tier,
        validate=False, collect_profile=False, track_pages=True,
    )
    try:
        value = interp.invoke("run", arg)
    except Trap as exc:
        return ("trap", exc.kind)
    memory = interp.memory
    if memory is None:
        return ("value", value, 0, 0, ())
    return (
        "value", value, memory.load_count, memory.store_count,
        tuple(sorted(memory.touched_pages)),
    )


def test_corpus_is_populated():
    assert len(SEED_CASES) >= 8
    assert len(WAT_CASES) >= 4


@pytest.mark.parametrize(
    "case", SEED_CASES, ids=lambda c: f"seed{c['seed']}"
)
def test_seed_passes_full_oracle(case):
    """The promoted case must stay green through every fuzz oracle."""
    genome = genome_from_json(case["genome"])
    report = fuzz.check_module_case(
        build_genome_module(genome), genome.arg, genome=genome
    )
    assert report.ok, "\n".join(v.render() for v in report.violations)


@pytest.mark.parametrize(
    "case", SEED_CASES, ids=lambda c: f"seed{c['seed']}"
)
def test_seed_tiers_agree(case):
    """Execution tiers agree on the case's module for every strategy.

    An unexpected tier-2 codegen failure on fuzzer-shaped programs is a
    hard error, and any divergence in value/loads/stores/pages is
    caught.
    """
    module = build_genome_module(genome_from_json(case["genome"]))
    validate_module(module)
    for strategy in STRATEGY_ORDER:
        for arg in SEED_ARGS:
            reference = _outcome(module, arg, strategy, tier="fused")
            for tier in ("legacy", "opt"):
                observed = _outcome(module, arg, strategy, tier=tier)
                assert observed == reference, (
                    f"seed {case['seed']} arg={arg} {strategy}: "
                    f"tier {tier} diverges from fused"
                )


@pytest.mark.parametrize("path", WAT_CASES, ids=lambda p: p.stem)
def test_wat_regression_grid(path):
    """Distilled regressions agree across strategies and execution tiers.

    Within one strategy every tier must be bit-identical.
    Across strategies the usual diffcheck contract holds: identical
    value/loads/stores/pages when nothing traps; when a trapping
    strategy traps, all trapping strategies report the same kind and
    clamp/none complete without trapping.
    """
    module = parse_wat(path.read_text())
    validate_module(module)
    module = decode_module(encode_module(module))
    validate_module(module)

    for arg in SEED_ARGS:
        by_strategy = {}
        for strategy in STRATEGY_ORDER:
            reference = _outcome(module, arg, strategy, tier="fused")
            for tier in TIERS:
                if tier == "fused":
                    continue
                observed = _outcome(module, arg, strategy, tier=tier)
                assert observed == reference, (
                    f"{path.name} arg={arg} {strategy}: "
                    f"{tier} diverges from fused"
                )
            by_strategy[strategy] = reference

        trapping = {s: by_strategy[s] for s in fuzz._TRAPPING}
        if any(o[0] == "trap" for o in trapping.values()):
            kinds = {o[1] for o in trapping.values() if o[0] == "trap"}
            assert len(kinds) == 1 and all(
                o[0] == "trap" for o in trapping.values()
            ), f"{path.name} arg={arg}: trapping strategies disagree"
            if kinds == {"out-of-bounds-memory"}:
                for strategy in ("clamp", "none"):
                    assert by_strategy[strategy][0] == "value", (
                        f"{path.name} arg={arg}: {strategy} trapped on oob"
                    )
        else:
            outcomes = set(by_strategy.values())
            assert len(outcomes) == 1, (
                f"{path.name} arg={arg}: strategies disagree with no trap"
            )


@pytest.mark.parametrize("path", WAT_CASES, ids=lambda p: p.stem)
def test_wat_regression_opt_strict(path):
    """Corpus replays under the optimizing tier against ``fused``.

    A tier-2 codegen failure propagates, so this catches both
    tier-2 divergence and a compiler crash on every distilled
    regression shape.
    """
    module = parse_wat(path.read_text())
    validate_module(module)
    for strategy in STRATEGY_ORDER:
        for arg in SEED_ARGS:
            reference = _outcome(module, arg, strategy, tier="fused")
            observed = _outcome(module, arg, strategy, tier="opt")
            assert observed == reference, (
                f"{path.name} arg={arg} {strategy}: "
                "opt tier diverges from fused"
            )


def test_campaign_entries_replay_clean():
    """Promoted campaign finds stay green through every fuzz oracle.

    A plain loop (not parametrize) so an empty campaign list is simply
    a no-op rather than a collection error.
    """
    for entry in CAMPAIGN_CASES:
        genome = (
            genome_from_json(entry["genome"]) if "genome" in entry else None
        )
        if "file" in entry:
            module = parse_wat((CORPUS_DIR / entry["file"]).read_text())
        else:
            module = build_genome_module(genome)
        validate_module(module)
        report = fuzz.check_module_case(
            module, entry["arg"], subject={"id": entry["id"]}, genome=genome
        )
        assert report.ok, entry["id"] + "\n" + "\n".join(
            v.render() for v in report.violations
        )
