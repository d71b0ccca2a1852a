"""Whole fuzz runs of diffcheck's seeded fuzz phase (repro.diffcheck.fuzz).

Covers the run-level contracts rather than single oracles: reports
and batches that do not depend on ``jobs`` (with and without finds),
a clean substrate that exercises every oracle without a find, genome
mutants that always build, byte mutants that reach the decoder's
rejection paths and nothing else, and the committed campaign WAT
that replays its genome under every execution tier.
"""

import dataclasses
import json
import pathlib
import random
import re

import pytest

from repro.diffcheck.fuzz import (
    CHECK_COST_COUNTERS,
    CHECK_COST_MONOTONE,
    CHECK_COST_ORDER,
    CHECK_ENCODE,
    CHECK_PAGES,
    CHECK_ROUNDTRIP,
    CHECK_STRATEGY,
    CHECK_TIER,
    CHECK_TIER_PROFILE,
    CHECK_TRAPS,
    CHECK_VALIDATE,
    check_fuzz,
)
from repro.diffcheck.genome import (
    GENE_KINDS,
    Genome,
    build_genome_module,
    genome_from_json,
    genome_from_seed,
)
from repro.diffcheck.report import DiffReport
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import LinearMemory
from repro.runtime.tiering import TIERS
from repro.wasm import decode_module, encode_module, validate_module
from repro.wasm.errors import Trap, WasmError
from repro.wasm.wat_parser import parse_wat

pytestmark = pytest.mark.diff

CORPUS_DIR = pathlib.Path(__file__).parent / "fuzz_corpus"


def _report_json(cases, base_seed, jobs):
    report = DiffReport()
    check_fuzz(cases, base_seed, report, jobs=jobs)
    return report, json.dumps(report.to_json(), sort_keys=True)


def _endpoint_only_touch(self, address, size):
    """The interior-page regression: only first/last page recorded."""
    if not self.track_pages or size <= 0:
        return
    self.touched_pages.add(address >> 12)
    self.touched_pages.add((address + size - 1) >> 12)


class TestCheckFuzzDeterminism:
    def test_jobs_do_not_change_report_or_batches(self):
        reports = []
        for jobs in (1, 2):
            report = DiffReport()
            check_fuzz(40, 0, report, jobs=jobs)
            reports.append(json.dumps(report.to_json(), sort_keys=True))
        assert reports[0] == reports[1]


class TestCampaign:
    def test_report_identical_across_jobs(self, monkeypatch):
        """Finds, not just counts, fold in the same order for any jobs.

        Forked workers inherit the seeded bug, so both runs find it.
        """
        monkeypatch.setattr(LinearMemory, "_touch", _endpoint_only_touch)
        payloads = []
        for jobs in (1, 2):
            report, payload = _report_json(40, 0, jobs)
            assert CHECK_PAGES in {v.check for v in report.violations}, jobs
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_clean_substrate_produces_no_finds(self):
        report, _ = _report_json(60, 1, jobs=1)
        assert report.ok, [v.render() for v in report.violations]
        # The run reached every oracle, not only the cheap ones.
        for check in (
            CHECK_ENCODE, CHECK_VALIDATE, CHECK_ROUNDTRIP, CHECK_STRATEGY,
            CHECK_TRAPS, CHECK_TIER, CHECK_TIER_PROFILE, CHECK_PAGES,
            CHECK_COST_ORDER, CHECK_COST_MONOTONE, CHECK_COST_COUNTERS,
        ):
            assert report.counts[check].passed > 0, check


def _mutate_genome(genome, rng):
    """One point mutation with out-of-range values and unknown kinds."""
    genes = list(genome.genes)
    index = rng.randrange(len(genes))
    roll = rng.random()
    if roll < 0.6:
        field = rng.choice("abcd")
        value = rng.randint(-(2**40), 2**40)
        genes[index] = dataclasses.replace(genes[index], **{field: value})
    elif roll < 0.75:
        kind = rng.choice(GENE_KINDS + ("unknown",))
        genes[index] = dataclasses.replace(genes[index], kind=kind)
    elif roll < 0.9 and len(genes) < 8:
        genes.insert(index, genome_from_seed(rng.randrange(2**16)).genes[0])
    elif len(genes) > 1:
        del genes[index]
    return Genome(tuple(genes), genome.arg)


class TestMutators:
    def test_genome_mutants_always_build(self):
        rng = random.Random(11)
        genome = genome_from_seed(1)
        for _ in range(100):
            genome = _mutate_genome(genome, rng)
            assert genome.genes
            module = build_genome_module(genome)
            validate_module(module)
            assert encode_module(module)


class TestByteLevelMutants:
    def test_byte_mutants_hit_decoder_rejection_edges(self):
        rng = random.Random(3)
        encoded = encode_module(build_genome_module(genome_from_seed(3)))
        reasons = set()
        for _ in range(120):
            mutant = bytearray(encoded)
            for _ in range(rng.randint(1, 3)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            if rng.random() < 0.3:
                mutant = mutant[: rng.randrange(len(mutant))]
            # Only WasmError may escape; anything else fails the test.
            try:
                module = decode_module(bytes(mutant))
            except WasmError as exc:
                # The message up to its first number or quoted bytes.
                reasons.add(re.split(r"[\d']", str(exc))[0])
                continue
            try:
                validate_module(module)
            except WasmError:
                pass
        header = {"bad magic number (not a wasm binary)",
                  "unsupported wasm version b"}
        assert len(reasons - header) >= 8, sorted(reasons)


class TestPromotion:
    def test_round_trip_under_all_tiers(self, monkeypatch):
        """The committed campaign WAT behaves as its genome does."""
        monkeypatch.setenv("REPRO_TIER_STRICT", "1")
        manifest = json.loads((CORPUS_DIR / "seeds.json").read_text())
        entries = manifest["campaign"]
        assert entries
        for entry in entries:
            genome = genome_from_json(entry["genome"])
            built = build_genome_module(genome)
            replayed = parse_wat((CORPUS_DIR / entry["file"]).read_text())
            validate_module(replayed)

            def outcome(module, tier):
                interp = Interpreter(
                    module, strategy="trap", validate=False, tier=tier,
                    track_pages=True,
                )
                try:
                    value = interp.invoke("run", entry["arg"])
                except Trap as exc:
                    return ("trap", exc.kind)
                return (
                    "value", value,
                    interp.memory.load_count, interp.memory.store_count,
                    tuple(sorted(interp.memory.touched_pages)),
                )

            for tier in TIERS:
                assert outcome(replayed, tier) == outcome(built, tier), (
                    entry["id"], tier
                )
