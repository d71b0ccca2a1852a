"""Seeded differential fuzzing of generated programs.

Each case is the genome of one integer seed
(:func:`repro.diffcheck.genome.genome_from_seed`): loops, branches,
array traffic, deliberately trap-prone arithmetic, out-of-bounds
accesses and bulk ``memory.fill``, built through the typed DSL.
:func:`check_module_case`, the one oracle entry point, then drives the
program through the whole substrate and the compiler cost model:

    dsl/builder → encoder → decoder → validator → interpreter → compiler

asserting that (a) encoding is idempotent across a decode round trip,
(b) the validator accepts both the built and the decoded module,
(c) the interpreter observes identical outcomes — returned value or
trap kind — before and after the round trip, (d) the bounds
strategies agree wherever they must: bit-identical results, load/store
counts and touched pages when no trap occurs; consistent trap
behaviour when one does (the trapping strategies report the same trap,
``clamp``/``none`` complete instead of trapping on out-of-bounds),
(e) the ``legacy``, ``fused`` and ``opt`` execution tiers agree on the
outcome and on the per-pc instruction profile, (f) a ``fill`` touches
every 4 KiB page it covers, not just the first and last, and (g) the
compiler cost model prices the program sanely (see :func:`_check_cost`).

Unlike the hypothesis suites (tests/test_differential_fuzz.py) this
runs from explicit integer seeds, so a CI failure is reproducible with
``leaps-bench diffcheck --phases fuzz --seed N --fuzz-cases 1`` and
cases fan out across worker processes deterministically.

Determinism contract (``check_fuzz``): for a fixed ``(cases,
base_seed)`` the case list is always the seeds ``base_seed ..
base_seed + cases - 1`` in ascending order, partitioned into
fixed-size batches of :data:`_CHUNK` seeds.  The batch list and the
merged report (check counts *and* violation order) are identical for
every ``jobs`` value — worker processes only change *who* executes a
batch, never what the batches are or the order their results fold
into the report.  The batch size is a module constant precisely so it
can never be derived from the worker count.
"""

from __future__ import annotations

import traceback
from typing import Optional, Tuple

from repro.compiler.frontend import BULK_MEMORY_OPS
from repro.compiler.timing import check_counts_for_profile, cycles_for_profile
from repro.core.harness import cell_problem
from repro.diffcheck.bce import (
    COUNTERS_RULE,
    counters_conserved,
    inline_cost_monotone,
)
from repro.diffcheck.genome import (
    Genome,
    build_genome_module,
    fill_pages,
    genome_from_seed,
)
from repro.diffcheck.invariants import _COMPUTE_PAIRS, _check_order
from repro.diffcheck.report import DiffReport, fan_out
from repro.isa import ISAS
from repro.runtime.interpreter import Interpreter
from repro.runtime.profile import ExecutionProfile
from repro.runtime.strategies import STRATEGY_ORDER, strategy_named
from repro.runtime.tiering import TIERS
from repro.runtimes.base import compile_cached
from repro.runtimes.registry import RUNTIMES
from repro.wasm import decode_module, encode_module, validate_module
from repro.wasm.errors import Trap, ValidationError, WasmError

CHECK_ENCODE = "fuzz.encode-idempotence"
CHECK_VALIDATE = "fuzz.validator-acceptance"
CHECK_ROUNDTRIP = "fuzz.roundtrip-behaviour"
CHECK_STRATEGY = "fuzz.strategy-equivalence"
CHECK_TRAPS = "fuzz.trap-strategy-agreement"
CHECK_TIER = "fuzz.tier-agreement"
CHECK_TIER_PROFILE = "fuzz.tier-profile-agreement"
CHECK_PAGES = "fuzz.page-span"
CHECK_COST_ORDER = "fuzz.cost-order"
CHECK_COST_MONOTONE = "fuzz.cost-bce-monotone"
CHECK_COST_COUNTERS = "fuzz.cost-counter-conservation"
CHECK_COST_ERROR = "fuzz.cost-error"
CHECK_HARNESS = "fuzz.harness-error"

#: Strategies whose out-of-bounds behaviour is a trap.
_TRAPPING = ("trap", "mprotect", "uffd", "mte", "wasm64")


def _invoke(interp: Interpreter, arg: int):
    """('value', v, loads, stores, pages) or ('trap', kind) for one run."""
    try:
        value = interp.invoke("run", arg)
    except Trap as exc:
        return ("trap", exc.kind)
    memory = interp.memory
    return (
        "value", value, memory.load_count, memory.store_count,
        tuple(sorted(memory.touched_pages)),
    )


def outcome_of(module, arg: int, strategy: str):
    """The outcome (see :func:`_invoke`) of one run under ``strategy``."""
    return _invoke(Interpreter(
        module, strategy=strategy, validate=False,
        collect_profile=False, track_pages=True,
    ), arg)


def check_case(
    seed: int, report: Optional[DiffReport] = None
) -> DiffReport:
    """Run every oracle on the genome of one seed."""
    report = report if report is not None else DiffReport()
    genome = genome_from_seed(seed)
    subject = {"seed": seed, "arg": genome.arg}
    try:
        module = build_genome_module(genome)
    except WasmError as exc:
        report.check(
            CHECK_HARNESS, False, subject=subject,
            detail="substrate raised outside the trap protocol",
            actual=repr(exc),
        )
        return report
    return check_module_case(module, genome.arg, report, subject, genome)


def check_module_case(
    module,
    arg: int,
    report: Optional[DiffReport] = None,
    subject: Optional[dict] = None,
    genome: Optional[Genome] = None,
) -> DiffReport:
    """Run every oracle on one (module, arg) pair.

    The module must export ``run (param i32) (result i32)``.  Checks
    (a)–(g) of the module docstring; the page-span check (f) needs the
    ``genome`` the module was built from and is skipped without one.
    """
    report = report if report is not None else DiffReport()
    subject = dict(subject or {})
    try:
        encoded = encode_module(module)
        decoded = decode_module(encoded)
        re_encoded = encode_module(decoded)
        report.check(
            CHECK_ENCODE,
            encoded == re_encoded,
            subject=subject,
            detail="encode(decode(encode(m))) differs from encode(m)",
            expected=len(encoded),
            actual=len(re_encoded),
        )

        for label, candidate in (("built", module), ("decoded", decoded)):
            try:
                validate_module(candidate)
                report.check(CHECK_VALIDATE, True)
            except ValidationError as exc:
                report.check(
                    CHECK_VALIDATE, False,
                    subject=dict(subject, module=label),
                    detail="validator rejected a well-formed generated module",
                    actual=repr(exc),
                )

        direct = outcome_of(module, arg, "trap")
        roundtrip = outcome_of(decoded, arg, "trap")
        report.check(
            CHECK_ROUNDTRIP,
            direct == roundtrip,
            subject=subject,
            detail="behaviour changed across the binary round trip",
            expected=direct,
            actual=roundtrip,
        )

        if direct[0] == "value":
            # No trap under 'trap': no access was out of bounds, so
            # every strategy must observe exactly the same execution.
            for strategy in STRATEGY_ORDER:
                if strategy == "trap":
                    continue
                other = outcome_of(decoded, arg, strategy)
                report.check(
                    CHECK_STRATEGY,
                    other == direct,
                    subject=dict(subject, strategy=strategy),
                    detail="strategies diverge on an in-bounds execution",
                    expected=direct,
                    actual=other,
                )
        elif direct[1] == "out-of-bounds-memory":
            for strategy in _TRAPPING[1:]:
                other = outcome_of(decoded, arg, strategy)
                report.check(
                    CHECK_TRAPS,
                    other == direct,
                    subject=dict(subject, strategy=strategy),
                    detail="trapping strategies disagree on the trap",
                    expected=direct,
                    actual=other,
                )
            for strategy in ("clamp", "none"):
                # clamp/none continue past the OOB access, so later
                # arithmetic traps are legal; an *out-of-bounds* trap
                # is not.
                other = outcome_of(decoded, arg, strategy)
                report.check(
                    CHECK_TRAPS,
                    not (other[0] == "trap" and other[1] == "out-of-bounds-memory"),
                    subject=dict(subject, strategy=strategy),
                    detail="non-trapping strategy trapped out-of-bounds",
                    expected="value or arithmetic trap",
                    actual=other,
                )
        else:
            # Arithmetic traps are strategy-independent.
            for strategy in STRATEGY_ORDER:
                if strategy == "trap":
                    continue
                other = outcome_of(decoded, arg, strategy)
                report.check(
                    CHECK_TRAPS,
                    other == direct,
                    subject=dict(subject, strategy=strategy),
                    detail="strategies disagree on an arithmetic trap",
                    expected=direct,
                    actual=other,
                )

        if genome is not None and direct[0] == "value":
            # A trapping run may stop before its fills: span unprovable.
            expected = fill_pages(genome)
            if expected:
                report.check(
                    CHECK_PAGES,
                    expected <= frozenset(direct[4]),
                    subject=subject,
                    detail="ranged access skipped interior pages",
                    expected=sorted(expected),
                    actual=direct[4],
                )

        profile = _check_tiers(module, arg, report, subject)
        if direct[0] == "value":
            # Only complete runs: a profile that stops at a trap would
            # differ from the clamp/none run of the same program.
            _check_cost(module, profile, report, subject)
    except WasmError as exc:
        report.check(
            CHECK_HARNESS, False, subject=subject,
            detail="substrate raised outside the trap protocol",
            actual=repr(exc),
        )
    return report


def _tier_run(module, arg: int, tier: str):
    """(outcome, profile) of one profiled 'trap' run under ``tier``."""
    interp = Interpreter(
        module, strategy="trap", validate=False,
        collect_profile=True, track_pages=True, tier=tier,
    )
    return _invoke(interp, arg), interp.take_profile()


def _profile_digest(profile: ExecutionProfile) -> dict:
    """Small JSON-able summary of per-pc counts for violation payloads."""
    return {
        str(fi): {"total": sum(c), "nonzero": sum(1 for x in c if x)}
        for fi, c in sorted(profile.instr_counts.items())
    }


def _check_tiers(
    module, arg: int, report: DiffReport, subject: dict
) -> ExecutionProfile:
    """Every tier against ``fused``; returns the ``fused`` profile."""
    baseline_tier = "fused"
    baseline, base_profile = _tier_run(module, arg, baseline_tier)
    for tier in TIERS:
        if tier == baseline_tier:
            continue
        outcome, profile = _tier_run(module, arg, tier)
        report.check(
            CHECK_TIER,
            outcome == baseline,
            subject=dict(subject, tier=tier),
            detail=f"tier '{tier}' diverges from '{baseline_tier}'",
            expected=baseline,
            actual=outcome,
        )
        report.check(
            CHECK_TIER_PROFILE,
            profile.instr_counts == base_profile.instr_counts,
            subject=dict(subject, tier=tier),
            detail="per-pc instruction profile differs across tiers",
            expected=_profile_digest(base_profile),
            actual=_profile_digest(profile),
        )
    return base_profile


def _check_cost(
    module, profile: ExecutionProfile, report: DiffReport, subject: dict
) -> None:
    """Price a completed run through the compiler the figures use.

    For every compiling Wasm runtime × ISA × strategy the registry
    allows, the module is compiled with the runtime's own
    ``CompilerConfig`` and priced on ``profile``:

    * the strategies obey the sweep phase's compute-cost ordering
      (:data:`repro.diffcheck.invariants._COMPUTE_PAIRS`);
    * on the inline-check strategies, the same config with BCE off
      never prices cheaper and the dynamic check counters conserve
      (the ``bce`` phase's two pricing rules);
    * pricing raises nothing.

    Programs with bulk-memory ops are skipped: the cost model does not
    price them.
    """
    if any(
        ins.op in BULK_MEMORY_OPS for func in module.funcs for ins in func.body
    ):
        return
    # A compile store for this case only, so a campaign does not keep
    # every generated module's IR.
    store = {}

    def price(config, isa, strategy, bce=True) -> Tuple[float, dict]:
        compiled, _ = compile_cached(store, module, isa, config, strategy, bce)
        return (
            cycles_for_profile(compiled, profile),
            check_counts_for_profile(compiled, profile),
        )

    for model in RUNTIMES.values():
        if model.compiler is None or model.is_native:
            continue
        config = model.compiler
        for isa in ISAS.values():
            names = [
                name for name in model.strategies
                if cell_problem(model.name, name, isa.name) is None
            ]
            if not names:
                continue  # no backend for this ISA
            where = dict(subject, runtime=model.name, isa=isa.name)
            cycles = {}
            try:
                for name in names:
                    strategy = strategy_named(name)
                    cycles[name], checks_on = price(config, isa, strategy)
                    if not strategy.inline_check:
                        continue
                    cycles_off, checks_off = price(
                        config, isa, strategy, bce=False
                    )
                    report.check(
                        CHECK_COST_MONOTONE,
                        inline_cost_monotone(cycles[name], cycles_off),
                        subject=dict(where, strategy=name),
                        detail="BCE increased modelled cycles",
                        expected=f"<= {cycles_off!r}",
                        actual=cycles[name],
                    )
                    report.check(
                        CHECK_COST_COUNTERS,
                        counters_conserved(checks_on, checks_off),
                        subject=dict(where, strategy=name),
                        detail="dynamic check counters do not conserve "
                        "across the BCE toggle",
                        expected=COUNTERS_RULE,
                        actual={"on": checks_on, "off": checks_off},
                    )
            except Exception as exc:  # noqa: BLE001 — any escape is a find
                origin = traceback.extract_tb(exc.__traceback__)[-1]
                report.check(
                    CHECK_COST_ERROR, False, subject=where,
                    detail="pricing a generated program raised",
                    actual=f"{exc!r} in {origin.name}",
                )
                continue
            _check_order(
                report, CHECK_COST_ORDER, cycles, _COMPUTE_PAIRS, where,
                "modelled cycles",
            )


def _check_chunk_json(payload: Tuple[int, ...]) -> dict:
    report = DiffReport()
    for seed in payload:
        check_case(seed, report)
    return report.to_json()


#: Seeds per worker batch.  A fixed constant — never derived from the
#: worker count — so ``--jobs 1`` and ``--jobs N`` enumerate the exact
#: same batch list in the same order (see the module docstring's
#: determinism contract).
_CHUNK = 16


def check_fuzz(
    cases: int,
    base_seed: int,
    report: DiffReport,
    jobs: int = 1,
) -> None:
    """Run ``cases`` seeded cases (seeds base_seed..base_seed+cases-1).

    Deterministic for any ``jobs``: identical batches, identical batch
    order, identical merged report (serial runs fold each batch through
    the same serialised-report path the pool uses).
    """
    seeds = list(range(base_seed, base_seed + cases))
    chunks = [
        tuple(seeds[i : i + _CHUNK]) for i in range(0, len(seeds), _CHUNK)
    ]
    fan_out(report, _check_chunk_json, chunks, jobs)
