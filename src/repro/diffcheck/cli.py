"""``leaps-bench diffcheck`` — the differential-correctness harness.

Usage::

    leaps-bench diffcheck                         # everything, mini size
    leaps-bench diffcheck --jobs 4                # fan phases out
    leaps-bench diffcheck --phases axioms,fuzz    # subset of phases
    leaps-bench diffcheck --workload gemm --workload trisolv
    leaps-bench diffcheck --json report.json      # machine-readable report

Phases (all on by default):

* ``axioms``    — executable axioms over the substrate layers;
* ``reference`` — every selected workload through the reference
  interpreter under all seven bounds strategies (the paper's five plus
  mte/wasm64), asserting bit-identical outputs, load/store counts and
  touched-page sets;
* ``sweep``     — measured sweep rows checked against the structural
  invariant catalogue (cost ordering, strategy-independent memory,
  monotone CPU accounting); reuses the measurement engine's cache and
  ``--jobs`` fan-out;
* ``bce``       — the bounds-check elimination pass re-measured with
  the pass disabled, asserting it is *cost-only*: bit-identical
  outputs/pages for every strategy, clamp/trap compute time monotone
  non-increasing with BCE on, and counter conservation;
* ``fuzz``      — seeded fuzzing of generated programs: round trip,
  strategy and tier agreement, page span, and pricing through the
  compiler cost model (replay one case with ``--phases fuzz --seed N
  --fuzz-cases 1``).

Exit status is non-zero when any check reports a divergence.
"""

from __future__ import annotations

import argparse
import json
import sys


def _build_parser() -> argparse.ArgumentParser:
    from repro.core import cliopts

    parser = argparse.ArgumentParser(
        prog="leaps-bench diffcheck",
        description="differential-correctness harness",
        parents=[cliopts.sweep_parent()],
    )
    parser.add_argument(
        "--phases", default="axioms,reference,sweep,bce,fuzz", metavar="LIST",
        help="comma list of phases to run (default: all)",
    )
    parser.add_argument(
        "--suite", default="all", choices=["all", "polybench", "spec", "wasi"],
        help="workload suite for reference/sweep phases (default: all)",
    )
    parser.add_argument(
        "--workload", action="append", default=None, metavar="NAME",
        help="restrict to specific workload(s); repeatable",
    )
    parser.add_argument(
        "--size", default="mini",
        help="workload size preset (default: mini)",
    )
    parser.add_argument(
        "--runtimes", default="wavm", metavar="LIST",
        help="comma list of runtimes for the sweep phase (default: wavm)",
    )
    parser.add_argument(
        "--isa", default="x86_64",
        help="ISA for the sweep phase (default: x86_64)",
    )
    parser.add_argument(
        "--threads", default="1,4", metavar="LIST",
        help="comma list of worker counts for the sweep phase (default: 1,4)",
    )
    parser.add_argument(
        "--iterations", type=int, default=2,
        help="measured iterations per sweep configuration (default: 2)",
    )
    parser.add_argument(
        "--fuzz-cases", type=int, default=200, metavar="N",
        help="seeded fuzz cases (default: 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the fuzz phase (default: 0)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable violation report to PATH",
    )
    parser.add_argument(
        "--max-violations", type=int, default=20, metavar="N",
        help="violation lines to print (the JSON report holds all)",
    )
    return parser


def _selected_workloads(args) -> list:
    from repro.workloads import workload_named
    from repro.workloads.registry import suite_workloads

    if args.workload:
        return [workload_named(name).name for name in args.workload]
    return [w.name for w in suite_workloads(args.suite)]


def _sweep_spec(args, workloads):
    """The diffcheck grid as a facade spec (invalid combos skipped)."""
    from repro import api
    from repro.runtime.strategies import STRATEGY_ORDER
    from repro.workloads import workload_named

    # The facade's scenario axis filters cross-family workloads, so an
    # all-WASI selection must sweep under the wasi scenario or measure
    # nothing at all.  Mixed selections stay on the compute default
    # (the families are disjoint sweeps by design).
    suites = {workload_named(name).suite for name in workloads}
    scenario = "wasi" if suites == {"wasi"} else "compute"
    return api.SweepSpec(
        workloads=tuple(workloads),
        runtimes=tuple(v for v in args.runtimes.split(",") if v),
        strategies=tuple(STRATEGY_ORDER),
        isas=(args.isa,),
        threads=tuple(int(v) for v in args.threads.split(",") if v),
        size=args.size,
        iterations=args.iterations,
        scenario=scenario,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from repro import api
    from repro.core import cliopts
    from repro.diffcheck.axioms import check_axioms
    from repro.diffcheck.bce import check_bce
    from repro.diffcheck.fuzz import check_fuzz
    from repro.diffcheck.invariants import check_invariants
    from repro.diffcheck.reference import check_reference
    from repro.diffcheck.report import DiffReport
    from repro.runtime.predecode import interpreter_build_digest
    from repro.runtime.strategies import STRATEGY_ORDER

    phases = [p.strip() for p in args.phases.split(",") if p.strip()]
    unknown = set(phases) - {"axioms", "reference", "sweep", "bce", "fuzz"}
    if unknown:
        print(f"unknown phases: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    engine = cliopts.configure_sweep(args)
    workloads = _selected_workloads(args)
    report = DiffReport()

    if "axioms" in phases:
        print("== axioms: substrate-layer contracts")
        check_axioms(report)

    if "reference" in phases:
        print(
            f"== reference: {len(workloads)} workloads x "
            f"{len(STRATEGY_ORDER)} strategies ({args.size})"
        )
        check_reference(
            workloads, args.size, STRATEGY_ORDER, report, jobs=engine.jobs
        )

    if "sweep" in phases:
        measurements = api.measure(
            _sweep_spec(args, workloads), engine=engine
        ).measurements
        print(f"== sweep: {len(measurements)} measurements under invariants")
        check_invariants(measurements, report)

    if "bce" in phases:
        print(
            f"== bce: {len(workloads)} workloads re-measured with "
            "bounds-check elimination disabled"
        )
        check_bce(workloads, args.size, args.isa, report)

    if "fuzz" in phases:
        print(
            f"== fuzz: {args.fuzz_cases} cases from seed {args.seed}"
        )
        check_fuzz(args.fuzz_cases, args.seed, report, jobs=engine.jobs)

    print()
    for line in report.summary_lines():
        print(line)
    print(
        f"\n{report.checks_run} checks, "
        f"{len(report.violations)} divergence(s)"
    )
    for violation in report.violations[: args.max_violations]:
        print("  " + violation.render())
    if len(report.violations) > args.max_violations:
        print(f"  ... and {len(report.violations) - args.max_violations} more")

    if args.json:
        # Header first so a report is attributable to the exact
        # interpreter build that ran it.
        payload = {
            "interpreter_build": interpreter_build_digest(),
            **report.to_json(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report written to {args.json}")

    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
