"""``leaps-bench fuzz`` — the coverage-guided fuzzing campaign.

Usage::

    leaps-bench fuzz                          # 200 cases from seed 0
    leaps-bench fuzz --cases 500 --seed 1 --jobs 4
    leaps-bench fuzz --duration 60            # time-boxed (CI smoke)
    leaps-bench fuzz --json report.json       # machine-readable report
    leaps-bench fuzz --promote                # write minimized finds
                                              # into tests/fuzz_corpus/

Determinism: with ``--cases`` the JSON report is byte-identical across
runs and across ``--jobs`` values for a fixed (cases, seed) — case
generation, corpus scheduling and report folding all happen in the
parent in a fixed order.  ``--duration`` trades that for a wall-clock
budget and is what CI's smoke job uses.

Exit status 1 when the campaign confirms a divergence, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    from repro.core.cliopts import _jobs_arg

    parser = argparse.ArgumentParser(
        prog="leaps-bench fuzz",
        description="coverage-guided differential fuzzing campaign",
    )
    parser.add_argument(
        "--cases", type=int, default=200, metavar="N",
        help="campaign case budget (default: 200)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; overrides --cases (CI smoke mode)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (default: 0)",
    )
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes, or 'auto' (default: 1)",
    )
    parser.add_argument(
        "--corpus-dir", default="tests/fuzz_corpus", metavar="DIR",
        help="regression corpus directory (default: tests/fuzz_corpus)",
    )
    parser.add_argument(
        "--promote", action="store_true",
        help="write minimized finds into the regression corpus",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip delta-debugging of finds",
    )
    parser.add_argument(
        "--max-finds", type=int, default=10, metavar="N",
        help="finds to triage (default: 10)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable campaign report to PATH",
    )
    parser.add_argument(
        "--max-violations", type=int, default=20, metavar="N",
        help="violation lines to print (the JSON report holds all)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.core.engine import resolve_jobs
    from repro.diffcheck.report import DiffReport
    from repro.fuzz.campaign import CampaignConfig, run_campaign
    from repro.runtime.predecode import interpreter_build_digest
    from repro.runtime.tiering import DEFAULT_TIER

    config = CampaignConfig(
        cases=args.cases,
        seed=args.seed,
        jobs=resolve_jobs(args.jobs),
        duration=args.duration,
        corpus_dir=Path(args.corpus_dir),
        promote=args.promote,
        minimize=not args.no_minimize,
        max_finds=args.max_finds,
    )
    budget = (
        f"{args.duration:g}s" if args.duration is not None
        else f"{args.cases} cases"
    )
    print(f"== fuzz campaign: {budget} from seed {args.seed}")
    result = run_campaign(config, progress=lambda line: print("  " + line))

    coverage = result["coverage"]
    per_map = " ".join(f"{k}={v}" for k, v in coverage["per_map"].items())
    print(
        f"\ncoverage: {coverage['edges']} edges ({per_map})\n"
        f"corpus: {result['corpus']['entries']} entries, "
        f"{result['corpus']['distinct_signatures']} signatures\n"
        f"finds: {len(result['finds'])}"
    )
    for find in result["finds"]:
        checks = ",".join(find["checks"])
        where = find.get("promoted") or find.get("id") or find["label"]
        print(f"  [{checks}] {where}")

    report = DiffReport()
    report.merge_json(result["report"])
    for violation in report.violations[: args.max_violations]:
        print("  " + violation.render())
    if len(report.violations) > args.max_violations:
        print(f"  ... and {len(report.violations) - args.max_violations} more")

    if args.json:
        payload = {
            "interpreter_build": interpreter_build_digest(),
            "tier": os.environ.get("REPRO_TIER") or DEFAULT_TIER,
            **result,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report written to {args.json}")

    return 1 if result["confirmed_divergence"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
