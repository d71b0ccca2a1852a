"""Machine-readable violation reports.

Every diffcheck phase records its comparisons into a
:class:`DiffReport`: per-check pass/fail/skip tallies plus a
:class:`Violation` entry for each broken equivalence, carrying the
configuration coordinates and the expected/actual values.  Reports
serialise to JSON (``leaps-bench diffcheck --json``) so CI and later
analysis can consume divergences without scraping log output, and
merge associatively so worker processes can each build a partial
report that the parent folds together.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.engine import _pool_context

#: Bump when the JSON report layout changes.
REPORT_VERSION = 1


def _jsonable(value: object) -> object:
    """Coerce expected/actual payloads to JSON-stable plain data."""
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class Violation:
    """One broken equivalence or structural invariant."""

    #: Catalogue identifier, e.g. ``'sweep.inline-cost-order'``.
    check: str
    #: Configuration coordinates (workload, strategy, threads, …).
    subject: Mapping[str, object]
    detail: str
    expected: object = None
    actual: object = None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "subject": _jsonable(dict(self.subject)),
            "detail": self.detail,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
        }

    def render(self) -> str:
        coords = " ".join(f"{k}={v}" for k, v in self.subject.items())
        line = f"[{self.check}] {coords}: {self.detail}" if coords else f"[{self.check}] {self.detail}"
        if self.expected is not None or self.actual is not None:
            line += f" (expected {_jsonable(self.expected)!r}, got {_jsonable(self.actual)!r})"
        return line


def violation_from_json(raw: Mapping) -> Violation:
    return Violation(
        check=str(raw["check"]),
        subject=dict(raw.get("subject", {})),
        detail=str(raw.get("detail", "")),
        expected=raw.get("expected"),
        actual=raw.get("actual"),
    )


@dataclass
class CheckCounts:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


class DiffReport:
    """Accumulates check outcomes across all diffcheck phases."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.counts: Dict[str, CheckCounts] = {}

    def _counts(self, check: str) -> CheckCounts:
        return self.counts.setdefault(check, CheckCounts())

    # -- recording -------------------------------------------------------

    def check(
        self,
        check: str,
        ok: bool,
        subject: Optional[Mapping[str, object]] = None,
        detail: str = "",
        expected: object = None,
        actual: object = None,
    ) -> bool:
        """Record one comparison; returns ``ok`` for chaining."""
        counts = self._counts(check)
        if ok:
            counts.passed += 1
        else:
            counts.failed += 1
            self.violations.append(
                Violation(check, dict(subject or {}), detail, expected, actual)
            )
        return ok

    def skip(self, check: str, count: int = 1) -> None:
        """Record comparisons that could not run (e.g. undersampled)."""
        self._counts(check).skipped += count

    # -- aggregation -----------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def checks_run(self) -> int:
        return sum(c.passed + c.failed for c in self.counts.values())

    def merge(self, other: "DiffReport") -> None:
        for check, counts in other.counts.items():
            mine = self._counts(check)
            mine.passed += counts.passed
            mine.failed += counts.failed
            mine.skipped += counts.skipped
        self.violations.extend(other.violations)

    def merge_json(self, raw: Mapping) -> None:
        """Fold a worker's serialised partial report into this one."""
        for check, counts in raw.get("counts", {}).items():
            mine = self._counts(str(check))
            mine.passed += int(counts.get("passed", 0))
            mine.failed += int(counts.get("failed", 0))
            mine.skipped += int(counts.get("skipped", 0))
        for violation in raw.get("violations", []):
            self.violations.append(violation_from_json(violation))

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "checks_run": self.checks_run,
            "counts": {
                check: {
                    "passed": c.passed,
                    "failed": c.failed,
                    "skipped": c.skipped,
                }
                for check, c in sorted(self.counts.items())
            },
            "violations": [v.to_json() for v in self.violations],
        }

    def summary_lines(self) -> List[str]:
        lines = []
        for check, counts in sorted(self.counts.items()):
            status = "FAIL" if counts.failed else "ok"
            line = f"  {check:<40s} {status:>4s}  {counts.passed} passed"
            if counts.failed:
                line += f", {counts.failed} FAILED"
            if counts.skipped:
                line += f", {counts.skipped} skipped"
            lines.append(line)
        return lines


def fan_out(
    report: DiffReport,
    work: Callable[[object], dict],
    payloads: Sequence,
    jobs: int = 1,
) -> None:
    """Fold ``work(payload)``, a serialised partial report, into
    ``report`` for each payload in order, serially or across ``jobs``
    worker processes: the merge order, and so the report, are the same
    for every ``jobs``."""
    with ExitStack() as stack:
        if jobs <= 1 or len(payloads) <= 1:
            partials = map(work, payloads)
        else:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=jobs, mp_context=_pool_context())
            )
            partials = pool.map(work, payloads, chunksize=1)
        for partial in partials:
            report.merge_json(partial)
