"""Differential-correctness harness.

The paper's claims are comparative: the same benchmark must compute
the same result under every (runtime, strategy, ISA, threads)
configuration, differing only in cost.  This package asserts that
systematically, in five layers:

* :mod:`repro.diffcheck.axioms` — executable axioms pinning substrate
  layers against independently computed expectations (page-touch
  coverage, spec no-ops, statistics contracts);
* :mod:`repro.diffcheck.reference` — every registered workload through
  the reference interpreter under all bounds strategies, asserting
  bit-identical outputs, load/store counts and touched-page sets;
* :mod:`repro.diffcheck.invariants` — structural invariants over sweep
  rows (inline-check cost ordering, strategy-independent memory usage,
  monotone CPU accounting) with machine-readable violation reports;
* :mod:`repro.diffcheck.bce` — the bounds-check elimination pass
  re-measured with the pass disabled, asserting it is cost-only;
* :mod:`repro.diffcheck.fuzz` — the repo's one fuzzer: seeded
  programs (:mod:`repro.diffcheck.genome`) through the wasm module
  layer (dsl/builder → encoder → decoder → validator → interpreter, on
  every strategy and execution tier) and priced through the compiler
  cost model the figures use.

``leaps-bench diffcheck`` drives all five (:mod:`repro.diffcheck.cli`).
"""

from repro.diffcheck.report import DiffReport, Violation

__all__ = ["DiffReport", "Violation"]
