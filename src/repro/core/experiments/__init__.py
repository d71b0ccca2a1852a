"""Experiment harness: one module per figure of the paper's evaluation.

=========================  ==========================================
module (subcommand)        paper artefact
=========================  ==========================================
``fig1``                   Fig. 1 — per-benchmark cost of bounds
                           checking in V8 on x86-64
``fig2``                   Fig. 2a/b/c — geomean vs native Clang for
                           every runtime × strategy, per ISA
``fig3``                   Fig. 3a/b — scaling at 1/4/16 threads
``fig4``                   Fig. 4a-d — average CPU utilisation
``fig5``                   Fig. 5a/b — context switches per second
``fig6``                   Fig. 6a/b — average memory usage
``fig_bce`` (fig-bce)      extension — bounds-check elimination
                           effect on the inline-check strategies
``fig_cage`` (fig-cage)    extension — mte/wasm64 next to the paper's
                           five strategies under thread scaling
``fig_wasi`` (fig-wasi)    extension — syscall-bound WASI workloads
                           across every strategy
``replication``            §4.4 — replication of prior results
``extension_cheri``        extension (§2.3) — the projected CHERI
(cheri)                    strategy on WAVM
``extension_tiers``        extension (§2.2/§5) — translation time,
(tiers)                    code size and speed per engine tier
=========================  ==========================================

Each module declares its figure — its grid (``specs``), its rows
(``derive``), ``render``, ``STEM``, ``ISAS``/``ISA`` and ``FULL`` — and
:mod:`repro.core.experiments.common` drives them all: it parses the
flags, measures, prints, and writes ``results/<STEM>.json``.
"""
