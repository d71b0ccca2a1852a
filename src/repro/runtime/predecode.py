"""Pre-decode plans for the fast-path interpreter.

A :class:`FunctionPlan` is everything the interpreter needs to turn a
flat instruction body into a direct-threaded handler table *before*
execution starts:

* ``matches`` — the block/loop/if → end/else resolution
  (:func:`match_control`, which the ``legacy`` tier calls directly);
* ``targets`` — every pc that can be entered non-sequentially (branch
  landing sites); fusion must never swallow one of these;
* ``regions`` — the superinstruction schedule: non-overlapping runs of
  instructions that one fused handler executes in a single dispatch;
* ``loops`` — the outermost call-free loop nests (:func:`find_nests`),
  each of which one *loop handler* runs from entry to exit in a single
  dispatch.

Plans are pure data (deterministic functions of the body), built in
memory once per interpreter at module load; the ``legacy`` tier builds
none.

:func:`interpreter_build_digest` hashes every module of
``repro.runtime`` (:func:`interpreter_sources`), in sorted order.
Measurement cache keys embed it, and ``leaps-bench diffcheck --json``
embeds it so an equivalence report is attributable to an exact
interpreter build.

Fusion safety rules (checked structurally here, relied on by the
interpreter's handlers):

1. no interior pc of a region is a jump target;
2. only the *last* instruction of a region may trap — so the
   per-pc execution counts of the interior pcs always equal the head
   pc's count and can be reconstructed exactly at profile time;
3. regions contain no calls, so no reentrancy can observe the
   (elided) transient stack states.

A loop handler keeps these rules: it counts each region (and each
unfused pc) of the nest exactly as often as tier-1 dispatch would, so
the same reconstruction applies to it.  A nest holds no call,
``call_indirect``, ``br_table``, ``return`` or ``memory.grow``, so no
reentrancy can observe its locals and linear memory cannot resize
while its handler runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.wasm import opcodes
from repro.wasm.instructions import Instr

# ----------------------------------------------------------------------
# Operator classes (derived from the one opcode table)
# ----------------------------------------------------------------------
#: Two-operand numeric operators (the interpreter's _BINOPS domain).
BINOP_NAMES = frozenset(
    info.name
    for info in opcodes.BY_NAME.values()
    if info.category in ("arith", "compare") and len(info.params) == 2
)

#: Binary operators that can raise a Trap (divide/remainder family).
TRAPPING_BINOPS = frozenset(
    name for name in BINOP_NAMES if ".div_" in name or ".rem_" in name
)

#: Binary operators guaranteed not to trap (safe mid-region).
NONTRAP_BINOPS = BINOP_NAMES - TRAPPING_BINOPS

#: Two-operand comparisons (always produce i32, never trap).
CMP_NAMES = frozenset(
    info.name
    for info in opcodes.BY_NAME.values()
    if info.category == "compare" and len(info.params) == 2
)

#: One-operand numeric operators (the interpreter's _UNOPS domain).
UNOP_NAMES = frozenset(
    info.name
    for info in opcodes.BY_NAME.values()
    if info.category in ("arith", "compare", "convert") and len(info.params) == 1
)

#: Unary operators that can raise a Trap (float->int truncations).
TRAPPING_UNOPS = frozenset(name for name in UNOP_NAMES if ".trunc_f" in name)

#: Unary operators guaranteed not to trap (safe mid-region).
NONTRAP_UNOPS = UNOP_NAMES - TRAPPING_UNOPS

CONST_NAMES = frozenset(("i32.const", "i64.const", "f32.const", "f64.const"))
LOAD_NAMES = frozenset(
    info.name for info in opcodes.BY_NAME.values() if info.category == "load"
)
STORE_NAMES = frozenset(
    info.name for info in opcodes.BY_NAME.values() if info.category == "store"
)


# ----------------------------------------------------------------------
# Superinstruction regions
# ----------------------------------------------------------------------
# A fusable region is a maximal straight-line run of *pure stack ops*
# (locals, constants, non-trapping numerics, drop/select), optionally
# headed by a ``loop`` (its label push is part of the superinstruction)
# and optionally closed by exactly one *terminator*: a memory access,
# a trapping numeric op, or a branch (br / br_if / return).  Keeping
# every trap- or exit-capable op at the very end is what makes the
# per-pc count reconstruction in ``take_profile`` exact.
#
# The interpreter compiles each region to one Python function via
# symbolic stack evaluation (see ``interpreter._gen_region``), so a
# whole PolyBench inner-loop statement collapses into a single
# dispatch.  A loop nest of the shape :func:`find_nests` accepts goes
# one step further: ``interpreter._gen_nest`` runs all of it, every
# region and inner loop included, in a single dispatch.

#: Pure ops: no traps, no control transfer, no memory side effects.
SAFE_OPS = (
    frozenset(
        (
            "local.get",
            "local.set",
            "local.tee",
            "drop",
            "select",
        )
    )
    | CONST_NAMES
    | NONTRAP_BINOPS
    | NONTRAP_UNOPS
)

#: Ops that may end a region (trap-capable or control-exiting).
TERMINATOR_OPS = (
    LOAD_NAMES
    | STORE_NAMES
    | TRAPPING_BINOPS
    | TRAPPING_UNOPS
    | frozenset(("br", "br_if", "return"))
)


@dataclass(frozen=True)
class FusedRegion:
    """One superinstruction: ``length`` body pcs starting at ``head``."""

    head: int
    length: int

    @property
    def tail_pcs(self) -> range:
        return range(self.head + 1, self.head + self.length)


#: Ops a loop nest may hold besides ``nop``, structured control without
#: results and branches to its own labels: everything a fused region
#: may hold except branches.
LOOP_BODY_OPS = (
    SAFE_OPS | LOAD_NAMES | STORE_NAMES | TRAPPING_BINOPS | TRAPPING_UNOPS
)

#: Deepest label nesting a loop nest may have, its own ``block`` and
#: ``loop`` included.  Each label costs the generated handler at most
#: one statically nested Python block, CPython allows 20, and the
#: handler's ``try`` statement takes two.
MAX_NEST_DEPTH = 18


@dataclass(frozen=True)
class LoopNest:
    """One call-free loop nest that a single loop handler runs.

    ``head`` is the ``block`` pc and ``head + 1`` its ``loop``; ``end``
    is the block's ``end`` and ``end - 1`` the loop's.  ``regions`` are
    the fusion regions inside; each of them, and each pc between
    ``head`` and ``end`` outside them, is one tier-1 dispatch unit.
    """

    head: int
    end: int
    regions: Tuple[FusedRegion, ...]


@dataclass
class FunctionPlan:
    """Pre-decode result for one function body."""

    #: opener pc -> (end_pc, else_pc); else pc -> end_pc.
    matches: Dict[int, Any] = field(default_factory=dict)
    #: pcs reachable non-sequentially (branch landing sites).
    targets: frozenset = frozenset()
    #: non-overlapping fusion regions, ordered by head pc.
    regions: List[FusedRegion] = field(default_factory=list)
    #: outermost loop nests a loop handler runs, ordered by head pc.
    loops: List[LoopNest] = field(default_factory=list)


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
def match_control(body: Sequence[Instr]) -> Dict[int, Any]:
    """Map each block/loop/if pc to (end_pc, else_pc); else pc to end_pc."""
    matches: Dict[int, Any] = {}
    stack: List[Tuple[int, Optional[int]]] = []
    for pc, ins in enumerate(body):
        op = ins.op
        if op in ("block", "loop", "if"):
            stack.append((pc, None))
        elif op == "else":
            opener, _ = stack.pop()
            stack.append((opener, pc))
        elif op == "end":
            opener, else_pc = stack.pop()
            matches[opener] = (pc, else_pc)
            if else_pc is not None:
                matches[else_pc] = pc
    return matches


def jump_targets(body: Sequence[Instr], matches: Dict[int, Any]) -> frozenset:
    """Every pc execution can reach other than by falling through.

    Conservative superset: for each structured opener this includes the
    end, the slot after the end, the loop header itself and both else
    landing sites — cheap to compute and safe for fusion (a region may
    *start* at a target, never contain one).
    """
    targets = set()
    for pc, ins in enumerate(body):
        op = ins.op
        if op in ("block", "loop", "if"):
            end_pc, else_pc = matches[pc]
            targets.add(end_pc)
            targets.add(end_pc + 1)
            if op == "loop":
                targets.add(pc)
            if else_pc is not None:
                targets.add(else_pc)
                targets.add(else_pc + 1)
    return frozenset(targets)


def find_regions(
    body: Sequence[Instr], targets: frozenset
) -> List[FusedRegion]:
    """Maximal-straight-line superinstruction schedule for one body.

    Scans left to right; at each pc tries to grow the longest run of
    SAFE_OPS (optionally loop-headed, optionally terminator-closed)
    whose interior never lands on a jump target.  Runs shorter than
    two instructions gain nothing and are left unfused.
    """
    regions: List[FusedRegion] = []
    ops = [ins.op for ins in body]
    n = len(ops)
    pc = 0
    while pc < n:
        i = pc
        if ops[i] == "loop":
            i += 1
        while i < n and ops[i] in SAFE_OPS and (i == pc or i not in targets):
            i += 1
        if (
            i < n
            and i > pc
            and i not in targets
            and ops[i] in TERMINATOR_OPS
        ):
            i += 1
        if ops[pc] == "loop" and i == pc + 1:
            i = pc  # a bare loop opener fuses with nothing
        if i - pc >= 2:
            regions.append(FusedRegion(pc, i - pc))
            pc = i
        else:
            pc += 1
    return regions


def _nest_end(body: Sequence[Instr], matches: Dict[int, Any], pc: int) -> Optional[int]:
    """The ``end`` of the loop nest headed at ``pc``, or None if none is.

    The head is a ``block`` whose next op is a ``loop``, both without
    results, with adjacent ``end``s.  Between them the nest holds only
    :data:`LOOP_BODY_OPS`, ``nop``, ``block``/``loop``/``if``/``else``/
    ``end`` without results, and ``br``/``br_if`` to a label opened at
    or inside the head ``block``, at most :data:`MAX_NEST_DEPTH` labels
    deep.
    """
    block, loop = body[pc], body[pc + 1]
    if (
        block.op != "block"
        or loop.op != "loop"
        or block.args[0] is not None
        or loop.args[0] is not None
    ):
        return None
    end = matches[pc][0]
    if matches[pc + 1][0] != end - 1:
        return None
    depth = 2
    for ins in body[pc + 2 : end - 1]:
        op = ins.op
        if op in ("block", "loop", "if"):
            depth += 1
            if ins.args[0] is not None or depth > MAX_NEST_DEPTH:
                return None
        elif op == "end":
            depth -= 1
        elif op in ("br", "br_if"):
            if ins.args[0] >= depth:
                return None
        elif op not in LOOP_BODY_OPS and op not in ("else", "nop"):
            return None
    return end


def find_nests(
    body: Sequence[Instr],
    matches: Dict[int, Any],
    regions: Sequence[FusedRegion],
) -> List[LoopNest]:
    """Every outermost loop nest a loop handler runs (see :func:`_nest_end`).

    A ``block`` + ``loop`` pair outside the shape stays on tier-1
    dispatch, and the pairs inside it are tried in turn.
    """
    nests: List[LoopNest] = []
    pc = 0
    while pc < len(body) - 1:
        end = _nest_end(body, matches, pc)
        if end is None:
            pc += 1
            continue
        inner = tuple(r for r in regions if pc < r.head < end)
        nests.append(LoopNest(pc, end, inner))
        pc = end + 1
    return nests


def plan_function(body: Sequence[Instr]) -> FunctionPlan:
    """Pre-decode one function body."""
    matches = match_control(body)
    targets = jump_targets(body, matches)
    regions = find_regions(body, targets)
    loops = find_nests(body, matches, regions)
    return FunctionPlan(
        matches=matches, targets=targets, regions=regions, loops=loops
    )


def plans_for_module(module) -> Dict[int, FunctionPlan]:
    """Pre-decode every defined function body of ``module``.

    Keys are positions in ``module.funcs`` (defined-function space).
    """
    return {
        index: plan_function(func.body)
        for index, func in enumerate(module.funcs)
    }


# ----------------------------------------------------------------------
# Build digest
# ----------------------------------------------------------------------
def interpreter_sources() -> List[Path]:
    """Every module of ``repro.runtime``, in sorted order.

    Each one decides what a profile or a measurement holds: the
    interpreter's counts, the memory observables, the profile's totals
    (``profile.py``) and the WASI syscall census (``hostiface.py``,
    ``wasi.py``); a module added to the package is covered too.
    """
    return sorted(Path(__file__).parent.glob("*.py"))


@lru_cache(maxsize=1)
def interpreter_build_digest() -> str:
    """SHA-256 over :func:`interpreter_sources`.

    Identifies the exact interpreter build a run used; embedded in
    measurement cache keys and diffcheck reports.
    """
    digest = hashlib.sha256()
    for path in interpreter_sources():
        digest.update(path.read_bytes())
    return digest.hexdigest()
