"""Pre-decode plans for the fast-path interpreter.

A :class:`FunctionPlan` is everything the interpreter needs to turn a
flat instruction body into a direct-threaded handler table *before*
execution starts:

* ``matches`` — the block/loop/if → end/else resolution
  (:func:`match_control`, which the ``legacy`` tier calls directly);
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

What a loop handler relies on (checked structurally here):

1. a nest holds no call, ``call_indirect``, ``br_table``, ``return`` or
   ``memory.grow``, so no reentrancy can observe its locals or the
   operand stack it keeps in Python expressions, and linear memory
   cannot resize while its handler runs;
2. every branch in it targets a label opened at or inside its own
   ``block``, so control enters the nest only at its head and leaves
   it only past its ``end``;
3. its constructs carry no results, and it is at most
   :data:`MAX_NEST_DEPTH` labels deep, so each maps onto Python control
   flow inside one function.

Within these rules every pc of a nest is counted as often as tier-1
dispatch would run it (its ``block`` by dispatch, the rest by the
handler), and where an op may trap the handler records how far its
straight-line segment got, so a trap leaves tier-1's exact counts.
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

#: Binary operators guaranteed not to trap.
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

#: Unary operators guaranteed not to trap.
NONTRAP_UNOPS = UNOP_NAMES - TRAPPING_UNOPS

CONST_NAMES = frozenset(("i32.const", "i64.const", "f32.const", "f64.const"))
LOAD_NAMES = frozenset(
    info.name for info in opcodes.BY_NAME.values() if info.category == "load"
)
STORE_NAMES = frozenset(
    info.name for info in opcodes.BY_NAME.values() if info.category == "store"
)


# ----------------------------------------------------------------------
# Loop nests
# ----------------------------------------------------------------------
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

#: Ops a loop nest may hold besides ``nop``, structured control without
#: results and branches to its own labels: pure ops, memory accesses
#: and the numeric ops that may trap.
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
    is the block's ``end`` and ``end - 1`` the loop's.
    """

    head: int
    end: int


@dataclass
class FunctionPlan:
    """Pre-decode result for one function body."""

    #: opener pc -> (end_pc, else_pc); else pc -> end_pc.
    matches: Dict[int, Any] = field(default_factory=dict)
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


def find_nests(body: Sequence[Instr], matches: Dict[int, Any]) -> List[LoopNest]:
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
        nests.append(LoopNest(pc, end))
        pc = end + 1
    return nests


def plan_function(body: Sequence[Instr]) -> FunctionPlan:
    """Pre-decode one function body."""
    matches = match_control(body)
    return FunctionPlan(matches=matches, loops=find_nests(body, matches))


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
