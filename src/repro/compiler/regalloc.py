"""Linear-scan spill estimation.

A real allocator assigns physical registers; for costing we only need
to know *how many spill/reload operations land in which block*.  The
estimator linearises the function, computes live intervals per virtual
register, and runs a linear scan with the ISA's register counts scaled
by the runtime's allocator quality (LLVM ≈ 1.0; simpler allocators
waste some registers on suboptimal splits).

Victim selection mirrors what production allocators achieve:

* constants are never allocated across ranges — they rematerialise;
* on overflow, the active interval whose uses sit at the *shallowest*
  loop depth is spilled (spill cost is weighted by use frequency), so
  loop-carried and hoisted-invariant values stay in registers as long
  as anything colder is available;
* a spill charges one store at the definition and one reload per
  remaining use, attributed to the blocks where they would be emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compiler.ir import IRFunction
from repro.isa.model import IsaModel

_FLOAT_TYPES = ("f32", "f64")


@dataclass(frozen=True)
class SpillReport:
    """Spill ops charged per block, plus totals for reporting."""

    per_block: Dict[int, int]
    spilled_regs: int

    @property
    def total_ops(self) -> int:
        return sum(self.per_block.values())


def estimate_spills(irf: IRFunction, isa: IsaModel, quality: float) -> SpillReport:
    def_pos: Dict[int, int] = {}
    last_use: Dict[int, int] = {}
    is_float: Dict[int, bool] = {}
    is_const: Dict[int, bool] = {}
    uses: Dict[int, List[int]] = {}
    use_depth: Dict[int, int] = {}
    pos_block: Dict[int, int] = {}

    pos = 0
    for block in irf.blocks:
        depth = block.loop_depth
        for ins in block.instrs:
            pos_block[pos] = block.id
            for src in ins.srcs:
                last_use[src] = pos
                uses.setdefault(src, []).append(pos)
                use_depth[src] = max(use_depth.get(src, 0), depth)
            if ins.dest is not None and ins.dest not in def_pos:
                def_pos[ins.dest] = pos
                is_float[ins.dest] = ins.valtype in _FLOAT_TYPES
                is_const[ins.dest] = ins.op == "const"
            pos += 1

    for param in range(irf.num_params):
        def_pos.setdefault(param, 0)
        is_float.setdefault(param, False)

    per_block: Dict[int, int] = {}
    spilled = 0
    for float_class in (False, True):
        budget = isa.float_regs if float_class else isa.int_regs
        budget = max(2, round(budget * quality))
        intervals = sorted(
            (def_pos[reg], last_use[reg], reg)
            for reg in def_pos
            if is_float.get(reg, False) == float_class
            and not is_const.get(reg, False)  # constants rematerialise
            and reg in last_use
            and last_use[reg] > def_pos[reg]
        )
        active: List[Tuple[int, int]] = []  # (end, reg)
        for start, end, reg in intervals:
            active = [item for item in active if item[0] > start]
            active.append((end, reg))
            if len(active) <= budget:
                continue
            # Spill the coldest interval: shallowest max use depth,
            # tie-break on the furthest end.
            victim_index = min(
                range(len(active)),
                key=lambda idx: (use_depth.get(active[idx][1], 0), -active[idx][0]),
            )
            _, victim = active.pop(victim_index)
            spilled += 1
            victim_def = def_pos[victim]
            store_block = pos_block.get(victim_def, 0)
            per_block[store_block] = per_block.get(store_block, 0) + 1
            for use in uses.get(victim, []):
                if use > start:
                    block_id = pos_block.get(use, 0)
                    per_block[block_id] = per_block.get(block_id, 0) + 1
    return SpillReport(per_block=per_block, spilled_regs=spilled)
