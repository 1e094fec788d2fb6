"""Dead code elimination (paper Sec. 7.1).

.. code-block:: text

    DCE(π_s, ι) ≜ Translate_rdce(π_s, A_l)   where A_l = Lv_Analyzer(π_s)

``Lv_Analyzer`` is the liveness analysis of
:mod:`repro.analysis.liveness`, which bakes in the release-write barrier
("no variable is dead before a release write") that makes the Fig. 15
counterexample impossible.  ``Translate_rdce`` applies the paper's
single-instruction transformation ``TransI_d``: an instruction is replaced
by ``skip`` when it writes a non-atomic location or a register that is
dead after it; everything else is kept.  Replacing (rather than deleting)
keeps block shapes stable, which simplifies both the simulation argument
(the paper's lockstep diagrams in Fig. 16) and our structural checkers; a
separate cleanup pass could drop the skips.

DCE eliminates three shapes of dead code:

* ``x.na := e`` with ``x`` dead — a dead *memory* write (the paper's
  headline case, requiring the timestamp-gap invariant ``I_dce``);
* ``r := e`` with ``r`` dead — a dead register computation;
* ``r := x.na`` with ``r`` dead — a dead non-atomic load.

Atomic accesses are never eliminated (the paper does not optimize atomics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.liveness import LiveSet, liveness_analysis
from repro.lang.syntax import (
    AccessMode,
    Assign,
    BasicBlock,
    CodeHeap,
    Instr,
    Load,
    Program,
    Skip,
    Store,
)
from repro.opt.base import Optimizer
from repro.static.absint.engine import FixpointResult
from repro.static.crossing import CrossingProfile


def instruction_is_dead(instr: Instr, live_after: LiveSet) -> bool:
    """The paper's ``TransI_d`` test: does ``instr`` only produce a value
    nothing ever uses?"""
    if isinstance(instr, Store) and instr.mode is AccessMode.NA:
        return instr.loc not in live_after.locs
    if isinstance(instr, Assign):
        return instr.dst not in live_after.regs
    if isinstance(instr, Load) and instr.mode is AccessMode.NA:
        return instr.dst not in live_after.regs
    return False


@dataclass(frozen=True)
class DCE(Optimizer):
    """The dead code elimination pass."""

    name: str = "dce"
    #: Dead-store/-load elimination under the release-barrier liveness —
    #: verified with ``I_dce`` (the timestamp-gap invariant); the
    #: certifier re-justifies every elimination from the liveness facts.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="dce", may_eliminate_reads=True, may_eliminate_writes=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        return eliminate_dead_code(liveness_analysis(program, func))


def eliminate_dead_code(liveness: FixpointResult[LiveSet]) -> CodeHeap:
    """``Translate_rdce``: replace every instruction that is dead under
    the solved ``liveness`` by ``skip``."""
    heap = liveness.heap
    new_blocks: List[Tuple[str, BasicBlock]] = []
    for label, block in heap.blocks:
        live_after = liveness.before_instructions(label)[1:]
        new_instrs = tuple(
            Skip() if instruction_is_dead(instr, live) else instr
            for instr, live in zip(block.instrs, live_after)
        )
        new_blocks.append((label, BasicBlock(new_instrs, block.term)))
    return CodeHeap(tuple(new_blocks), heap.entry)
