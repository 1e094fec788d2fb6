"""Common subexpression / redundant read elimination (paper Sec. 7.2).

CSE consumes the availability analysis of
:mod:`repro.analysis.availexpr` — whose kill rules encode exactly the
paper's crossing discipline (acquire reads kill, relaxed accesses and
release writes don't) — and rewrites:

* ``r := x.na``  →  ``r := r'``  when ``r'`` is known to hold a
  still-readable value of ``x`` (redundant read elimination);
* ``r := e``     →  ``r := r'``  when ``r'`` is known to equal the pure
  expression ``e`` (classic CSE on register computations).

Together with LInv this yields LICM; standalone it eliminates same-block
and cross-block repeated reads, e.g. ``r1 := a.na; r2 := a.na`` becomes
``r1 := a.na; r2 := r1``.  Eliminating a read can remove a read-write race
present in the source — that is fine, refinement only forbids *new*
behaviors — and is precisely why sources must be allowed to carry rw-races
(paper Sec. 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.availexpr import (
    AvailFacts,
    available_analysis,
    lookup_expr,
    lookup_load,
)
from repro.lang.syntax import (
    AccessMode,
    Assign,
    BasicBlock,
    BinOp,
    CodeHeap,
    Instr,
    Load,
    Program,
    Reg,
    Skip,
)
from repro.opt.base import Optimizer
from repro.static.absint.engine import FixpointResult
from repro.static.crossing import CrossingProfile


@dataclass(frozen=True)
class CSE(Optimizer):
    """The common subexpression elimination pass.

    ``acquire_kills=False`` selects the deliberately unsound variant that
    crosses acquire reads (used only to reconstruct the paper's Fig. 1
    counterexample; never use it as a real pass).
    """

    name: str = "cse"
    acquire_kills: bool = True
    #: Redundant-read elimination under the acquire-kill discipline —
    #: memory is untouched, so ``I_id`` justifies it.  The certifier
    #: re-derives every elimination from the (always acquire-killing)
    #: availability analysis, so the ``acquire_kills=False`` variant is
    #: inconclusive exactly where it is unsound.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="id", may_eliminate_reads=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        heap = program.function(func)
        avail = available_analysis(program, func, self.acquire_kills)
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in heap.blocks:
            new_blocks.append((label, self._transform_block(label, block, avail)))
        return CodeHeap(tuple(new_blocks), heap.entry)

    def _transform_block(
        self, label: str, block: BasicBlock, avail: FixpointResult[AvailFacts]
    ) -> BasicBlock:
        facts = avail.before_instructions(label)
        new_instrs: List[Instr] = []
        for instr, before in zip(block.instrs, facts):
            new_instrs.append(self._transform_instr(instr, before))
        return BasicBlock(tuple(new_instrs), block.term)

    def _transform_instr(self, instr: Instr, before: AvailFacts) -> Instr:
        if isinstance(instr, Load) and instr.mode is AccessMode.NA:
            if before is not None and ("load", instr.dst, instr.loc) in before:
                # dst already holds a readable value of the location:
                # re-reading into the same register is a no-op.
                return Skip()
            holder = lookup_load(before, instr.loc, exclude=instr.dst)
            if holder is not None:
                return Assign(instr.dst, Reg(holder))
            return instr
        if isinstance(instr, Assign) and isinstance(instr.expr, BinOp):
            holder = lookup_expr(before, instr.expr, exclude=instr.dst)
            if holder is not None:
                return Assign(instr.dst, Reg(holder))
            return instr
        return instr
