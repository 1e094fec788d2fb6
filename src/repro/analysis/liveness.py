"""Liveness analysis with the paper's release-write barrier (Sec. 7.1).

``Lv_Analyzer`` computes, at every program point, which registers and
non-atomic locations may still be *used* — DCE eliminates writes to dead
ones.  The weak-memory twist, and the heart of the paper's Fig. 15
discussion, is the barrier rule:

    **no non-atomic location is dead before a release write** (nor before a
    release/SC fence, nor a CAS with a release write part).

A release write synchronizes with other threads' acquire reads and
guarantees them visibility of everything written before it; a write that
looks dead thread-locally may therefore be observed through the release.
Relaxed accesses and acquire *reads* provide no such guarantee to other
threads, so DCE may cross them freely (paper Sec. 7.1, last paragraph).

Registers are thread-private, so no barrier ever applies to them.

**These are DCE facts, not semantic liveness.**  A register that feeds
only a dead non-atomic store (or a dead load's destination) counts as
dead here, because DCE deletes that store.  The unoptimized program still
executes the store and writes the register's value to memory, so these
facts must never be used to discard machine state: dropping such a
register from a state changes what the store writes.  The explorer's
state normalization uses its own semantic liveness
(:meth:`repro.semantics.dpor.FootprintIndex.normalize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.lang.syntax import (
    AccessMode,
    Assign,
    Be,
    Call,
    Cas,
    Fence,
    FenceKind,
    Instr,
    Jmp,
    Load,
    Print,
    Program,
    Return,
    Skip,
    Store,
    Terminator,
    expr_regs,
    program_registers,
)
from repro.static.absint.domain import Direction, Domain
from repro.static.absint.engine import FixpointResult, solve


@dataclass(frozen=True)
class LiveSet:
    """Live registers and live non-atomic locations at a program point."""

    regs: FrozenSet[str] = frozenset()
    locs: FrozenSet[str] = frozenset()

    def join(self, other: "LiveSet") -> "LiveSet":
        """Pointwise union of both components."""
        return LiveSet(self.regs | other.regs, self.locs | other.locs)

    def with_regs(
        self,
        add: FrozenSet[str] = frozenset(),
        kill: FrozenSet[str] = frozenset(),
    ) -> "LiveSet":
        """A copy with registers killed then added (locations untouched)."""
        return LiveSet((self.regs - kill) | add, self.locs)

    def __str__(self) -> str:
        return f"regs={sorted(self.regs)}, locs={sorted(self.locs)}"


def transfer_instruction(instr: Instr, live: LiveSet, all_na_locs: FrozenSet[str]) -> LiveSet:
    """Backward transfer of one instruction (live-after → live-before)."""
    regs, locs = live.regs, live.locs
    if isinstance(instr, Skip):
        return live
    if isinstance(instr, Assign):
        if instr.dst not in regs:
            return live  # dead register computation
        return LiveSet((regs - {instr.dst}) | expr_regs(instr.expr), locs)
    if isinstance(instr, Print):
        return LiveSet(regs | expr_regs(instr.expr), locs)
    if isinstance(instr, Load):
        if instr.mode is AccessMode.NA:
            if instr.dst not in regs:
                return live  # dead non-atomic load
            return LiveSet(regs - {instr.dst}, locs | {instr.loc})
        # Atomic loads are never eliminated but kill their destination.
        return LiveSet(regs - {instr.dst}, locs)
    if isinstance(instr, Store):
        if instr.mode is AccessMode.NA:
            if instr.loc not in locs:
                return live  # dead non-atomic store
            return LiveSet(regs | expr_regs(instr.expr), locs - {instr.loc})
        if instr.mode is AccessMode.REL:
            # The release barrier: everything non-atomic becomes live.
            return LiveSet(regs | expr_regs(instr.expr), all_na_locs)
        return LiveSet(regs | expr_regs(instr.expr), locs)
    if isinstance(instr, Cas):
        uses = expr_regs(instr.expected) | expr_regs(instr.new)
        new_locs = all_na_locs if instr.mode_w is AccessMode.REL else locs
        return LiveSet((regs - {instr.dst}) | uses, new_locs)
    if isinstance(instr, Fence):
        if instr.kind in (FenceKind.REL, FenceKind.SC):
            return LiveSet(regs, all_na_locs)
        return live
    raise TypeError(f"not an instruction: {instr!r}")


def _transfer_terminator(
    term: Terminator,
    live: LiveSet,
    all_regs: FrozenSet[str],
    all_na_locs: FrozenSet[str],
    return_live: LiveSet,
) -> LiveSet:
    """Backward transfer of a terminator.

    ``call`` crosses into an unknown callee and back: everything may be
    used, so both universes become live.  ``return`` uses ``return_live``:
    the full universes when the function can itself be a call target (the
    caller's continuation may use anything), but the *empty* set when the
    function is only ever a thread entry — at thread exit no further use
    by this thread exists, and eliminating a trailing dead write only
    removes reader behaviors, which refinement permits (this matches the
    paper's Fig. 15, which starts from an empty live set at the end of the
    code).
    """
    if isinstance(term, Jmp):
        return live
    if isinstance(term, Be):
        return LiveSet(live.regs | expr_regs(term.cond), live.locs)
    if isinstance(term, Call):
        return LiveSet(all_regs, all_na_locs)
    if isinstance(term, Return):
        return return_live
    raise TypeError(f"not a terminator: {term!r}")


def _is_call_target(program: Program, func: str) -> bool:
    """Whether any block anywhere calls ``func``."""
    return any(
        isinstance(block.term, Call) and block.term.func == func
        for _, heap in program.functions
        for _, block in heap.blocks
    )


class LivenessDomain(Domain[LiveSet]):
    """``Lv_Analyzer`` as a backward domain over one function.

    The fact at a program point is the live set *before* it; the solved
    result's ``before_instructions(label)[1:]`` are the live-after facts
    DCE consults.
    """

    name = "liveness"
    direction = Direction.BACKWARD

    def __init__(self, program: Program, func: str) -> None:
        atomics = program.atomics
        self.all_regs = program_registers(program)
        self.all_na_locs = frozenset(
            loc for loc in program.locations() if loc not in atomics
        )
        if _is_call_target(program, func):
            self.return_live = LiveSet(self.all_regs, self.all_na_locs)
        else:
            self.return_live = LiveSet()

    def bottom(self) -> LiveSet:
        return LiveSet()

    def boundary(self) -> LiveSet:
        return self.return_live

    def join(self, a: LiveSet, b: LiveSet) -> LiveSet:
        return a.join(b)

    def transfer(self, instr: Instr, fact: LiveSet) -> LiveSet:
        return transfer_instruction(instr, fact, self.all_na_locs)

    def transfer_terminator(self, term: Terminator, fact: LiveSet) -> LiveSet:
        return _transfer_terminator(
            term, fact, self.all_regs, self.all_na_locs, self.return_live
        )


def liveness_analysis(program: Program, func: str) -> FixpointResult[LiveSet]:
    """Run ``Lv_Analyzer`` on one function of ``program``."""
    return solve(program.function(func), LivenessDomain(program, func))
