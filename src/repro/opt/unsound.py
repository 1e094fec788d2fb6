"""The unsound-transformation gallery (for negative experiments only).

The paper classifies thread-local transformations (Sec. 7.2, after
Ševčík) and identifies exactly which are sound in PS2.1.  This module
implements the *unsound* ones so that the experiments can demonstrate the
refinement failures the paper predicts:

* :class:`NaiveDCE` — dead code elimination **without** the release-write
  barrier: the incorrect ``Lv_Analyzer`` of Fig. 15's red annotation,
  which eliminates ``y := 2`` across ``x.rel := 1``;
* :class:`RedundantWriteIntroduction` — category (5) of the
  classification, "introduction of redundant writes", which the paper
  states is unsound in PS (Sec. 7.2): duplicating ``x := e`` to
  ``x := e; x := e`` puts *two* messages in memory, and another thread
  can observe intermediate states the source never produces (e.g. a
  coherence-order position between the duplicates);
* :class:`UnsoundWaWMerge` — WaW overwrite merging that scans across
  *every* intervening instruction (acquiring reads and release writes
  included), claiming the adjacent-merge ``I_merge`` profile.  Across a
  release write the elimination is genuinely unsound (a reader that
  acquires the release must see the first write's value; dropping it
  leaks a stale message), and the crossing oracle's W1 rule rejects it;
  across only an acquire read the merge explainer finds no adjacent
  shape, the dead-code rule refuses (the lying profile never declared
  write elimination), and certification stays inconclusive;
* ``naive_licm`` (in :mod:`repro.opt.licm`) — LICM across acquire reads.

None of these are exported through the top-level API as real passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.analysis.liveness import LiveSet, LivenessDomain, transfer_instruction
from repro.lang.syntax import (
    AccessMode,
    BasicBlock,
    Cas,
    CodeHeap,
    Fence,
    Instr,
    Load,
    Program,
    Skip,
    Store,
    expr_regs,
)
from repro.opt.base import Optimizer
from repro.opt.dce import eliminate_dead_code
from repro.static.absint.engine import solve
from repro.static.crossing import CrossingProfile


def _naive_transfer(
    instr: Instr, live: LiveSet, all_na_locs: FrozenSet[str]
) -> LiveSet:
    """Liveness transfer WITHOUT the release barrier — every write mode is
    treated like a relaxed one.  Everything else matches the sound
    analysis."""
    regs, locs = live.regs, live.locs
    if isinstance(instr, Store):
        if instr.mode is AccessMode.NA:
            if instr.loc not in locs:
                return live
            return LiveSet(regs | expr_regs(instr.expr), locs - {instr.loc})
        return LiveSet(regs | expr_regs(instr.expr), locs)  # no barrier!
    if isinstance(instr, Cas):
        uses = expr_regs(instr.expected) | expr_regs(instr.new)
        return LiveSet((regs - {instr.dst}) | uses, locs)  # no barrier!
    if isinstance(instr, Fence):
        return live  # no barrier!
    return transfer_instruction(instr, live, all_na_locs)


class NaiveLivenessDomain(LivenessDomain):
    """The incorrect ``Lv_Analyzer`` of Fig. 15: liveness with the
    barrier-free transfer."""

    name = "naive-liveness"

    def transfer(self, instr: Instr, fact: LiveSet) -> LiveSet:
        return _naive_transfer(instr, fact, self.all_na_locs)


@dataclass(frozen=True)
class NaiveDCE(Optimizer):
    """DCE with the barrier-free liveness — reproduces Fig. 15's incorrect
    elimination.  Unsound in PS2.1; negative experiments only."""

    name: str = "naive-dce"
    #: A deliberately *lying* claim (the pass pretends to be the sound
    #: DCE).  The certifier must still refuse: it re-derives liveness
    #: with the release barrier, so Fig. 15-style eliminations are
    #: inconclusive, never CERTIFIED — the negative control of the
    #: soundness-mirror tests.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="dce", may_eliminate_reads=True, may_eliminate_writes=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        return eliminate_dead_code(
            solve(program.function(func), NaiveLivenessDomain(program, func))
        )


@dataclass(frozen=True)
class RedundantWriteIntroduction(Optimizer):
    """Write back every non-atomically loaded value:
    ``r := x.na``  ↦  ``r := x.na; x.na := r`` — category (5),
    "introduction of redundant writes", which the paper's simulation
    deliberately cannot verify (Sec. 7.2).

    The written-back *value* already exists in memory, so naive reasoning
    calls the write redundant; but the target now writes a location the
    source never wrote, which destroys preservation of write-write race
    freedom: compose the thread with any other writer of ``x`` and the
    target races where the source was race-free.  This is exactly the
    property the delayed write set ``D`` enforces (every target write must
    have a source counterpart) — the mechanism by which the paper's
    framework rules out category (5)."""

    name: str = "redundant-write-intro"
    #: Another lying claim ("I only introduce reads") — the oracle's W2
    #: rule flags the introduced stores regardless, so certification
    #: cannot succeed on any program the pass actually changes.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="id", may_introduce_reads=True, may_restructure_cfg=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        heap = program.function(func)
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in heap.blocks:
            instrs: List[Instr] = []
            for instr in block.instrs:
                instrs.append(instr)
                if isinstance(instr, Load) and instr.mode is AccessMode.NA:
                    from repro.lang.syntax import Reg

                    instrs.append(Store(instr.loc, Reg(instr.dst), AccessMode.NA))
            new_blocks.append((label, BasicBlock(tuple(instrs), block.term)))
        return CodeHeap(tuple(new_blocks), heap.entry)


@dataclass(frozen=True)
class UnsoundWaWMerge(Optimizer):
    """WaW merging with no barrier discipline: a store is dropped
    whenever a later same-block store overwrites the location before any
    same-location read — scanning straight across acquiring reads and
    release writes, where the sound merge (and LocalDSE's shared scan,
    :func:`repro.opt.base.find_overwriting_store`) must stop.

    Across a release this breaks refinement outright: in a
    message-passing shape ``a := 1; x.rel := 1; a := 2`` the reader that
    acquires ``x = 1`` is entitled to see ``a ∈ {1, 2}``, but after the
    merge it can read the stale initial value.  Negative control for the
    merge family's certification tests."""

    name: str = "unsound-waw-merge"
    #: A deliberately *lying* claim: the profile says "adjacent merges
    #: only" (``I_merge``), but the eliminations are not adjacent.  The
    #: certifier must refuse every one — the merge explainer finds no
    #: adjacent shape, so release-crossing eliminations hit the W1 rule
    #: and the rest land on an undischargeable dead-code obligation.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="merge", may_merge_accesses=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        heap = program.function(func)
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in heap.blocks:
            instrs: List[Instr] = list(block.instrs)
            for index, instr in enumerate(block.instrs):
                if not isinstance(instr, Store):
                    continue
                for later in block.instrs[index + 1:]:
                    if isinstance(later, (Load, Cas)) and later.loc == instr.loc:
                        break
                    if isinstance(later, Store) and later.loc == instr.loc:
                        instrs[index] = Skip()  # merged across anything between
                        break
            new_blocks.append((label, BasicBlock(tuple(instrs), block.term)))
        return CodeHeap(tuple(new_blocks), heap.entry)
