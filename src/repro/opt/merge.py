"""Adjacent-access merging — the paper's Merge lemmas as one pass.

The Coq artifact's ``Merge.v`` proves four peephole merges correct under
PS2.1, each with an access-mode side condition:

* **RaR** — ``r1 := x_o; r2 := x_o'`` keeps the first read and turns the
  second into ``r2 := r1`` when ``o' ⊑ o`` (the kept read is at least as
  strong; an acquire is never simulated by a weaker read);
* **RaW** (store-to-load forwarding) — ``x_o := e; r := x_o'`` turns the
  read into ``r := e`` when ``o' ⊑ rlx`` (never an acquire: forwarding
  skips the view join the acquire would perform);
* **WaW** — ``x_o := e1; x_o' := e2`` drops the first write when
  ``o ⊑ o'`` (the survivor offers every synchronization the dropped
  write did);
* **fence** — an adjacent fence is absorbed by a neighbor of kind ``⊒``
  it (``rel ⊑ sc``, ``acq ⊑ sc``, equal kinds; ``rel``/``acq`` are
  incomparable).

All structural merges are *adjacent* — that is what lets the crossing
oracle re-verify each one locally (:func:`repro.static.crossing.
explain_merges`) and what the lemmas license.  Non-atomic forwarding is
additionally performed at a distance when the stored-value availability
fact ``("stval", x, e)`` of :mod:`repro.analysis.availexpr` proves the
thread's own message still covers the read; eliminating a *plain* read
needs no structural explanation (it is not an atomic event), and the
Owicki–Gries checker discharges the rewrite from the same fact
(``store-forward`` obligation).

The WaW scan is :func:`repro.opt.base.find_overwriting_store` with
``adjacent_only=True`` — shared with LocalDSE so the two passes cannot
drift on the mode side conditions.

The pass rewrites strictly in place (``skip`` / register move / stored
expression), so block shapes are stable and both the crossing oracle's
label matching and the per-offset Owicki–Gries alignment apply; it
declares ``I_merge`` and certifies as tier 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.analysis.availexpr import AvailFacts, available_analysis, stored_value
from repro.lang.syntax import (
    AccessMode,
    Assign,
    BasicBlock,
    CodeHeap,
    Fence,
    Instr,
    Load,
    Program,
    Reg,
    Skip,
    Store,
)
from repro.opt.base import Optimizer, find_overwriting_store
from repro.static.crossing import (
    CrossingProfile,
    fence_absorbs,
    read_mode_absorbs,
)


@dataclass(frozen=True)
class Merge(Optimizer):
    """RaR / RaW / WaW / fence merging under the Merge-lemma side
    conditions."""

    name: str = "merge"
    #: In-place adjacent merging justified by ``I_merge``: the crossing
    #: oracle re-verifies every merge shape and mode side condition.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="merge", may_merge_accesses=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        heap = program.function(func)
        avail = available_analysis(program, func, True)
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in heap.blocks:
            merged = _merge_block(block, avail.before_instructions(label))
            new_blocks.append((label, merged))
        return CodeHeap(tuple(new_blocks), heap.entry)


def _merge_block(block: BasicBlock, before: List[AvailFacts]) -> BasicBlock:
    instrs: List[Instr] = list(block.instrs)
    n = len(instrs)

    # Phase 1 — backward absorption: the *earlier* instruction of an
    # adjacent pair is dropped, kept alive by its successor (WaW
    # overwrites; a fence absorbed by the next fence).  Right-to-left so
    # chains (``x:=1; x:=2; x:=3``) compose link by link.
    for i in range(n - 2, -1, -1):
        s, nxt = block.instrs[i], block.instrs[i + 1]
        if isinstance(s, Store):
            if find_overwriting_store(block, i, adjacent_only=True) is not None:
                instrs[i] = Skip()
        elif isinstance(s, Fence) and isinstance(nxt, Fence):
            if fence_absorbs(nxt.kind, s.kind):
                instrs[i] = Skip()

    # Phase 2 — forward absorption: the *later* instruction is dropped
    # or becomes a value move, kept alive by its predecessor (RaR
    # re-reads, RaW forwarding, a fence absorbed by the previous fence).
    # ``fwd_load`` tracks loads already rewritten this phase: their
    # destination still holds the location's value, so RaR chains
    # through them; fences chain only through forward absorptions.
    fwd_load: Set[int] = set()
    fwd_fence: Set[int] = set()
    for i in range(1, n):
        if not isinstance(block.instrs[i], Skip) and isinstance(instrs[i], Skip):
            continue  # already absorbed backward
        s, prev = block.instrs[i], block.instrs[i - 1]
        prev_intact = instrs[i - 1] == prev
        if isinstance(s, Load):
            if (
                isinstance(prev, Load)
                and prev.loc == s.loc
                and read_mode_absorbs(prev.mode, s.mode)
                and (prev_intact or (i - 1) in fwd_load)
            ):
                # RaR: the previous read (or its rewrite) holds the value.
                instrs[i] = (
                    Skip() if s.dst == prev.dst else Assign(s.dst, Reg(prev.dst))
                )
                fwd_load.add(i)
            elif (
                isinstance(prev, Store)
                and prev.loc == s.loc
                and s.mode is not AccessMode.ACQ
                and prev_intact
            ):
                # RaW: adjacent store-to-load forwarding.
                instrs[i] = Assign(s.dst, prev.expr)
                fwd_load.add(i)
            elif s.mode is AccessMode.NA:
                # Non-adjacent plain forwarding from the stored-value
                # fact (sound without a structural explanation: a plain
                # read is not an atomic event, and the OG checker
                # re-derives the fact to discharge the rewrite).
                stored = stored_value(before[i], s.loc)
                if stored is not None:
                    instrs[i] = Assign(s.dst, stored)
                    fwd_load.add(i)
        elif isinstance(s, Fence) and isinstance(prev, Fence):
            if fence_absorbs(prev.kind, s.kind) and (
                prev_intact or (i - 1) in fwd_fence
            ):
                instrs[i] = Skip()
                fwd_fence.add(i)
    return BasicBlock(tuple(instrs), block.term)
