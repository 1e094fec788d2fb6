"""Unused plain read elimination (the paper's ``UnusedLoad.v``).

A non-atomic load whose destination register is dead performs no
computation the program can observe — but under weak memory, dropping a
*read* still needs care:

* only **plain** (``na``) reads are eligible.  A relaxed read picks a
  message and advances the thread's per-location view; an acquire read
  additionally joins the message view.  Either effect can change which
  messages later reads may return, so eliminating an atomic read is not
  justified by deadness alone — this pass refuses acquire-or-stronger
  (and even relaxed) reads outright, exactly as ``UnusedLoad.v`` does;
* the certification story wants **thread-modular interference
  freedom**: the pass only drops reads of locations no environment
  thread writes (:func:`repro.static.absint.domains.modref.
  environment_writes`), so the matching ``unused-read`` Owicki–Gries
  obligation (deadness + interference) always discharges and the pass
  certifies as tier 0.  Racy-but-dead reads are left to the stronger
  DCE, whose exploration-backed validation covers them.

Deadness comes from the same release-barrier liveness analysis DCE
uses, which makes ``UnusedRead ⊑ DCE`` pointwise: every read this pass
drops, DCE drops too (asserted by tests).  The pass rewrites in place
(``skip``), declares ``I_unused``, and is picked up by ``validate --opt
unused-read`` and the ``analyze`` crossing matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.liveness import liveness_analysis
from repro.lang.syntax import (
    AccessMode,
    BasicBlock,
    CodeHeap,
    Instr,
    Load,
    Program,
    Skip,
)
from repro.opt.base import Optimizer
from repro.opt.dce import instruction_is_dead
from repro.static.absint.domains.modref import environment_writes
from repro.static.crossing import CrossingProfile


@dataclass(frozen=True)
class UnusedRead(Optimizer):
    """Drop non-atomic loads of interference-free locations whose
    destination register is dead."""

    name: str = "unused-read"
    #: In-place unused-read elimination justified by ``I_unused``:
    #: deadness plus thread-modular interference freedom per dropped
    #: read; acquire-or-stronger reads are never eligible.
    crossing_profile: CrossingProfile = CrossingProfile(
        invariant="unused", may_eliminate_unused_reads=True
    )

    def run_function(self, program: Program, func: str) -> CodeHeap:
        heap = program.function(func)
        live = liveness_analysis(program, func)
        env_writes = environment_writes(program, func)
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in heap.blocks:
            live_after = live.before_instructions(label)[1:]
            instrs: List[Instr] = []
            for index, instr in enumerate(block.instrs):
                if (
                    isinstance(instr, Load)
                    and instr.mode is AccessMode.NA
                    and instruction_is_dead(instr, live_after[index])
                    and instr.loc not in env_writes
                ):
                    instrs.append(Skip())
                else:
                    instrs.append(instr)
            new_blocks.append((label, BasicBlock(tuple(instrs), block.term)))
        return CodeHeap(tuple(new_blocks), heap.entry)
