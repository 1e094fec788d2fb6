"""Copy propagation.

Replaces uses of a register by its copy source while the copy holds:
after ``r2 := r1``, uses of ``r2`` become uses of ``r1`` until either is
redefined.  The pass is the standard cleanup after CSE (which leaves
``r2 := r1`` copies behind); a following DCE then removes the dead copy.

Copy propagation touches registers only — it never adds, removes, moves
or re-modes a memory access — so like ConstProp it is trace-preserving
and verifies with the identity invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.lang.syntax import (
    Assign,
    BasicBlock,
    Be,
    BinOp,
    Call,
    Cas,
    CodeHeap,
    Expr,
    Instr,
    Load,
    Print,
    Program,
    Reg,
    Store,
    Terminator,
)
from repro.opt.base import Optimizer
from repro.static.absint.domain import Direction, Domain
from repro.static.absint.engine import FixpointResult, solve
from repro.static.crossing import CrossingProfile

#: Copy facts: frozenset of (dst, src) pairs meaning dst currently equals
#: src.  ``None`` is the unreached top element (must-analysis).
CopyFacts = Optional[FrozenSet[Tuple[str, str]]]


def _join(a: CopyFacts, b: CopyFacts) -> CopyFacts:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _kill(facts: FrozenSet[Tuple[str, str]], reg: str) -> FrozenSet[Tuple[str, str]]:
    return frozenset(pair for pair in facts if reg not in pair)


def transfer_instruction(instr: Instr, facts: CopyFacts) -> CopyFacts:
    """Forward transfer over the copy facts."""
    if facts is None:
        return None
    if isinstance(instr, Assign):
        out = _kill(facts, instr.dst)
        if isinstance(instr.expr, Reg) and instr.expr.name != instr.dst:
            out = out | {(instr.dst, instr.expr.name)}
        return out
    if isinstance(instr, (Load, Cas)):
        return _kill(facts, instr.dst)
    return facts  # Store / Print / Skip / Fence define no register


def transfer_terminator(term: Terminator, facts: CopyFacts) -> CopyFacts:
    """Forward transfer of a terminator (calls clobber everything)."""
    if facts is None:
        return None
    if isinstance(term, Call):
        return frozenset()  # the callee shares the register file
    return facts


class CopyDomain(Domain[CopyFacts]):
    """The copy facts as a forward must-analysis (``None`` is the
    unreached element and joins intersect)."""

    name = "copies"
    direction = Direction.FORWARD

    def bottom(self) -> CopyFacts:
        return None

    def boundary(self) -> CopyFacts:
        return frozenset()

    def join(self, a: CopyFacts, b: CopyFacts) -> CopyFacts:
        return _join(a, b)

    def is_bottom(self, fact: CopyFacts) -> bool:
        return fact is None

    def transfer(self, instr: Instr, fact: CopyFacts) -> CopyFacts:
        return transfer_instruction(instr, fact)

    def transfer_terminator(self, term: Terminator, fact: CopyFacts) -> CopyFacts:
        return transfer_terminator(term, fact)


def copy_analysis(program: Program, func: str) -> FixpointResult[CopyFacts]:
    """Solve the copy facts of one function."""
    return solve(program.function(func), CopyDomain())


def _resolve(reg: str, facts: FrozenSet[Tuple[str, str]]) -> str:
    """Follow copy chains: the ultimate source of ``reg`` (cycle-safe)."""
    sources = dict(facts)
    seen = {reg}
    while reg in sources and sources[reg] not in seen:
        reg = sources[reg]
        seen.add(reg)
    return reg


def _rewrite_expr(expr: Expr, facts: FrozenSet[Tuple[str, str]]) -> Expr:
    if isinstance(expr, Reg):
        return Reg(_resolve(expr.name, facts))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rewrite_expr(expr.left, facts), _rewrite_expr(expr.right, facts))
    return expr


@dataclass(frozen=True)
class CopyProp(Optimizer):
    """The copy propagation pass."""

    name: str = "copyprop"
    #: Register-only rewriting — trace-preserving, verified with ``I_id``
    #: (expression differences are discharged via the copy facts).
    crossing_profile: CrossingProfile = CrossingProfile(invariant="id")

    def run_function(self, program: Program, func: str) -> CodeHeap:
        copies = copy_analysis(program, func)
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in copies.heap.blocks:
            facts = copies.before_instructions(label)
            instrs = tuple(
                self._rewrite(instr, fact) for instr, fact in zip(block.instrs, facts)
            )
            term = self._rewrite_term(block.term, facts[-1])
            new_blocks.append((label, BasicBlock(instrs, term)))
        return CodeHeap(tuple(new_blocks), copies.heap.entry)

    def _rewrite(self, instr: Instr, facts: CopyFacts) -> Instr:
        if facts is None or not facts:
            return instr
        if isinstance(instr, Assign):
            return Assign(instr.dst, _rewrite_expr(instr.expr, facts))
        if isinstance(instr, Store):
            return Store(instr.loc, _rewrite_expr(instr.expr, facts), instr.mode)
        if isinstance(instr, Print):
            return Print(_rewrite_expr(instr.expr, facts))
        if isinstance(instr, Cas):
            return Cas(
                instr.dst,
                instr.loc,
                _rewrite_expr(instr.expected, facts),
                _rewrite_expr(instr.new, facts),
                instr.mode_r,
                instr.mode_w,
            )
        return instr

    def _rewrite_term(self, term: Terminator, facts: CopyFacts) -> Terminator:
        if facts and isinstance(term, Be):
            return Be(_rewrite_expr(term.cond, facts), term.then_target, term.else_target)
        return term
