"""Constant propagation (paper Sec. 7, following CompCert's structure:
``Translate(π, Value_Analyzer(π))``).

The pass folds register computations whose abstract value is a known
constant, rewrites expressions whose sub-registers are constant, and turns
decided conditional branches into unconditional jumps.  Memory accesses are
left in place (the value analysis maps every loaded value to ``⊤``), so the
transformation never adds, removes or reorders memory events — it is
trace-preserving, the easiest of the paper's soundness categories, and is
verified with the identity invariant ``I_id`` (Sec. 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.lattice import FLAT_TOP
from repro.analysis.value import Env, eval_abstract, value_analysis
from repro.lang.syntax import (
    Assign,
    BasicBlock,
    Be,
    BinOp,
    Call,
    Cas,
    CodeHeap,
    Const,
    Expr,
    Instr,
    Jmp,
    Print,
    Program,
    Store,
    Terminator,
)
from repro.opt.base import Optimizer
from repro.static.absint.engine import FixpointResult
from repro.static.crossing import CrossingProfile


def entry_env_for(program: Program, func: str) -> Env:
    """The entry environment of ``func``.

    A function reached only as a thread entry starts with all registers
    zero; a function that is (also) a ``call`` target may be entered with
    arbitrary register contents, so everything is ``⊤``.
    """
    is_call_target = any(
        block.term.func == func
        for _, heap in program.functions
        for _, block in heap.blocks
        if isinstance(block.term, Call)
    )
    if is_call_target:
        return Env((), FLAT_TOP)
    return Env.initial()


def fold_expr(expr: Expr, env: Env) -> Expr:
    """Rewrite ``expr`` using constants known in ``env``."""
    value = eval_abstract(expr, env)
    if value.is_const:
        return Const(value.value)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, fold_expr(expr.left, env), fold_expr(expr.right, env))
    return expr


@dataclass(frozen=True)
class ConstProp(Optimizer):
    """The constant propagation pass."""

    name: str = "constprop"
    #: In-place expression folding: no memory event added, removed or
    #: moved — verified with ``I_id`` (decided branches become jumps,
    #: which the certifier discharges via the constants domain).
    crossing_profile: CrossingProfile = CrossingProfile(invariant="id")

    def run_function(self, program: Program, func: str) -> CodeHeap:
        heap = program.function(func)
        result = value_analysis(program, func, entry_env_for(program, func))
        new_blocks: List[Tuple[str, BasicBlock]] = []
        for label, block in heap.blocks:
            new_blocks.append((label, self._transform_block(label, block, result)))
        return CodeHeap(tuple(new_blocks), heap.entry)

    def _transform_block(
        self, label: str, block: BasicBlock, result: FixpointResult[Env]
    ) -> BasicBlock:
        envs = result.before_instructions(label)
        new_instrs = tuple(
            self._transform_instr(instr, env) for instr, env in zip(block.instrs, envs)
        )
        return BasicBlock(new_instrs, self._transform_term(block.term, envs[-1]))

    def _transform_instr(self, instr: Instr, env: Env) -> Instr:
        if env.is_unreached:
            return instr
        if isinstance(instr, Assign):
            return Assign(instr.dst, fold_expr(instr.expr, env))
        if isinstance(instr, Store):
            return Store(instr.loc, fold_expr(instr.expr, env), instr.mode)
        if isinstance(instr, Print):
            return Print(fold_expr(instr.expr, env))
        if isinstance(instr, Cas):
            return Cas(
                instr.dst,
                instr.loc,
                fold_expr(instr.expected, env),
                fold_expr(instr.new, env),
                instr.mode_r,
                instr.mode_w,
            )
        return instr  # Load / Skip / Fence carry no foldable expression

    def _transform_term(self, term: Terminator, env: Env) -> Terminator:
        if isinstance(term, Be) and not env.is_unreached:
            cond = eval_abstract(term.cond, env)
            if cond.is_const:
                target = term.then_target if cond.value != 0 else term.else_target
                return Jmp(target)
            return Be(fold_expr(term.cond, env), term.then_target, term.else_target)
        return term
