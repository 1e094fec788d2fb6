"""Promise oracles: bounding promise non-determinism for exploration.

In PS2.1 a thread may promise *any* future write at *any* moment, which is
an infinite choice (any location, any value, any interval).  Exhaustive
exploration needs a finite, behavior-covering subset.  A
:class:`PromiseOracle` supplies, at each state, the finite set of
``(location, value)`` pairs the thread may promise; interval placement is
then enumerated canonically by the memory layer, and every promise is still
certified against the capped memory exactly as the paper specifies.

:class:`SyntacticPromises` harvests candidates from the thread's own code:
a promise is only ever fulfillable by one of the thread's own write
instructions, so promising ``(x, v)`` pairs where ``x_ow := e`` occurs in the
thread's reachable code (``ow ∈ {na, rlx}`` — the paper: "only non-atomic
and relaxed writes can be promised") with ``e`` either a literal constant or
resolvable to a small constant set covers the litmus-relevant behaviors
(e.g. LB).  The promise *budget* carried in each thread state keeps the
state space finite.

The candidates are per function, the same at every position.  Under
``por="dpor"`` the explorer narrows them per position
(``thread_steps(promise_locations=...)``): only locations some
continuation can still fulfil-store, and only where another live thread
can still read the promise (:mod:`repro.semantics.dpor`, "Promises only
where they can matter").  ``por="none"`` offers them all, as the
reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.lang.syntax import (
    AccessMode,
    Cas,
    Const,
    Expr,
    Program,
    Store,
)
from repro.lang.values import Int32
from repro.memory.memory import Memory
from repro.semantics.threadstate import ThreadState


class PromiseOracle:
    """Interface: which ``(loc, value)`` promises may a thread make now?"""

    def candidates(
        self, program: Program, ts: ThreadState, mem: Memory
    ) -> Iterable[Tuple[str, Int32]]:
        """The ``(loc, value)`` pairs the thread may promise from here."""
        raise NotImplementedError

    @property
    def default_budget(self) -> int:
        """Promise budget installed into fresh thread states."""
        return 0


@dataclass(frozen=True)
class NoPromises(PromiseOracle):
    """The promise-free oracle.

    Sound for programs whose interesting behaviors don't need promises
    (SB, MP, coherence, every ww-RF program without load-buffering cycles);
    exploration is much faster.
    """

    def candidates(
        self, program: Program, ts: ThreadState, mem: Memory
    ) -> Iterable[Tuple[str, Int32]]:
        """No promises, ever."""
        return ()


def _const_values(expr: Expr) -> FrozenSet[Int32]:
    """Constant values an expression syntactically evaluates to."""
    if isinstance(expr, Const):
        return frozenset({expr.value})
    return frozenset()


def _reachable_functions(program: Program, entry: str) -> FrozenSet[str]:
    """Functions transitively callable from ``entry``."""
    from repro.lang.syntax import Call  # local import to avoid cycle clutter

    seen: Set[str] = {entry}
    work = [entry]
    while work:
        func = work.pop()
        for _, block in program.function(func).blocks:
            if isinstance(block.term, Call) and block.term.func not in seen:
                seen.add(block.term.func)
                work.append(block.term.func)
    return frozenset(seen)


#: :func:`syntactic_write_candidates` per program, then per entry.  Keyed
#: by identity: ``Program`` caches no hash, and hashing a whole program on
#: every lookup would cost about as much as the walk it saves.  An entry
#: is dropped when its program is collected.
_CANDIDATES: Dict[int, Dict[str, Tuple[Tuple[str, Int32], ...]]] = {}


def syntactic_write_candidates(program: Program, entry: str) -> Tuple[Tuple[str, Int32], ...]:
    """All ``(loc, const-value)`` pairs from promisable writes reachable from
    ``entry``: stores and CAS writes in mode ``na``/``rlx`` whose written
    expression is a literal constant.  Walked once per (program, entry)."""
    memo = _CANDIDATES.get(id(program))
    if memo is None:
        memo = _CANDIDATES[id(program)] = {}
        weakref.finalize(program, _CANDIDATES.pop, id(program), None)
    pairs = memo.get(entry)
    if pairs is None:
        pairs = memo[entry] = _write_candidates(program, entry)
    return pairs


def _write_candidates(program: Program, entry: str) -> Tuple[Tuple[str, Int32], ...]:
    pairs: Set[Tuple[str, Int32]] = set()
    for func in _reachable_functions(program, entry):
        for instr in program.function(func).instructions():
            if isinstance(instr, Store) and instr.mode in (AccessMode.NA, AccessMode.RLX):
                for value in _const_values(instr.expr):
                    pairs.add((instr.loc, value))
            elif isinstance(instr, Cas) and instr.mode_w is AccessMode.RLX:
                for value in _const_values(instr.new):
                    pairs.add((instr.loc, value))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class SyntacticPromises(PromiseOracle):
    """Promise ``(loc, value)`` pairs harvested from the thread's own code.

    ``budget`` bounds how many promise steps each thread may take over a
    whole execution; ``max_outstanding`` bounds simultaneously unfulfilled
    promises.  Both keep exploration finite while covering the paper's
    promise-dependent litmus behaviors.
    """

    budget: int = 1
    max_outstanding: int = 1

    @property
    def default_budget(self) -> int:
        return self.budget

    def candidates(
        self, program: Program, ts: ThreadState, mem: Memory
    ) -> Iterable[Tuple[str, Int32]]:
        """Harvested constants, budget and outstanding-count permitting."""
        if ts.promise_budget <= 0:
            return ()
        outstanding = sum(1 for item in ts.promises if item.is_concrete)
        if outstanding >= self.max_outstanding:
            return ()
        # Future writes may come from the current function (and its callees)
        # or from the continuations of pending callers on the stack.
        if not ts.local.stack:
            return syntactic_write_candidates(program, ts.local.func)
        pairs: Set[Tuple[str, Int32]] = set()
        for func in {ts.local.func} | {frame_func for frame_func, _ in ts.local.stack}:
            pairs.update(syntactic_write_candidates(program, func))
        return tuple(sorted(pairs))
