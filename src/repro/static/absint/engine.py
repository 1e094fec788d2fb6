"""The worklist fixpoint solver over CSimpRTL CFGs.

One engine serves every static analysis in :mod:`repro.static`: it
iterates a :class:`~repro.static.absint.domain.Domain`'s transfer
functions over a function's block CFG to the least fixpoint, at
instruction granularity, in either direction.  Beyond plain
least-fixpoint iteration it provides

* **widening** at loop heads (heads of CFG back edges for forward
  domains, their tails for backward ones) after ``widen_delay``
  ordinary joins, making infinite-height domains (intervals) converge.
  The loop heads are only computed once some label's join count passes
  the delay, so finite-height domains that converge early never pay for
  the dominator computation;
* **narrowing**: a bounded number of descending passes that claw back
  precision lost to widening (sound for any count — each pass stays
  above the least fixpoint).  A solve that never widened ended at the
  least fixpoint already, so narrowing is skipped;
* **edge refinement**: forward domains may refine the fact flowing
  along each branch edge (the intervals domain turns ``be r < 10``
  into ``r ∈ [_, 9]`` on the then-edge), and may kill statically dead
  edges outright by returning bottom;
* **per-instruction replay**: :meth:`FixpointResult.at` recovers the
  fact holding at any ``(label, offset)`` program point, and
  :meth:`FixpointResult.before_instructions` every point of a block in
  one replay — what the optimization passes, the Owicki–Gries checker,
  the race summaries and the certification pre-check consume.

The engine never inspects call targets itself: interprocedural domains
close over function summaries (see
:mod:`repro.static.absint.interproc`) and apply them in
``transfer_terminator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Generic, List, Optional, Set, TypeVar

from repro.lang.cfg import Cfg
from repro.lang.syntax import CodeHeap
from repro.static.absint.domain import Direction, Domain

T = TypeVar("T")

#: Default number of plain joins at a widening point before widening kicks in.
DEFAULT_WIDEN_DELAY = 3

#: Default number of descending (narrowing) passes after stabilization.
DEFAULT_NARROW_PASSES = 1

#: Hard iteration ceiling — a domain violating the ascending-chain
#: contract (widening that is not an upper bound) trips this instead of
#: hanging the analysis.
DEFAULT_MAX_ITERATIONS = 100_000


class FixpointDivergence(RuntimeError):
    """The solver exceeded its iteration budget — the domain's widening
    does not enforce convergence."""


@dataclass
class FixpointResult(Generic[T]):
    """The solved facts of one function under one domain.

    ``entry[label]`` is the fact at block entry and ``exit[label]`` the
    fact at block exit.  For forward domains "exit" means after every
    instruction *and* the terminator transfer (the fact that flowed to
    successors, before edge refinement); for backward domains "exit" is
    the fact just after the last instruction (already including the
    terminator transfer of the successor join) and "entry" the fact
    before the first.
    """

    heap: CodeHeap
    domain: Domain[T]
    entry: Dict[str, T]
    exit: Dict[str, T]
    iterations: int
    widened: FrozenSet[str] = frozenset()

    def at(self, label: str, offset: int) -> T:
        """The fact holding at program point ``(label, offset)`` —
        before instruction ``offset`` executes (``offset == len(instrs)``
        addresses the point just before the terminator)."""
        block = self.heap[label]
        if not 0 <= offset <= len(block.instrs):
            raise IndexError(f"offset {offset} out of range for block {label!r}")
        if self.domain.direction is Direction.FORWARD:
            fact = self.entry[label]
            for instr in block.instrs[:offset]:
                fact = self.domain.transfer(instr, fact)
            return fact
        fact = self.exit[label]
        for instr in reversed(block.instrs[offset:]):
            fact = self.domain.transfer(instr, fact)
        return fact

    def before_instructions(self, label: str) -> List[T]:
        """Every program point of the block in one replay: ``facts[i]``
        equals ``at(label, i)`` for ``0 <= i <= len(instrs)``, the last
        entry being the point just before the terminator.  For backward
        domains ``facts[i + 1]`` is the fact *after* instruction ``i``."""
        instrs = self.heap[label].instrs
        transfer = self.domain.transfer
        if self.domain.direction is Direction.FORWARD:
            fact = self.entry[label]
            facts = [fact]
            for instr in instrs:
                fact = transfer(instr, fact)
                facts.append(fact)
            return facts
        fact = self.exit[label]
        facts = [fact]
        for instr in reversed(instrs):
            fact = transfer(instr, fact)
            facts.append(fact)
        facts.reverse()
        return facts


def solve(
    heap: CodeHeap,
    domain: Domain[T],
    widen_delay: int = DEFAULT_WIDEN_DELAY,
    narrow_passes: int = DEFAULT_NARROW_PASSES,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> FixpointResult[T]:
    """Solve ``domain`` over ``heap`` to a sound fixpoint."""
    if domain.direction is Direction.FORWARD:
        return _solve_forward(heap, domain, widen_delay, narrow_passes, max_iterations)
    return _solve_backward(heap, domain, widen_delay, max_iterations)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


@dataclass
class _Worklist:
    """A deterministic worklist ordered by a fixed priority map."""

    position: Dict[str, int]
    pending: Set[str] = field(default_factory=set)

    def push(self, label: str) -> None:
        self.pending.add(label)

    def pop(self) -> str:
        label = min(self.pending, key=lambda l: self.position[l])
        self.pending.discard(label)
        return label

    def __bool__(self) -> bool:
        return bool(self.pending)


class _WidenPoints:
    """The labels where cyclic joins accumulate — back-edge heads, or
    their tails when ``tails`` — with a per-label join counter.

    The back edges need dominators, so they are computed only once some
    label's count passes the widening delay; counting every label
    instead of just the widening points changes no decision.
    """

    def __init__(self, cfg: Cfg, tails: bool) -> None:
        self._cfg = cfg
        self._tails = tails
        self._points: Optional[FrozenSet[str]] = None
        self._counts: Dict[str, int] = {}

    def due(self, label: str, delay: int) -> bool:
        """Count one more join at ``label``; whether to widen it."""
        count = self._counts.get(label, 0) + 1
        self._counts[label] = count
        if count <= delay:
            return False
        if self._points is None:
            self._points = frozenset(
                tail if self._tails else head for tail, head in self._cfg.back_edges()
            )
        return label in self._points


def _block_out_forward(heap: CodeHeap, domain: Domain[T], label: str, fact: T) -> T:
    block = heap[label]
    for instr in block.instrs:
        fact = domain.transfer(instr, fact)
    return domain.transfer_terminator(block.term, fact)


def _solve_forward(
    heap: CodeHeap,
    domain: Domain[T],
    widen_delay: int,
    narrow_passes: int,
    max_iterations: int,
) -> FixpointResult[T]:
    cfg = Cfg.of(heap)
    order = cfg.reverse_postorder()
    position = {label: i for i, label in enumerate(order)}
    succ_map = cfg.succ_map
    widen_points = _WidenPoints(cfg, tails=False)

    entry: Dict[str, T] = {label: domain.bottom() for label in cfg.labels()}
    entry[cfg.entry] = domain.boundary()
    exit_: Dict[str, T] = {label: domain.bottom() for label in cfg.labels()}
    widened: Set[str] = set()

    work = _Worklist(position)
    work.push(cfg.entry)
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:
            raise FixpointDivergence(
                f"{domain.name}: no fixpoint after {max_iterations} iterations"
            )
        label = work.pop()
        if domain.is_bottom(entry[label]):
            continue  # unreached so far: nothing to propagate
        out = _block_out_forward(heap, domain, label, entry[label])
        exit_[label] = out
        term = heap[label].term
        for succ in succ_map[label]:
            refined = domain.edge(label, term, succ, out)
            if domain.is_bottom(refined):
                continue  # statically dead edge
            joined = domain.join(entry[succ], refined)
            if domain.eq(joined, entry[succ]):
                continue
            if widen_points.due(succ, widen_delay):
                joined = domain.widen(entry[succ], joined)
                widened.add(succ)
            entry[succ] = joined
            work.push(succ)

    # Without widening the ascent ended at the least fixpoint, which no
    # descending pass can lower.
    passes = max(0, narrow_passes) if widened else 0
    preds = cfg.predecessors() if passes else {}
    for _ in range(passes):
        changed = False
        for label in order:
            if domain.is_bottom(entry[label]):
                continue
            incoming = domain.boundary() if label == cfg.entry else domain.bottom()
            for pred in preds.get(label, ()):
                if domain.is_bottom(entry[pred]):
                    continue
                refined = domain.edge(pred, heap[pred].term, label, exit_[pred])
                incoming = domain.join(incoming, refined)
            if domain.is_bottom(incoming):
                continue
            narrowed = domain.narrow(entry[label], incoming)
            if not domain.eq(narrowed, entry[label]):
                entry[label] = narrowed
                exit_[label] = _block_out_forward(heap, domain, label, narrowed)
                changed = True
            elif domain.is_bottom(exit_[label]):
                exit_[label] = _block_out_forward(heap, domain, label, entry[label])
        if not changed:
            break

    # Blocks reached but never recomputed in a narrowing pass still need
    # their exit fact materialized (no narrowing pass ran).
    for label in order:
        if not domain.is_bottom(entry[label]) and domain.is_bottom(exit_[label]):
            exit_[label] = _block_out_forward(heap, domain, label, entry[label])

    return FixpointResult(heap, domain, entry, exit_, iterations, frozenset(widened))


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def _solve_backward(
    heap: CodeHeap,
    domain: Domain[T],
    widen_delay: int,
    max_iterations: int,
) -> FixpointResult[T]:
    cfg = Cfg.of(heap)
    order = tuple(reversed(cfg.reverse_postorder()))
    position = {label: i for i, label in enumerate(order)}
    succ_map = cfg.succ_map
    preds = cfg.predecessors()
    # In the backward orientation, cyclic joins accumulate at back-edge
    # *tails*; widen there.
    widen_points = _WidenPoints(cfg, tails=True)

    entry: Dict[str, T] = {label: domain.bottom() for label in cfg.labels()}
    exit_: Dict[str, T] = {label: domain.bottom() for label in cfg.labels()}
    widened: Set[str] = set()

    work = _Worklist(position)
    for label in cfg.labels():
        work.push(label)
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:
            raise FixpointDivergence(
                f"{domain.name}: no fixpoint after {max_iterations} iterations"
            )
        label = work.pop()
        block = heap[label]
        succs = succ_map[label]
        if succs:
            incoming = domain.bottom()
            for succ in succs:
                incoming = domain.join(incoming, entry[succ])
        else:
            incoming = domain.boundary()
        fact = domain.transfer_terminator(block.term, incoming)
        if widen_points.due(label, widen_delay):
            fact = domain.widen(exit_[label], fact)
            widened.add(label)
        exit_[label] = fact
        for instr in reversed(block.instrs):
            fact = domain.transfer(instr, fact)
        if domain.eq(fact, entry[label]):
            continue
        entry[label] = fact
        for pred in preds[label]:
            work.push(pred)

    return FixpointResult(heap, domain, entry, exit_, iterations, frozenset(widened))
