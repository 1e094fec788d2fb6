"""Control-flow graph utilities over CSimpRTL code heaps.

Dataflow analyses (`repro.analysis`) run per function over the block-level
CFG.  This module computes successors/predecessors, reverse postorder,
dominators, and natural loops — the standard machinery that LICM's loop
detection and the fixpoint engine (`repro.static.absint`) are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.lang.syntax import Call, CodeHeap, Jmp, terminator_targets


@dataclass(frozen=True)
class Cfg:
    """The block-level control-flow graph of a single function.

    ``Call`` terminators are treated as edges to their return label: from the
    caller's perspective the callee is an opaque sub-computation, which is
    the right abstraction for the intra-procedural analyses of the paper
    (they are all thread-local *and* function-local, like CompCert's).
    """

    entry: str
    successors: Tuple[Tuple[str, Tuple[str, ...]], ...]

    @staticmethod
    def of(heap: CodeHeap) -> "Cfg":
        """Build the CFG of a code heap."""
        succs = tuple(
            (label, terminator_targets(block.term)) for label, block in heap.blocks
        )
        return Cfg(heap.entry, succs)

    @property
    def succ_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.successors)

    def labels(self) -> Tuple[str, ...]:
        """All block labels in declaration order."""
        return tuple(label for label, _ in self.successors)

    def predecessors(self) -> Dict[str, Tuple[str, ...]]:
        """Predecessor map (labels with no predecessors map to ``()``)."""
        preds: Dict[str, List[str]] = {label: [] for label in self.labels()}
        for label, succs in self.successors:
            for succ in succs:
                preds[succ].append(label)
        return {label: tuple(ps) for label, ps in preds.items()}

    def reverse_postorder(self) -> Tuple[str, ...]:
        """Reverse postorder from the entry (unreachable blocks appended at
        the end in label order, so solvers still visit them)."""
        succ_map = self.succ_map
        seen: Set[str] = set()
        postorder: List[str] = []

        def visit(label: str) -> None:
            stack = [(label, iter(succ_map.get(label, ())))]
            seen.add(label)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(succ_map.get(succ, ()))))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(node)
                    stack.pop()

        visit(self.entry)
        order = list(reversed(postorder))
        for label in self.labels():
            if label not in seen:
                order.append(label)
        return tuple(order)

    def reachable(self) -> FrozenSet[str]:
        """Labels reachable from the entry."""
        succ_map = self.succ_map
        seen: Set[str] = {self.entry}
        work = [self.entry]
        while work:
            node = work.pop()
            for succ in succ_map.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return frozenset(seen)

    # -- dominators ---------------------------------------------------------

    def dominators(self) -> Dict[str, FrozenSet[str]]:
        """``dom[b]`` = set of blocks dominating ``b`` (iterative dataflow).

        Unreachable blocks are conventionally dominated by every block.
        """
        labels = self.labels()
        reachable = self.reachable()
        preds = self.predecessors()
        universe = frozenset(labels)
        dom: Dict[str, FrozenSet[str]] = {label: universe for label in labels}
        dom[self.entry] = frozenset({self.entry})
        order = [b for b in self.reverse_postorder() if b in reachable and b != self.entry]
        changed = True
        while changed:
            changed = False
            for label in order:
                pred_doms = [dom[p] for p in preds[label] if p in reachable]
                if pred_doms:
                    new = frozenset.intersection(*pred_doms) | {label}
                else:
                    new = frozenset({label})
                if new != dom[label]:
                    dom[label] = new
                    changed = True
        return dom

    # -- natural loops ------------------------------------------------------

    def back_edges(self) -> Tuple[Tuple[str, str], ...]:
        """Edges ``(tail, head)`` where ``head`` dominates ``tail``."""
        dom = self.dominators()
        reachable = self.reachable()
        edges = []
        for label, succs in self.successors:
            if label not in reachable:
                continue
            for succ in succs:
                if succ in dom[label]:
                    edges.append((label, succ))
        return tuple(edges)

    def natural_loops(self) -> Tuple["NaturalLoop", ...]:
        """All natural loops, one per back edge, merged per header."""
        preds = self.predecessors()
        loops: Dict[str, Set[str]] = {}
        for tail, head in self.back_edges():
            body = loops.setdefault(head, {head})
            work = [tail]
            while work:
                node = work.pop()
                if node in body:
                    continue
                body.add(node)
                work.extend(preds.get(node, ()))
        return tuple(
            NaturalLoop(header, frozenset(body)) for header, body in sorted(loops.items())
        )


@dataclass(frozen=True)
class NaturalLoop:
    """A natural loop: header block plus the full body (header included)."""

    header: str
    body: FrozenSet[str]

    def __contains__(self, label: str) -> bool:
        return label in self.body


def cfg_edges(heap: CodeHeap) -> Iterator[Tuple[str, str]]:
    """Iterate over the (src, dst) block edges of a code heap."""
    for label, block in heap.blocks:
        for target in terminator_targets(block.term):
            yield (label, target)


def block_fallthrough_chain(heap: CodeHeap, start: str) -> Tuple[str, ...]:
    """Follow unconditional jumps from ``start`` while each target has a
    single predecessor — a utility for linearizing simple loop bodies."""
    cfg = Cfg.of(heap)
    preds = cfg.predecessors()
    chain = [start]
    seen = {start}
    label = start
    while True:
        block = heap[label]
        if not isinstance(block.term, Jmp):
            break
        nxt = block.term.target
        if nxt in seen or len(preds.get(nxt, ())) != 1:
            break
        chain.append(nxt)
        seen.add(nxt)
        label = nxt
    return tuple(chain)
