"""Execution witnesses: reconstruct a concrete schedule for an outcome.

A behavior set says *that* a trace is possible; a witness shows *how*: the
sequence of machine states (with thread ids, memories, switch decisions)
along one execution producing it.  Used to explain refinement
counterexamples — e.g. the E-FIG1 experiment's forbidden ``out(0)`` can be
traced back to the exact schedule where the hoisted read runs before
``g()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.lang.syntax import Program
from repro.semantics.events import EVENT_DONE, Trace
from repro.semantics.exploration import Explorer
from repro.semantics.thread import SemanticsConfig


@dataclass(frozen=True)
class Witness:
    """One execution: the visited states and the output emitted per step."""

    states: Tuple[object, ...]
    outputs: Tuple[Tuple[int, Optional[int]], ...]  # (step index, value)

    @property
    def length(self) -> int:
        return len(self.states) - 1

    def describe(self) -> str:
        """A human-readable rendering of the schedule.

        Each step names the thread that moved into it (``_mover``).
        ``cur`` is only the fallback (the initial state, and a switch step,
        which changes no pool entry) — DPOR graphs do not record it (every
        stored state has ``cur == 0``)."""
        lines = []
        prev = None
        for i, state in enumerate(self.states):
            emitted = [v for idx, v in self.outputs if idx == i - 1 and v is not None]
            suffix = f"   => out({emitted[0]})" if emitted else ""
            lines.append(f"step {i:3}: cur=t{_mover(prev, state)} {suffix}")
            prev = state
        return "\n".join(lines)


def _mover(prev, state) -> int:
    """The thread that moved from ``prev`` to ``state``: the one whose
    local state or promise set changed.  A DPOR step that kills a location
    also rewrites the other threads' views, so a changed view alone does
    not name the mover; it is only the next fallback (a step that changes
    nothing else), then ``state.cur``."""
    if prev is None:
        return state.cur
    changed = [
        tid
        for tid, (before, after) in enumerate(zip(prev.pool, state.pool))
        if before != after
    ]
    for tid in changed:
        before, after = prev.pool[tid], state.pool[tid]
        if before.local != after.local or before.promises != after.promises:
            return tid
    return changed[0] if changed else state.cur


def find_witness(
    program: Program,
    trace: Trace,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
) -> Optional[Witness]:
    """A shortest execution of ``program`` whose observable trace is
    ``trace`` (ending in a terminal state when the trace ends in ``done``).

    Returns ``None`` when no such execution exists within the exploration
    bounds — i.e. the trace is not a behavior.
    """
    explorer = Explorer(program, config or SemanticsConfig(), nonpreemptive=nonpreemptive)
    explorer.build()

    want_done = bool(trace) and trace[-1] == EVENT_DONE
    outputs = tuple(v for v in trace if not isinstance(v, str))

    # BFS over (state index, number of outputs matched); parents recorded
    # for path reconstruction.
    start = (0, 0)
    parents: dict = {start: None}
    queue: List[Tuple[int, int]] = [start]
    goal: Optional[Tuple[int, int]] = None
    while queue and goal is None:
        node = queue.pop(0)
        state_idx, matched = node
        if matched == len(outputs):
            if not want_done or explorer.terminal[state_idx]:
                goal = node
                break
        for label, succ in explorer.edges[state_idx]:
            if label is None:
                nxt = (succ, matched)
            elif matched < len(outputs) and label == int(outputs[matched]):
                nxt = (succ, matched + 1)
            else:
                continue
            if nxt not in parents:
                parents[nxt] = (node, label)
                queue.append(nxt)

    if goal is None:
        return None

    # Reconstruct the path.
    path: List[int] = []
    labels: List[Optional[int]] = []
    node = goal
    while node is not None:
        entry = parents[node]
        path.append(node[0])
        if entry is None:
            break
        node, label = entry
        labels.append(label)
    path.reverse()
    labels.reverse()
    states = tuple(explorer.states[idx] for idx in path)
    outs = tuple((i, label) for i, label in enumerate(labels))
    return Witness(states, outs)


def explain_counterexample(
    source: Program,
    target: Program,
    trace: Trace,
    config: Optional[SemanticsConfig] = None,
) -> str:
    """A diagnostic for a refinement failure: confirm the trace exists in
    the target and not in the source, and render the target's schedule."""
    target_witness = find_witness(target, trace, config)
    source_witness = find_witness(source, trace, config)
    lines = [f"counterexample trace: {trace}"]
    lines.append(f"  reachable in target : {target_witness is not None}")
    lines.append(f"  reachable in source : {source_witness is not None}")
    if target_witness is not None:
        lines.append("  target schedule:")
        for line in target_witness.describe().splitlines():
            lines.append("    " + line)
    return "\n".join(lines)
