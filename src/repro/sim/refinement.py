"""Event-trace refinement checking (paper Sec. 3, "Behaviors").

``P ⊆ P'`` holds iff every observable event trace of ``P`` is a trace of
``P'``; ``P ≈ P'`` is two-sided inclusion.  For finite-state programs both
are decided exactly by comparing exhaustively computed behavior sets.  The
result distinguishes a definitive verdict (both explorations exhaustive)
from a bounded one, and carries a counterexample trace on failure.

A truncated exploration yields a subset of the program's traces.  A
target trace is therefore always a real behavior, but one missing from a
truncated source set may be a source behavior the bound cut off: only an
exhaustive source refutes refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lang.syntax import Program
from repro.semantics.events import Trace, format_trace
from repro.semantics.exploration import BehaviorSet, ExplorationSession
from repro.semantics.thread import SemanticsConfig


@dataclass(frozen=True)
class RefinementResult:
    """The outcome of a refinement check ``target ⊆ source``.

    ``counterexample`` is the shortest target trace the source set lacks.
    It refutes refinement (``holds`` False) only against an exhaustive
    source; against a truncated one the check is inconclusive, and
    ``holds`` stays True with ``definitive`` False.
    """

    holds: bool
    definitive: bool
    counterexample: Optional[Trace]
    target_behaviors: BehaviorSet
    source_behaviors: BehaviorSet

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        target = len(self.target_behaviors.traces)
        source = len(self.source_behaviors.traces)
        if not self.holds:
            return f"refinement FAILS: target trace {format_trace(self.counterexample)} not in source"
        if self.counterexample is not None:
            return (
                f"refinement not refuted (bounded; {target} ⊄ {source} traces: "
                f"target trace {format_trace(self.counterexample)} not in the "
                "truncated source)"
            )
        certainty = "definitive" if self.definitive else "bounded"
        return f"refinement holds ({certainty}; {target} ⊆ {source} traces)"


def compare_behaviors(target: BehaviorSet, source: BehaviorSet) -> RefinementResult:
    """Decide ``target ⊆ source`` from two computed behavior sets."""
    extra = target.traces - source.traces
    counterexample = min(extra, key=lambda t: (len(t), str(t))) if extra else None
    return RefinementResult(
        holds=not extra or not source.exhaustive,
        definitive=target.exhaustive and source.exhaustive,
        counterexample=counterexample,
        target_behaviors=target,
        source_behaviors=source,
    )


def check_refinement(
    source: Program,
    target: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
) -> RefinementResult:
    """Decide ``target ⊆ source`` under the chosen machine.

    Note the argument order follows the paper's reading direction — the
    *source* program is the specification the target must refine.  The
    behavior sets come from ``session`` (whose config then applies), so a
    target equal to its source is explored once.
    """
    session = session or ExplorationSession(config)
    target_behaviors = session.behaviors(target, nonpreemptive)
    source_behaviors = session.behaviors(source, nonpreemptive)
    return compare_behaviors(target_behaviors, source_behaviors)


def check_equivalence(
    source: Program,
    target: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
) -> Tuple[RefinementResult, RefinementResult]:
    """Decide ``P ≈ P'`` as a pair of refinements (forward, backward)."""
    session = ExplorationSession(config)
    target_behaviors = session.behaviors(target, nonpreemptive)
    source_behaviors = session.behaviors(source, nonpreemptive)
    return (
        compare_behaviors(target_behaviors, source_behaviors),
        compare_behaviors(source_behaviors, target_behaviors),
    )
