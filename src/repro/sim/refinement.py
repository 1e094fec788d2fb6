"""Event-trace refinement checking (paper Sec. 3, "Behaviors").

``P ⊆ P'`` holds iff every observable event trace of ``P`` is a trace of
``P'``; ``P ≈ P'`` is two-sided inclusion.  For finite-state programs both
are decided exactly by comparing exhaustively computed behavior sets.  The
result distinguishes a definitive verdict (both explorations exhaustive)
from a bounded one, and carries a counterexample trace on failure.
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
    """The outcome of a refinement check ``target ⊆ source``."""

    holds: bool
    definitive: bool
    counterexample: Optional[Trace]
    target_behaviors: BehaviorSet
    source_behaviors: BehaviorSet

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        if self.holds:
            certainty = "definitive" if self.definitive else "bounded"
            return f"refinement holds ({certainty}; {len(self.target_behaviors.traces)} ⊆ {len(self.source_behaviors.traces)} traces)"
        return f"refinement FAILS: target trace {format_trace(self.counterexample)} not in source"


def _compare(target: BehaviorSet, source: BehaviorSet) -> RefinementResult:
    extra = target.traces - source.traces
    counterexample = min(extra, key=lambda t: (len(t), str(t))) if extra else None
    return RefinementResult(
        holds=not extra,
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
    target equal to its source is explored once, and a program the caller
    already scanned for races is not explored again.
    """
    session = session or ExplorationSession(config)
    target_behaviors = session.behaviors(target, nonpreemptive)
    source_behaviors = session.behaviors(source, nonpreemptive)
    return _compare(target_behaviors, source_behaviors)


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
        _compare(target_behaviors, source_behaviors),
        _compare(source_behaviors, target_behaviors),
    )
