"""The degradation ladder: ``exhaustive → bounded → random-sampled``.

A resource-governed exploration that trips its budget does not fail the
pipeline — it *degrades*.  :func:`explore_with_degradation` walks the
three rungs in order and returns the first that completes within its
budget, tagged with the honest :class:`~repro.robust.confidence.Confidence`:

1. **exhaustive** — the full behavior-set computation under the policy's
   budget; only this rung yields ``PROVED``;
2. **bounded** — a rerun under a hard state cap (and a shrunk budget), in
   the spirit of bounded model checking: a smoke test, ``BOUNDED``;
3. **sampled** — :func:`repro.semantics.random_run.random_run` samples
   executions and their prefix closure stands in for the behavior set:
   the weakest evidence, ``SAMPLED``.

:func:`validate_with_degradation` lifts the ladder to whole optimizer
validation (the Thm. 6.5/6.6 check): when the exhaustive validation is
cut short, refinement is re-decided over degraded behavior sets and the
returned :class:`~repro.sim.validate.ValidationReport` carries the
degraded confidence — by the report's own constructor invariant it can
never claim ``PROVED``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.lang.syntax import Program
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.semantics.events import Trace
from repro.semantics.exploration import BehaviorSet, behaviors, np_behaviors
from repro.semantics.random_run import random_run
from repro.semantics.thread import SemanticsConfig

RUNG_EXHAUSTIVE = "exhaustive"
RUNG_BOUNDED = "bounded"
RUNG_SAMPLED = "sampled"

#: Confidence earned by each rung of the ladder.
RUNG_CONFIDENCE = {
    RUNG_EXHAUSTIVE: Confidence.PROVED,
    RUNG_BOUNDED: Confidence.BOUNDED,
    RUNG_SAMPLED: Confidence.SAMPLED,
}


@dataclass(frozen=True)
class DegradationPolicy:
    """How far and how fast verification may degrade.

    ``budget`` governs the exhaustive rung (``None`` means unlimited — the
    ladder then never engages).  When it trips, the bounded rung reruns
    under ``bounded_max_states`` and a budget shrunk by ``shrink_factor``;
    if that trips too and ``allow_sampled`` is set, the sampling rung runs
    ``sample_runs`` randomized executions of ``sample_max_steps`` steps
    each (deterministically seeded from ``sample_seed``).
    """

    budget: Optional[Budget] = None
    bounded_max_states: int = 20_000
    shrink_factor: float = 0.5
    allow_sampled: bool = True
    sample_runs: int = 64
    sample_max_steps: int = 2_000
    sample_seed: int = 0


@dataclass(frozen=True)
class DegradedBehaviors:
    """A behavior set together with the rung that produced it.

    ``attempts`` records every rung tried as ``(rung, stop_reason)``
    pairs — the audit trail of how far the ladder had to fall.
    """

    behaviors: BehaviorSet
    rung: str
    attempts: Tuple[Tuple[str, Optional[str]], ...]

    @property
    def confidence(self) -> Confidence:
        """The evidence strength earned by the deciding rung."""
        return RUNG_CONFIDENCE[self.rung]

    def __str__(self) -> str:
        trail = " → ".join(
            f"{rung}({reason})" if reason else rung for rung, reason in self.attempts
        )
        return f"DegradedBehaviors[{self.confidence}] via {trail}: {self.behaviors}"


def sampled_behaviors(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    runs: int = 64,
    max_steps: int = 2_000,
    seed: int = 0,
    deadline_seconds: Optional[float] = None,
) -> BehaviorSet:
    """A :class:`BehaviorSet` built from randomized executions.

    Each run contributes its trace and (by construction of behavior sets)
    every prefix of it.  The result is always an under-approximation of
    the true set, is never ``exhaustive``, and carries
    ``stop_reason="sampled"`` so no downstream consumer can mistake it
    for an exploration.  ``deadline_seconds`` governs the rung itself —
    the last rung of the ladder must not become the new hang; at least
    one run always completes.
    """
    import time

    started = time.monotonic()
    traces = {()}
    for i in range(runs):
        if (
            deadline_seconds is not None
            and i > 0
            and time.monotonic() - started >= deadline_seconds
        ):
            break
        result = random_run(
            program,
            config,
            seed=seed + i,
            max_steps=max_steps,
            nonpreemptive=nonpreemptive,
        )
        trace = _normalize(result.trace)
        for prefix_len in range(len(trace) + 1):
            traces.add(trace[:prefix_len])
    return BehaviorSet(
        traces=frozenset(traces),
        exhaustive=False,
        state_count=0,
        stop_reason=RUNG_SAMPLED,
    )


def _normalize(trace: Trace) -> Trace:
    """Coerce sampled output values to the plain-int labels the explorer
    uses, keeping the ``done`` marker."""
    return tuple(
        item if isinstance(item, str) else int(item) for item in trace
    )


def explore_with_degradation(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    policy: DegradationPolicy = DegradationPolicy(),
    nonpreemptive: bool = False,
) -> DegradedBehaviors:
    """Walk the ladder until some rung completes within its budget.

    The bounded rung counts as *completed* when it ran out of nothing but
    its own state cap; a second deadline/memory trip falls through to
    sampling (or, with ``allow_sampled=False``, the partial bounded set is
    returned as the final ``BOUNDED`` answer — graceful degradation never
    raises).
    """
    config = config or SemanticsConfig()
    explore = np_behaviors if nonpreemptive else behaviors
    attempts = []

    exhaustive_config = replace(config, budget=policy.budget)
    result = explore(program, exhaustive_config)
    attempts.append((RUNG_EXHAUSTIVE, result.stop_reason))
    if result.exhaustive:
        return DegradedBehaviors(result, RUNG_EXHAUSTIVE, tuple(attempts))

    bounded_config = replace(
        config,
        budget=policy.budget.shrink(policy.shrink_factor) if policy.budget else None,
        max_states=min(config.max_states, policy.bounded_max_states),
    )
    result = explore(program, bounded_config)
    attempts.append((RUNG_BOUNDED, result.stop_reason))
    if result.exhaustive or result.stop_reason == "states" or not policy.allow_sampled:
        return DegradedBehaviors(result, RUNG_BOUNDED, tuple(attempts))

    sample_deadline = None
    if policy.budget is not None and policy.budget.deadline_seconds is not None:
        sample_deadline = policy.budget.deadline_seconds * policy.shrink_factor
    sampled = sampled_behaviors(
        program,
        config,
        nonpreemptive=nonpreemptive,
        runs=policy.sample_runs,
        max_steps=policy.sample_max_steps,
        seed=policy.sample_seed,
        deadline_seconds=sample_deadline,
    )
    attempts.append((RUNG_SAMPLED, RUNG_SAMPLED))
    return DegradedBehaviors(sampled, RUNG_SAMPLED, tuple(attempts))


def validate_with_degradation(
    optimizer,
    source: Program,
    config: Optional[SemanticsConfig] = None,
    policy: DegradationPolicy = DegradationPolicy(),
    check_target_wwrf: bool = True,
    static_tier: bool = True,
):
    """Optimizer validation that degrades instead of hanging.

    Runs the ordinary :func:`repro.sim.validate.validate_optimizer` under
    the policy's budget first; if every sub-check completed the report is
    returned unchanged (``PROVED``).  Otherwise refinement is re-decided
    over :func:`explore_with_degradation` behavior sets for source and
    target (an unchanged target reuses the source's), and the report's
    confidence is the weakest rung involved — the constructor invariant
    of :class:`~repro.sim.validate.ValidationReport` guarantees it cannot
    read ``PROVED``.
    """
    from repro.sim.refinement import RefinementResult
    from repro.sim.validate import ValidationReport, validate_optimizer

    config = config or SemanticsConfig()
    governed = replace(config, budget=policy.budget)
    target = optimizer.run(source)
    report = validate_optimizer(
        optimizer,
        source,
        governed,
        check_target_wwrf=check_target_wwrf,
        static_tier=static_tier,
        target=target,
    )
    if report.exhaustive or policy.budget is None:
        return report

    degraded_source = explore_with_degradation(source, config, policy)
    degraded_target = (
        explore_with_degradation(target, config, policy)
        if report.changed
        else degraded_source
    )
    extra = degraded_target.behaviors.traces - degraded_source.behaviors.traces
    counterexample = (
        min(extra, key=lambda t: (len(t), str(t))) if extra else None
    )
    refinement = RefinementResult(
        holds=not extra,
        definitive=False,
        counterexample=counterexample,
        target_behaviors=degraded_target.behaviors,
        source_behaviors=degraded_source.behaviors,
    )
    confidence = Confidence.weakest(
        (degraded_target.confidence, degraded_source.confidence)
    )
    return ValidationReport(
        optimizer=report.optimizer,
        refinement=refinement,
        source_wwrf=report.source_wwrf,
        target_wwrf=report.target_wwrf,
        changed=report.changed,
        confidence=confidence,
    )


__all__ = [
    "DegradationPolicy",
    "DegradedBehaviors",
    "RUNG_EXHAUSTIVE",
    "RUNG_BOUNDED",
    "RUNG_SAMPLED",
    "RUNG_CONFIDENCE",
    "sampled_behaviors",
    "explore_with_degradation",
    "validate_with_degradation",
]
