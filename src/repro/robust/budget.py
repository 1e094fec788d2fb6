"""Composable resource budgets with cooperative cancellation.

Every theorem this reproduction checks bottoms out in exhaustive state
exploration, which is exponential in the worst case and — as the
decidability results for Promising 2.0 warn — can blow up or diverge on
small inputs.  A :class:`Budget` is the declarative spec of what an
exploration is allowed to consume:

* ``deadline_seconds`` — a wall-clock deadline (monotonic clock);
* ``max_states`` — a cap on explored machine states;
* ``memory_mb`` — an approximate memory ceiling, sampled periodically via
  :mod:`tracemalloc` (preferred when available/enabled) or a
  ``sys.getsizeof`` estimate of the supplied sample object.

A budget is inert until :meth:`Budget.start` creates a mutable
:class:`BudgetMeter`.  The deadline is a duration counted from when a
meter starts, unless :meth:`Budget.pinned` fixed the instant it counts
from: a job or a sweep pins its budget once when it starts, so every
exploration inside it meters against what is left of one clock.  Long-running loops call :meth:`BudgetMeter.tick`
at natural checkpoints (one explored state, one fixpoint iteration); the
meter raises :class:`BudgetExhausted` the moment a resource runs out.
Cancellation is *cooperative*: the loop unwinds cleanly, keeps its
partial result, and — in the explorer — leaves a resumable frontier
behind instead of hanging or OOMing the whole process.

``BudgetExhausted.reason`` is one of ``"deadline"``, ``"states"``,
``"memory"``; ``partial`` optionally carries whatever partial result the
interrupted computation could salvage.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Optional

REASON_DEADLINE = "deadline"
REASON_STATES = "states"
REASON_MEMORY = "memory"


class BudgetExhausted(RuntimeError):
    """A resource budget ran out.

    ``reason`` names the exhausted resource; ``partial`` optionally holds
    the partial result computed before cancellation (e.g. a truncated
    :class:`~repro.semantics.exploration.BehaviorSet`).
    """

    def __init__(self, reason: str, partial: object = None, detail: str = ""):
        self.reason = reason
        self.partial = partial
        super().__init__(detail or f"budget exhausted: {reason}")


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one exploration/check.

    All limits are optional; an all-``None`` budget never trips.  The
    memory ceiling is approximate: it is sampled every
    ``memory_check_interval`` ticks, preferring :mod:`tracemalloc` (the
    meter starts tracing on demand when ``trace_memory`` is set) and
    falling back to a ``sys.getsizeof`` estimate of the sample object
    times the reported element count.  ``started_at`` is the monotonic
    instant the deadline counts from (``None``: when a meter starts).
    """

    deadline_seconds: Optional[float] = None
    max_states: Optional[int] = None
    memory_mb: Optional[float] = None
    memory_check_interval: int = 64
    trace_memory: bool = True
    started_at: Optional[float] = None

    @property
    def bounded(self) -> bool:
        """Whether any limit is actually set."""
        return (
            self.deadline_seconds is not None
            or self.max_states is not None
            or self.memory_mb is not None
        )

    def start(self) -> "BudgetMeter":
        """Begin metering against this budget (the clock starts now
        unless the budget is :meth:`pinned`)."""
        return BudgetMeter(self)

    def pinned(self) -> "Budget":
        """This budget with its clock started now, unless it already runs.

        Every meter started from the result counts the deadline from the
        one instant, so the explorations of one job (or the jobs of one
        sweep) share the deadline instead of each getting it afresh.
        """
        if self.started_at is not None or self.deadline_seconds is None:
            return self
        return replace(self, started_at=time.monotonic())

    def share(self, fraction: float) -> "Budget":
        """This budget with a pinned deadline cut to ``fraction`` of what
        is left of it, counted from now.

        An unpinned budget is returned as it is: each meter started from
        it gets the whole duration anyway.
        """
        if self.started_at is None or self.deadline_seconds is None:
            return self
        elapsed = time.monotonic() - self.started_at
        left = max(0.0, self.deadline_seconds - elapsed)
        return replace(self, deadline_seconds=elapsed + fraction * left)

    def expired(self) -> bool:
        """Whether a pinned deadline has already passed."""
        return (
            self.started_at is not None
            and time.monotonic() - self.started_at >= self.deadline_seconds
        )


class BudgetMeter:
    """Mutable accounting against one :class:`Budget`.

    Not thread-safe; one meter per exploration.  ``close()`` stops any
    tracemalloc tracing this meter started (idempotent).
    """

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.started_at = (
            time.monotonic() if budget.started_at is None else budget.started_at
        )
        self.ticks = 0
        self.exhausted_reason: Optional[str] = None
        self._owns_tracing = False
        if budget.memory_mb is not None and budget.trace_memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracing = True

    # -- sampling -----------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds of wall clock since the clock started (monotonic)."""
        return time.monotonic() - self.started_at

    def memory_bytes(self, sample: object = None, count: int = 0) -> int:
        """Current approximate memory use in bytes."""
        if tracemalloc.is_tracing():
            current, _peak = tracemalloc.get_traced_memory()
            return current
        if sample is not None and count:
            return sys.getsizeof(sample) * count
        return 0

    # -- cooperative cancellation -------------------------------------------

    def tick(self, states: int = 0, sample: object = None) -> None:
        """One unit of work; raises :class:`BudgetExhausted` on a trip.

        ``states`` is the current explored-state count (for the state
        cap and the getsizeof memory fallback); ``sample`` is a
        representative element for the fallback estimate.
        """
        self.ticks += 1
        budget = self.budget
        if budget.max_states is not None and states >= budget.max_states:
            self._trip(REASON_STATES, f"state cap {budget.max_states} reached")
        if (
            budget.deadline_seconds is not None
            and self.elapsed() >= budget.deadline_seconds
        ):
            self._trip(
                REASON_DEADLINE,
                f"deadline {budget.deadline_seconds:.3f}s exceeded",
            )
        if (
            budget.memory_mb is not None
            and self.ticks % budget.memory_check_interval == 0
        ):
            used = self.memory_bytes(sample, states)
            if used >= budget.memory_mb * 1024 * 1024:
                self._trip(
                    REASON_MEMORY,
                    f"~{used / 1024 / 1024:.1f} MiB used, "
                    f"ceiling {budget.memory_mb} MiB",
                )

    def _trip(self, reason: str, detail: str) -> None:
        self.exhausted_reason = reason
        self.close()
        raise BudgetExhausted(reason, detail=detail)

    def close(self) -> None:
        """Release meter resources (tracemalloc, if this meter started it)."""
        if self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracing = False
