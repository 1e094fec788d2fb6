"""Budget enforcement: deadlines, state caps, memory ceilings.

The satellite acceptance criterion: a litmus program with a productive
cycle must terminate under a 1-second deadline — cleanly, with a partial
result, never a hang.
"""

import time

import pytest

from repro.robust.budget import (
    Budget,
    BudgetExhausted,
    REASON_DEADLINE,
    REASON_MEMORY,
    REASON_STATES,
)
from repro.semantics.exploration import behaviors
from repro.semantics.thread import SemanticsConfig


class TestBudgetMeter:
    def test_unbounded_budget_never_trips(self):
        meter = Budget().start()
        for i in range(10_000):
            meter.tick(i)
        assert meter.exhausted_reason is None
        assert not Budget().bounded

    def test_state_cap_trips(self):
        meter = Budget(max_states=10).start()
        with pytest.raises(BudgetExhausted) as info:
            for i in range(100):
                meter.tick(i)
        assert info.value.reason == REASON_STATES
        assert meter.exhausted_reason == REASON_STATES

    def test_deadline_trips(self):
        meter = Budget(deadline_seconds=0.01).start()
        time.sleep(0.02)
        with pytest.raises(BudgetExhausted) as info:
            meter.tick(0)
        assert info.value.reason == REASON_DEADLINE

    def test_memory_ceiling_trips(self):
        budget = Budget(memory_mb=0.001, memory_check_interval=1)
        meter = budget.start()
        ballast = [bytearray(64 * 1024)]
        with pytest.raises(BudgetExhausted) as info:
            for i in range(100):
                ballast.append(bytearray(64 * 1024))
                meter.tick(i)
        assert info.value.reason == REASON_MEMORY
        meter.close()

    def test_meter_close_idempotent(self):
        meter = Budget(memory_mb=1.0).start()
        meter.close()
        meter.close()

    def test_pinned_meters_share_one_clock(self):
        """A pinned budget's meters count from the pinning instant, not
        from their own start: the second exploration of a job gets what
        the first left, not a fresh deadline."""
        budget = Budget(deadline_seconds=0.05).pinned()
        assert budget.pinned() is budget  # pinning twice keeps the instant
        time.sleep(0.06)
        assert budget.expired()
        with pytest.raises(BudgetExhausted) as info:
            budget.start().tick()
        assert info.value.reason == REASON_DEADLINE
        assert not Budget(deadline_seconds=0.05).expired()  # unpinned: not yet running


class TestGovernedExploration:
    def test_productive_cycle_terminates_under_one_second_deadline(
        self, divergent_program
    ):
        """The headline satellite: a divergent exploration stops cleanly
        at the deadline with the partial work, instead of hanging."""
        config = SemanticsConfig(budget=Budget(deadline_seconds=1.0))
        started = time.monotonic()
        result = behaviors(divergent_program, config)
        elapsed = time.monotonic() - started
        # Build phase ≤ deadline; the fixpoint salvage gets one more
        # budget, so total is bounded by ~2× plus slack.
        assert elapsed < 5.0
        assert not result.exhaustive
        assert result.stop_reason == REASON_DEADLINE
        assert result.state_count > 0
        assert () in result.traces  # partial set is still a behavior set

    def test_memory_governed_exploration_stops(self, divergent_program):
        config = SemanticsConfig(
            budget=Budget(memory_mb=8.0, memory_check_interval=16)
        )
        result = behaviors(divergent_program, config)
        assert not result.exhaustive
        assert result.stop_reason == REASON_MEMORY

    def test_budget_on_finite_program_changes_nothing(self):
        from repro.lang.builder import straightline_program
        from repro.lang.syntax import Const, Print

        program = straightline_program([[Print(Const(1))], [Print(Const(2))]])
        plain = behaviors(program)
        governed = behaviors(
            program, SemanticsConfig(budget=Budget(deadline_seconds=60.0))
        )
        assert governed.exhaustive
        assert governed.traces == plain.traces
