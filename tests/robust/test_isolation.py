"""Adversarial-input fault isolation: a deliberate hang, a deliberate
MemoryError, and a crash in child processes must each become a structured
``ProgramOutcome`` while the batch completes and every healthy member
still gets its correct verdict (the PR's acceptance criterion)."""

import os
import time

import pytest

from repro.opt.constprop import ConstProp
from repro.robust.confidence import Confidence
from repro.robust.isolation import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OOM,
    STATUS_TIMEOUT,
    IsolationPolicy,
    isolated_validate_corpus,
    run_batch_isolated,
    run_isolated,
)
from tests.robust.conftest import build_divergent_program

FAST = IsolationPolicy(timeout_seconds=10.0, retry=False)


def _ok_task(value):
    """A healthy child task."""
    return value * 2


def _hang_task():
    """A deliberate hang (the child must be killed at the deadline)."""
    while True:
        time.sleep(0.05)


def _memory_bomb_task():
    """A deliberate allocation storm; under an rlimit it raises
    MemoryError almost immediately."""
    hoard = []
    while True:
        hoard.append(bytearray(4 * 1024 * 1024))


def _raise_task():
    """An ordinary in-child exception."""
    raise ValueError("boom")


def _crash_task():
    """A hard child death no Python handler can report."""
    os._exit(77)


class TestRunIsolated:
    def test_ok_result_ships_back(self):
        outcome = run_isolated("k", _ok_task, (21,), policy=FAST)
        assert outcome.status == STATUS_OK
        assert outcome.ok
        assert outcome.result == 42

    def test_each_call_runs_in_a_fresh_process(self):
        """The supervisor relies on a fresh child per attempt."""
        first = run_isolated("a", os.getpid, policy=FAST)
        second = run_isolated("b", os.getpid, policy=FAST)
        assert first.ok and second.ok
        assert first.result != second.result
        assert os.getpid() not in (first.result, second.result)

    def test_deliberate_hang_is_timeout(self):
        policy = IsolationPolicy(timeout_seconds=0.5, retry=False)
        started = time.monotonic()
        outcome = run_isolated("hang", _hang_task, policy=policy)
        assert time.monotonic() - started < 8.0
        assert outcome.status == STATUS_TIMEOUT
        assert not outcome.ok

    def test_deliberate_memory_bomb_is_oom(self):
        policy = IsolationPolicy(timeout_seconds=30.0, memory_mb=1, retry=False)
        outcome = run_isolated("bomb", _memory_bomb_task, policy=policy)
        assert outcome.status == STATUS_OOM
        assert "MemoryError" in outcome.detail

    def test_child_exception_is_error(self):
        outcome = run_isolated("err", _raise_task, policy=FAST)
        assert outcome.status == STATUS_ERROR
        assert "ValueError" in outcome.detail

    def test_child_hard_death_is_crashed(self):
        outcome = run_isolated("crash", _crash_task, policy=FAST)
        assert outcome.status == STATUS_CRASHED
        assert "77" in outcome.detail

    def test_retry_with_smaller_bounds(self):
        """The retry hook rewrites the args; a failing first attempt is
        retried exactly once under the shrunk policy."""
        policy = IsolationPolicy(timeout_seconds=0.5, retry=True)

        def shrink(args, kwargs):
            return (1,), kwargs

        outcome = run_isolated(
            "retry", _flaky_task, (0,), policy=policy, shrink=shrink
        )
        assert outcome.ok
        assert outcome.retried
        assert outcome.result == "bounded"


def _flaky_task(mode):
    """Hangs when mode=0 (first attempt); returns when mode=1 (retry)."""
    if mode == 0:
        _hang_task()
    return "bounded"


class TestBatchSurvival:
    def test_batch_survives_hostile_members(self):
        """Hang + bomb + crash in one batch: all classified, none fatal,
        healthy members still produce results."""
        tasks = [
            ("good-1", _ok_task, (1,)),
            ("hang", _hang_task, ()),
            ("bomb", _memory_bomb_task, ()),
            ("crash", _crash_task, ()),
            ("good-2", _ok_task, (2,)),
        ]
        overrides = {
            "hang": IsolationPolicy(timeout_seconds=0.5, retry=False),
            "bomb": IsolationPolicy(timeout_seconds=30.0, memory_mb=1, retry=False),
            "crash": IsolationPolicy(timeout_seconds=10.0, retry=False),
        }
        batch = run_batch_isolated(tasks, FAST, policy_overrides=overrides)
        by_key = {o.key: o for o in batch.outcomes}
        assert by_key["good-1"].result == 2
        assert by_key["good-2"].result == 4
        assert by_key["hang"].status == STATUS_TIMEOUT
        assert by_key["bomb"].status == STATUS_OOM
        assert by_key["crash"].status == STATUS_CRASHED
        assert len(batch.failures) == 3
        assert not batch.ok


@pytest.mark.slow
class TestIsolatedCorpus:
    def test_corpus_with_hanging_and_memory_bomb_programs(self):
        """The PR acceptance criterion end-to-end: a corpus containing a
        hanging program and a memory-bomb program completes, reports both
        as isolated failures, and every other program gets its correct
        verdict — none of which may claim PROVED unless exhaustive."""
        batch = isolated_validate_corpus(
            ConstProp(),
            seeds=range(3),
            policy=IsolationPolicy(timeout_seconds=60.0, retry=False),
            programs={
                "hanging": build_divergent_program(),
                "memory-bomb": build_divergent_program(),
            },
            policy_overrides={
                "hanging": IsolationPolicy(timeout_seconds=1.0, retry=False),
                "memory-bomb": IsolationPolicy(
                    timeout_seconds=60.0, memory_mb=1, retry=False
                ),
            },
        )
        by_key = {o.key: o for o in batch.outcomes}
        assert by_key["hanging"].status == STATUS_TIMEOUT
        assert by_key["memory-bomb"].status == STATUS_OOM
        assert {o.key for o in batch.failures} == {"hanging", "memory-bomb"}
        for seed in range(3):
            outcome = by_key[seed]
            assert outcome.ok, f"seed {seed} should validate: {outcome}"
            report = outcome.result
            assert report.ok
            assert (report.confidence is Confidence.PROVED) == report.exhaustive
        assert len(batch.outcomes) == 5

    def test_hanging_program_degrades_to_bounded_on_retry(self):
        """Retry-once-with-smaller-bounds: the retry attaches a budget,
        so the hang becomes an explicit BOUNDED verdict, not a failure."""
        batch = isolated_validate_corpus(
            ConstProp(),
            policy=IsolationPolicy(timeout_seconds=4.0, retry=True),
            programs={"hanging": build_divergent_program()},
        )
        (outcome,) = batch.outcomes
        assert outcome.ok
        assert outcome.retried
        assert outcome.result.confidence is not Confidence.PROVED
        assert batch.confidence is not Confidence.PROVED
