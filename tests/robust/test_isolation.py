"""Adversarial-input fault isolation: a deliberate hang, a deliberate
MemoryError, and a crash in child processes must each come back from
``ForkWorker.run`` as a classified ``(status, value)`` while the caller
survives and every healthy job still gets its result."""

import os
import time

from repro.robust.isolation import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OOM,
    STATUS_TIMEOUT,
    ForkWorker,
)

TIMEOUT = 10.0


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


def run_isolated(fn, args=(), timeout=TIMEOUT, memory_mb=None):
    """One job in a fresh worker, as the supervisor runs each attempt."""
    with ForkWorker(memory_mb) as worker:
        return worker.run(fn, args, timeout=timeout)


class TestRunIsolated:
    def test_ok_result_ships_back(self):
        assert run_isolated(_ok_task, (21,)) == (STATUS_OK, 42)

    def test_each_call_runs_in_a_fresh_process(self):
        """The supervisor relies on a fresh child per attempt."""
        first = run_isolated(os.getpid)
        second = run_isolated(os.getpid)
        assert first[0] == second[0] == STATUS_OK
        assert first[1] != second[1]
        assert os.getpid() not in (first[1], second[1])

    def test_deliberate_hang_is_timeout(self):
        started = time.monotonic()
        status, _detail = run_isolated(_hang_task, timeout=0.5)
        assert time.monotonic() - started < 8.0
        assert status == STATUS_TIMEOUT

    def test_deliberate_memory_bomb_is_oom(self):
        status, detail = run_isolated(_memory_bomb_task, timeout=30.0, memory_mb=1)
        assert status == STATUS_OOM
        assert "MemoryError" in detail

    def test_child_exception_is_error(self):
        status, detail = run_isolated(_raise_task)
        assert status == STATUS_ERROR
        assert "ValueError" in detail

    def test_child_hard_death_is_crashed(self):
        status, detail = run_isolated(_crash_task)
        assert status == STATUS_CRASHED
        assert "77" in detail


class TestBatchSurvival:
    def test_batch_survives_hostile_members(self):
        """Hang + bomb + crash in one batch: all classified, none fatal,
        healthy members still produce results."""
        tasks = {
            "good-1": (_ok_task, (1,), TIMEOUT, None),
            "hang": (_hang_task, (), 0.5, None),
            "bomb": (_memory_bomb_task, (), 30.0, 1),
            "crash": (_crash_task, (), TIMEOUT, None),
            "good-2": (_ok_task, (2,), TIMEOUT, None),
        }
        outcomes = {key: run_isolated(*task) for key, task in tasks.items()}
        assert outcomes["good-1"] == (STATUS_OK, 2)
        assert outcomes["good-2"] == (STATUS_OK, 4)
        assert outcomes["hang"][0] == STATUS_TIMEOUT
        assert outcomes["bomb"][0] == STATUS_OOM
        assert outcomes["crash"][0] == STATUS_CRASHED
