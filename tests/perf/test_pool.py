"""The parallel sweep scheduler: determinism, budgets, fault isolation.

The headline property (ISSUE acceptance): a sweep's report is a pure
function of its jobs — serial and ``jobs_n=4`` runs produce identical
per-program verdicts and behavior-set digests.  Hypothesis drives that
over randomly generated ww-race-free programs.
"""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.semantics.version import behavior_digest
from repro.perf.pool import SweepJob, SweepOutcome, run_sweep
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.semantics.exploration import behaviors
from repro.semantics.thread import SemanticsConfig

GEN = GeneratorConfig(threads=2, instrs_per_thread=3)


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("worker exploded")


def _sleepy(budget=None):
    # Budget-aware job: trips cooperatively against the remaining deadline.
    meter = budget.start()
    for _ in range(10_000):
        time.sleep(0.01)
        meter.tick()
    return "never"


def _explore_digest(seed):
    """Verdict + digest for one generated program (module-level so the
    fork pool can pickle the call by reference)."""
    program = random_wwrf_program(seed, GEN)
    bset = behaviors(program, SemanticsConfig())
    return {
        "digest": behavior_digest(bset),
        "exhaustive": bset.exhaustive,
        "outcomes": sorted(bset.outputs()),
    }


class TestSweepBasics:
    def test_serial_runs_in_order(self):
        result = run_sweep([SweepJob(f"j{i}", _square, (i,)) for i in (3, 1, 2)])
        assert [o.name for o in result.outcomes] == ["j1", "j2", "j3"]
        assert [o.value for o in result.outcomes] == [1, 4, 9]
        assert result.ok and result.jobs == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([SweepJob("a", _square, (1,)), SweepJob("a", _square, (2,))])

    def test_failure_is_isolated(self):
        result = run_sweep(
            [SweepJob("good", _square, (2,)), SweepJob("bad", _boom)]
        )
        assert not result.ok
        assert [o.name for o in result.failures] == ["bad"]
        assert "worker exploded" in result.failures[0].error
        good = [o for o in result.outcomes if o.ok]
        assert good[0].value == 4

    def test_parallel_failure_is_isolated(self):
        result = run_sweep(
            [SweepJob("good", _square, (2,)), SweepJob("bad", _boom)], jobs_n=2
        )
        assert [o.name for o in result.failures] == ["bad"]

    def test_confidence_folds_weakest(self):
        class Verdict:
            def __init__(self, confidence):
                self.confidence = confidence

        outcomes = (
            SweepOutcome("a", True, Verdict(Confidence.PROVED)),
            SweepOutcome("b", True, Verdict(Confidence.BOUNDED)),
        )
        from repro.perf.pool import SweepResult

        assert SweepResult(outcomes).confidence() is Confidence.BOUNDED

    def test_confidence_none_without_verdicts(self):
        result = run_sweep([SweepJob("a", _square, (1,))])
        assert result.confidence() is None


def _pid(_index):
    return os.getpid()


class TestLongLivedWorkers:
    def test_workers_are_reused_across_jobs(self):
        """Workers are forked once per sweep, not once per job."""
        jobs = [SweepJob(f"j{i}", _pid, (i,)) for i in range(6)]
        result = run_sweep(jobs, jobs_n=2)
        pids = {o.value for o in result.outcomes}
        assert result.ok
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids


class TestSweepBudget:
    def test_deadline_bounds_whole_sweep(self):
        started = time.monotonic()
        result = run_sweep(
            [SweepJob("a", _sleepy), SweepJob("b", _sleepy)],
            budget=Budget(deadline_seconds=0.3),
        )
        elapsed = time.monotonic() - started
        assert not result.ok
        assert all("deadline" in o.error for o in result.failures)
        # Two jobs sharing one 0.3s deadline: the sweep, not each job,
        # is bounded (generous ceiling for slow CI).
        assert elapsed < 5.0

    def test_job_after_deadline_fails_fast(self):
        result = run_sweep(
            [SweepJob("a", _sleepy), SweepJob("b", _sleepy)],
            budget=Budget(deadline_seconds=0.15),
        )
        late = [o for o in result.outcomes if "before the job started" in (o.error or "")]
        # The first job eats the deadline; the second must not even start.
        assert len(late) >= 1


class TestWorkerDeath:
    """ISSUE satellite: a SIGKILLed worker must cost exactly one job —
    surfaced as ``stop_reason="worker_crashed"`` — never hang the sweep."""

    def test_killed_worker_surfaces_crash_and_sweep_completes(self):
        from repro.robust.chaos import FaultRule, chaos_rules

        jobs = [SweepJob(f"j{i}", _square, (i,)) for i in range(6)]
        # The fork pool inherits the injector: exactly one worker dies
        # (SIGKILL, no cleanup) at the moment it picks up job "j2".
        with chaos_rules(FaultRule("pool.worker", kind="kill", key="j2")):
            result = run_sweep(jobs, jobs_n=2)
        assert len(result.outcomes) == 6
        assert result.worker_crashes == 1
        (crashed,) = result.failures
        assert crashed.name == "j2"
        assert crashed.stop_reason == "worker_crashed"
        assert "died mid-job" in crashed.error
        survivors = {o.name: o.value for o in result.outcomes if o.ok}
        assert survivors == {f"j{i}": i * i for i in range(6) if i != 2}

    def test_every_worker_murdered_still_terminates(self):
        from repro.robust.chaos import FaultRule, chaos_rules

        jobs = [SweepJob(f"j{i}", _square, (i,)) for i in range(4)]
        # Every job is poison: each dispatch kills its worker.  The sweep
        # must respawn (bounded), attribute every job, and terminate.
        with chaos_rules(FaultRule("pool.worker", kind="kill", count=None)):
            result = run_sweep(jobs, jobs_n=2)
        assert len(result.outcomes) == 4
        assert all(o.stop_reason == "worker_crashed" for o in result.outcomes)
        assert result.worker_crashes >= 1

    def test_no_zombies_left_behind(self):
        import multiprocessing

        from repro.robust.chaos import FaultRule, chaos_rules

        jobs = [SweepJob(f"j{i}", _square, (i,)) for i in range(4)]
        with chaos_rules(FaultRule("pool.worker", kind="kill", key="j1")):
            run_sweep(jobs, jobs_n=2)
        # Every worker (including the murdered one) has been joined.
        assert multiprocessing.active_children() == []


class TestSerialParallelDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=3, unique=True))
    def test_identical_verdicts_and_digests(self, seeds):
        jobs = [SweepJob(f"seed-{s:04d}", _explore_digest, (s,)) for s in seeds]
        serial = run_sweep(jobs, jobs_n=1)
        parallel = run_sweep(jobs, jobs_n=4)
        assert [o.name for o in serial.outcomes] == [o.name for o in parallel.outcomes]
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.ok and right.ok
            assert left.value == right.value  # digest, verdict, outcomes

    def test_fuzz_report_identical_across_jobs(self):
        from repro.fuzz import fuzz_optimizer
        from repro.opt.constprop import ConstProp

        serial = fuzz_optimizer(ConstProp(), range(4), GEN)
        parallel = fuzz_optimizer(ConstProp(), range(4), GEN, jobs=4)
        assert serial.failures == parallel.failures
        assert (serial.transformed, serial.skipped_truncated, serial.confidence) == (
            parallel.transformed, parallel.skipped_truncated, parallel.confidence
        )

    def test_corpus_identical_across_jobs(self):
        from repro.opt.dce import DCE
        from repro.sim.validate import validate_corpus

        serial = validate_corpus(DCE(), range(4), GEN)
        parallel = validate_corpus(DCE(), range(4), GEN, jobs=4)
        assert serial == parallel
