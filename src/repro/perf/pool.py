"""Parallel sweep scheduler: fan per-program jobs across worker processes.

Every sweep-shaped command — ``repro litmus`` over the suite,
``repro validate``/``repro races`` over many files, ``repro fuzz`` over a
generated corpus, the benchmark harness — reduces to the same shape: a
list of independent *(name, function, args)* jobs whose results are folded
deterministically.  :func:`run_sweep` is that shape, once:

* ``jobs_n <= 1`` runs serially in-process (the default);
* ``jobs_n > 1`` fans jobs across long-lived
  :class:`~repro.robust.isolation.ForkWorker` processes — the same
  governed child the service supervisor uses.

Determinism: the scheduler is *order-free* by construction.  Outcomes
arrive in completion order and are sorted by job name, so serial and
parallel sweeps produce byte-identical reports — a Hypothesis property
test (``tests/perf/test_pool.py``) checks verdicts and behavior digests
match across ``jobs_n`` values.

Worker death: a worker dying for any reason — OOM killer, segfault,
chaos injection — is detected at once (the parent waits on result pipes
*and* process sentinels).  Its in-flight job is recorded as a failed
:class:`SweepOutcome` with ``stop_reason="worker_crashed"`` and a
replacement worker is forked for the remaining jobs, at most one
replacement per job, so a sweep of poison programs still terminates.
One murdered worker costs exactly one job.

Budgets: a sweep-level :class:`~repro.robust.budget.Budget` deadline means
wall clock *for the whole sweep*.  The sweep pins the budget's clock once
when it starts (:meth:`~repro.robust.budget.Budget.pinned`) and hands
every job that same budget, so each meters against what is left of the
sweep (fork children share ``CLOCK_MONOTONIC``).  A job starting after
the deadline fails fast with ``BudgetExhausted("deadline")`` instead of
running unbounded.

Failure isolation: a job that raises records a failed
:class:`SweepOutcome` carrying the formatted error; one crashing program
never takes down the sweep.
Job functions must be module-level callables — workers receive them over
a pipe.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.robust import chaos
from repro.robust.budget import Budget, BudgetExhausted
from repro.robust.confidence import Confidence
from repro.robust.isolation import STATUS_CRASHED, STATUS_OK, STATUS_OOM, ForkWorker

#: ``SweepOutcome.stop_reason`` for a job lost to a dying worker process.
STOP_WORKER_CRASHED = "worker_crashed"


@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work: call ``fn(*args, **kwargs)``.

    ``name`` identifies the job in the report and fixes the deterministic
    output order (outcomes sort by name).  When the sweep runs under a
    budget, ``fn`` additionally receives a ``budget=`` keyword carrying
    the sweep's pinned budget — budget-aware job functions must accept it.
    """

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepOutcome:
    """The result of one job: its value, or the error that ate it.

    ``stop_reason`` classifies structured failures: ``"worker_crashed"``
    when the worker process died mid-job, or the exhausted budget
    resource (``"deadline"``/``"states"``/``"memory"``) on a budget trip;
    ``None`` for successes and ordinary job exceptions.
    """

    name: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    stop_reason: Optional[str] = None

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAILED ({self.error})"
        return f"{self.name}: {status} [{self.elapsed_seconds:.2f}s]"


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: outcomes sorted by job name.

    ``jobs`` records the parallelism the sweep actually ran with (1 for
    the serial path), ``elapsed_seconds`` the sweep wall clock, and
    ``worker_crashes`` how many worker processes died mid-job (each
    costing exactly one job's outcome).
    """

    outcomes: Tuple[SweepOutcome, ...]
    jobs: int = 1
    elapsed_seconds: float = 0.0
    worker_crashes: int = 0

    @property
    def failures(self) -> Tuple[SweepOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def ok(self) -> bool:
        return not self.failures

    def confidence(self) -> Optional[Confidence]:
        """Fold the per-job confidences with ``Confidence.weakest``.

        Only outcomes whose value exposes a ``confidence`` attribute
        participate; ``None`` when no outcome does.  Failed jobs do not
        contribute (callers decide how failures affect exit codes).
        """
        found = [
            o.value.confidence
            for o in self.outcomes
            if o.ok and hasattr(o.value, "confidence")
        ]
        return Confidence.weakest(found) if found else None

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failed"
        crashes = f", {self.worker_crashes} worker crashes" if self.worker_crashes else ""
        return (
            f"sweep: {len(self.outcomes)} jobs, {status}, "
            f"jobs={self.jobs}, {self.elapsed_seconds:.2f}s{crashes}"
        )


def _run_job(job: SweepJob, budget: Optional[Budget]) -> SweepOutcome:
    """Execute one job under the sweep's pinned budget."""
    started = time.monotonic()
    kwargs = dict(job.kwargs)
    if budget is not None:
        if budget.expired():
            return SweepOutcome(
                name=job.name,
                ok=False,
                error="budget exhausted: deadline (sweep deadline "
                "passed before the job started)",
                elapsed_seconds=0.0,
                stop_reason="deadline",
            )
        kwargs["budget"] = budget
    try:
        value = job.fn(*job.args, **kwargs)
        return SweepOutcome(
            name=job.name,
            ok=True,
            value=value,
            elapsed_seconds=time.monotonic() - started,
        )
    except BudgetExhausted as exc:
        return SweepOutcome(
            name=job.name,
            ok=False,
            error=f"budget exhausted: {exc.reason}",
            elapsed_seconds=time.monotonic() - started,
            stop_reason=exc.reason,
        )
    except Exception:
        return SweepOutcome(
            name=job.name,
            ok=False,
            error=traceback.format_exc(limit=5).strip().splitlines()[-1],
            elapsed_seconds=time.monotonic() - started,
        )


def _worker_job(job: SweepJob, budget: Optional[Budget]) -> SweepOutcome:
    """Worker-side entry point for one job.

    The chaos fault point sits *before* the job runs, modeling a worker
    murdered mid-job (OOM killer, segfault in a C extension, operator
    SIGKILL).
    """
    chaos.fault_point("pool.worker", job.name)
    return _run_job(job, budget)


def _crashed_outcome(job: SweepJob, detail: object) -> SweepOutcome:
    return SweepOutcome(
        name=job.name,
        ok=False,
        error=f"worker process died mid-job ({detail})",
        stop_reason=STOP_WORKER_CRASHED,
    )


def _run_parallel(
    jobs: Sequence[SweepJob],
    jobs_n: int,
    budget: Optional[Budget],
) -> Tuple[List[SweepOutcome], int]:
    """The supervised parallel path; returns (outcomes, worker_crashes)."""
    pending = list(jobs)
    outcomes: List[SweepOutcome] = []
    crashes = 0
    idle = [ForkWorker() for _ in range(min(jobs_n, len(jobs)))]
    busy: Dict[ForkWorker, SweepJob] = {}
    try:
        while pending or busy:
            while idle and pending:
                worker, job = idle.pop(), pending.pop(0)
                worker.submit(_worker_job, (job, budget))
                busy[worker] = job
            for worker in ForkWorker.ready(list(busy)):
                job = busy.pop(worker)
                status, value = worker.result()
                if status in (STATUS_CRASHED, STATUS_OOM):
                    # The job dies with its worker, so a replacement is
                    # forked at most once per job, and only while work
                    # remains.
                    outcomes.append(_crashed_outcome(job, value))
                    crashes += 1
                    worker.close()
                    if pending:
                        idle.append(ForkWorker())
                    continue
                if status != STATUS_OK:
                    value = SweepOutcome(job.name, ok=False, error=value)
                outcomes.append(value)
                idle.append(worker)
        return outcomes, crashes
    finally:
        for worker in idle + list(busy):
            worker.close()


def run_sweep(
    jobs: Sequence[SweepJob],
    jobs_n: int = 1,
    budget: Optional[Budget] = None,
) -> SweepResult:
    """Run ``jobs`` with up to ``jobs_n`` worker processes.

    Returns a :class:`SweepResult` whose outcomes are sorted by job name
    regardless of completion order, so reports are deterministic across
    parallelism levels.  ``budget.deadline_seconds`` (if set) is the wall
    clock for the *whole sweep*; each job runs under the remainder.  A
    worker process dying mid-job costs that one job
    (``stop_reason="worker_crashed"``) and a replacement worker.
    """
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError("sweep job names must be unique")
    started = time.monotonic()
    if budget is not None:
        budget = budget.pinned()

    jobs_n = max(1, jobs_n)
    crashes = 0
    outcomes: List[SweepOutcome]
    if jobs_n == 1 or len(jobs) <= 1:
        outcomes = [_run_job(job, budget) for job in jobs]
        jobs_n = 1
    else:
        outcomes, crashes = _run_parallel(jobs, jobs_n, budget)

    ordered = tuple(sorted(outcomes, key=lambda o: o.name))
    return SweepResult(
        outcomes=ordered,
        jobs=jobs_n,
        elapsed_seconds=time.monotonic() - started,
        worker_crashes=crashes,
    )
