"""Governed fork workers and per-program fault isolation for batch drivers.

``validate_corpus`` / ``fuzz_optimizer`` sweep many generated programs
through exhaustive exploration; one pathological input (a divergent BFS,
a memory bomb, an interpreter crash) must not take the whole batch down.
:func:`run_isolated` executes one task in a fresh :class:`ForkWorker`
under a wall-clock timeout and an optional memory ceiling, and
*classifies* whatever happens into a structured :class:`ProgramOutcome`:

* ``STATUS_OK``      — the task returned a value (shipped back pickled);
* ``STATUS_TIMEOUT`` — the child outlived its deadline and was killed;
* ``STATUS_OOM``     — the child hit its memory ceiling (``MemoryError``);
* ``STATUS_CRASHED`` — the child died without reporting (segfault, kill);
* ``STATUS_ERROR``   — the task raised an ordinary exception.

A failed task is retried **once** with smaller bounds when the policy
says so and the task supplies a ``shrink`` hook (the corpus drivers
attach a budget at ~40% of the retry deadline, so a hang degrades to an
explicitly ``BOUNDED`` verdict on retry instead of timing out again).

:func:`isolated_validate_corpus` / :func:`isolated_fuzz_optimizer` are
the batch drivers: each seed/program runs in its own child, the batch
always completes, and the aggregate confidence is the weakest surviving
member's.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lang.syntax import Program
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.semantics.thread import SemanticsConfig

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_OOM = "oom"
STATUS_CRASHED = "crashed"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class IsolationPolicy:
    """Limits one isolated task runs under.

    ``memory_mb`` caps what the child allocates, enforced two ways: by a
    :mod:`tracemalloc` watchdog thread, which sees Python-level
    allocation even when it recycles the free lists a forked child
    inherits, and by a soft ``RLIMIT_AS`` backstop for allocation the
    watchdog cannot see, set ``memory_mb`` plus a fixed slack above the
    address space the child inherits (the slack lets the watchdog decide
    first); ``None`` disables both.  ``retry`` enables the
    retry-once-with-smaller-bounds semantics; the retry's deadline is the
    original times ``shrink_factor``.
    """

    timeout_seconds: float = 60.0
    memory_mb: Optional[float] = None
    retry: bool = True
    shrink_factor: float = 0.5

    def shrink(self) -> "IsolationPolicy":
        """The policy for the single retry (no further retries)."""
        return replace(
            self,
            timeout_seconds=max(0.1, self.timeout_seconds * self.shrink_factor),
            retry=False,
        )


@dataclass(frozen=True)
class ProgramOutcome:
    """What happened to one isolated task — crash, hang, OOM, or result.

    ``result`` carries the task's (pickled-back) return value only for
    ``STATUS_OK``; ``detail`` is the human-readable classification and
    ``retried`` records whether this outcome came from the
    smaller-bounds retry.
    """

    key: object
    status: str
    result: object = None
    detail: str = ""
    retried: bool = False
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the task produced a usable result."""
        return self.status == STATUS_OK

    def __str__(self) -> str:
        suffix = " (after retry)" if self.retried else ""
        body = self.detail or self.status
        return f"[{self.key}] {self.status.upper()}{suffix}: {body}"


@dataclass(frozen=True)
class IsolatedResult:
    """Aggregate of an isolated batch: per-task outcomes + summary.

    ``outcomes`` preserves input order.  ``confidence`` is the weakest
    confidence among successful members (failures are reported
    separately and do not dilute it — they are not verdicts at all).
    """

    outcomes: Tuple[ProgramOutcome, ...]
    confidence: Confidence = Confidence.PROVED

    @property
    def ok(self) -> bool:
        """Whether every task completed with a usable result."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> Tuple[ProgramOutcome, ...]:
        """The isolated (crashed / hung / OOM / errored) members."""
        return tuple(o for o in self.outcomes if not o.ok)

    def __str__(self) -> str:
        good = sum(1 for o in self.outcomes if o.ok)
        return (
            f"isolated batch: {good}/{len(self.outcomes)} ok, "
            f"{len(self.failures)} isolated failures, "
            f"confidence={self.confidence}"
        )


#: How often the child's memory watchdog samples traced allocation.
_WATCHDOG_INTERVAL_SECONDS = 0.05

#: Address space the ``RLIMIT_AS`` backstop grants beyond ``memory_mb``:
#: room for one watchdog interval of allocation at over 1 GB/s.  The
#: watchdog must decide first — an rlimit failure while tracemalloc is
#: tracing can wedge the interpreter (a ``SystemError`` or a spin that
#: holds the GIL until the parent's timeout) instead of raising
#: ``MemoryError``.
_BACKSTOP_SLACK_MB = 64


def _address_space_bytes() -> int:
    """The process's current virtual size (0 where ``/proc`` is absent)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[0]) * resource.getpagesize()
    except OSError:
        return 0


_OOM_DETAIL = "MemoryError: memory ceiling hit"


def _start_memory_watchdog(conn, memory_mb) -> None:
    """Enforce ``memory_mb`` against Python-level allocation in the child.

    ``RLIMIT_AS`` only fails *new* address-space mappings.  A forked
    child inherits the parent's allocator free lists, so a small-object
    workload (exploration states) can recycle already-mapped pages
    indefinitely without the rlimit ever firing — the ceiling would then
    silently depend on how warm the parent's heap was.  tracemalloc
    counts the child's own allocations regardless of which pages serve
    them; the watchdog samples it and, past the ceiling, reports
    ``STATUS_OOM`` and exits the child outright (``os._exit`` also keeps
    the report race-free: the main thread can no longer send a competing
    payload).

    Must be called *before* the rlimit is applied — starting a thread
    maps a fresh stack, which the rlimit would refuse.
    """
    import os
    import threading
    import tracemalloc

    if not tracemalloc.is_tracing():
        tracemalloc.start()
    ceiling = memory_mb * 1024 * 1024

    def watch() -> None:
        while True:
            time.sleep(_WATCHDOG_INTERVAL_SECONDS)
            try:
                current, _peak = tracemalloc.get_traced_memory()
                over = current >= ceiling
            except MemoryError:
                over = True  # the probe itself OOMed: same verdict
            if over:
                try:
                    conn.send((STATUS_OOM, _OOM_DETAIL))
                    conn.close()
                finally:
                    os._exit(1)

    threading.Thread(target=watch, daemon=True, name="memory-watchdog").start()


def _worker_main(conn, memory_mb) -> None:
    """Child-process main: apply the memory ceiling once, then run jobs.

    Protocol: the parent sends ``(fn, args, kwargs)`` and finally
    ``None``; the child answers every job with ``(status, value)``.  On
    ``MemoryError`` the soft address-space limit is restored *before*
    pickling the reply, so reporting the OOM cannot itself OOM, and the
    child exits: its heap is no longer trustworthy for another job.
    """
    old_limit = None
    if memory_mb is not None:
        _start_memory_watchdog(conn, memory_mb)
        old_limit = resource.getrlimit(resource.RLIMIT_AS)
        backstop = _address_space_bytes() + (memory_mb + _BACKSTOP_SLACK_MB) * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (int(backstop), old_limit[1]))
    with conn:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):  # parent went away
                return
            if job is None:
                return
            fn, args, kwargs = job
            try:
                reply = (STATUS_OK, fn(*args, **kwargs))
            except MemoryError:
                if old_limit is not None:
                    resource.setrlimit(resource.RLIMIT_AS, old_limit)
                conn.send((STATUS_OOM, _OOM_DETAIL))
                return
            except BaseException as exc:  # report, never propagate out of the child
                reply = (STATUS_ERROR, f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except OSError:  # parent went away
                return
            except Exception as exc:  # the result does not pickle
                conn.send((STATUS_ERROR, f"{type(exc).__name__}: {exc}"))


class ForkWorker:
    """One governed child process running module-level jobs one at a time.

    The child forks once and applies the memory ceiling (tracemalloc
    watchdog, then ``RLIMIT_AS``) before its first job; fork keeps the
    already-imported interpreter, so a worker starts in milliseconds and
    shares the monotonic clock with the parent.  Each job comes back
    classified as ``(status, value)`` — ``value`` is the job's result for
    ``STATUS_OK`` and a human-readable detail otherwise.  The parent
    waits on the result pipe *and* the process sentinel, so a child that
    dies mid-job (OOM killer, segfault, SIGKILL) is reported as
    ``STATUS_CRASHED`` at once instead of hanging the caller.

    The parallel sweep keeps a few workers alive across many jobs; the
    corpus drivers and the service supervisor use a fresh worker per
    attempt (:meth:`run`).
    """

    def __init__(self, memory_mb: Optional[float] = None) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, memory_mb), daemon=True
        )
        self.process.start()
        child_conn.close()

    def __enter__(self) -> "ForkWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, fn: Callable, args: Tuple = (), kwargs: Optional[Dict] = None) -> None:
        """Hand the child one job; its answer arrives via :meth:`result`.

        A child already dead at dispatch is not an error here: the next
        :meth:`result` sees its sentinel and reports ``STATUS_CRASHED``.
        """
        try:
            self.conn.send((fn, args, kwargs or {}))
        except OSError:
            pass

    def result(self, timeout: Optional[float] = None) -> Optional[Tuple[str, object]]:
        """The in-flight job's ``(status, value)``, or ``None`` if it is
        still running after ``timeout`` seconds (``None`` waits forever)."""
        if not wait([self.conn, self.process.sentinel], timeout):
            return None
        # Whatever the child sent before dying is still in the pipe;
        # EOF without a payload means it died before reporting.
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        self.process.join(timeout=1.0)
        return (
            STATUS_CRASHED,
            f"child died without reporting (exit code {self.process.exitcode})",
        )

    def run(
        self,
        fn: Callable,
        args: Tuple = (),
        kwargs: Optional[Dict] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[str, object]:
        """Run one job to a classified ``(status, value)``; a job still
        running after ``timeout`` seconds is ``STATUS_TIMEOUT`` and its
        child is killed."""
        self.submit(fn, args, kwargs)
        reply = self.result(timeout)
        if reply is None:
            self.process.kill()
            return STATUS_TIMEOUT, f"no result within {timeout:.1f}s; child killed"
        return reply

    @staticmethod
    def ready(workers: Sequence["ForkWorker"]) -> List["ForkWorker"]:
        """Block until at least one of ``workers`` has an answer (or has
        died); returns those that do."""
        woke = set(wait([h for w in workers for h in (w.conn, w.process.sentinel)]))
        return [w for w in workers if woke & {w.conn, w.process.sentinel}]

    def close(self) -> None:
        """Stop the child (politely when idle), reap it, close the pipe."""
        if self.process.is_alive():
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # stuck mid-job
                self.process.kill()
        self.process.join()
        self.conn.close()


def run_isolated(
    key,
    fn: Callable,
    args: Tuple = (),
    kwargs: Optional[Dict] = None,
    policy: IsolationPolicy = IsolationPolicy(),
    shrink: Optional[Callable[[Tuple, Optional[Dict]], Tuple[Tuple, Optional[Dict]]]] = None,
) -> ProgramOutcome:
    """Run ``fn(*args, **kwargs)`` in a fresh governed child process.

    On any non-``ok`` outcome, when ``policy.retry`` is set the task runs
    exactly once more, in another fresh child, under
    :meth:`IsolationPolicy.shrink`; a ``shrink`` hook may rewrite
    ``(args, kwargs)`` for the retry (the corpus drivers use it to attach
    a cooperative budget so a retried hang degrades to a ``BOUNDED``
    verdict instead of timing out again).
    """
    retried = False
    while True:
        started = time.monotonic()
        with ForkWorker(policy.memory_mb) as worker:
            status, value = worker.run(fn, args, kwargs, policy.timeout_seconds)
        ok = status == STATUS_OK
        outcome = ProgramOutcome(
            key, status,
            result=value if ok else None,
            detail="" if ok else str(value),
            retried=retried,
            elapsed_seconds=time.monotonic() - started,
        )
        if ok or not policy.retry:
            return outcome
        if shrink is not None:
            args, kwargs = shrink(args, kwargs)
        policy = policy.shrink()
        retried = True


def run_batch_isolated(
    tasks: Sequence[Tuple[object, Callable, Tuple]],
    policy: IsolationPolicy = IsolationPolicy(),
    policy_overrides: Optional[Mapping[object, IsolationPolicy]] = None,
    shrink: Optional[Callable] = None,
) -> IsolatedResult:
    """Run ``(key, fn, args)`` tasks each in its own child; never abort.

    ``policy_overrides`` lets individual keys carry their own limits
    (e.g. a known-heavy litmus family getting a longer deadline).
    """
    overrides = policy_overrides or {}
    outcomes = [
        run_isolated(
            key, fn, args, policy=overrides.get(key, policy), shrink=shrink
        )
        for key, fn, args in tasks
    ]
    confidence = Confidence.weakest(
        _result_confidence(o.result) for o in outcomes if o.ok
    )
    return IsolatedResult(tuple(outcomes), confidence)


def _result_confidence(result: object) -> Optional[Confidence]:
    """Pull a confidence off a task result when it carries one."""
    value = getattr(result, "confidence", None)
    return value if isinstance(value, Confidence) else None


# -- corpus drivers -----------------------------------------------------------


def _governed_config(
    config: Optional[SemanticsConfig], policy: IsolationPolicy
) -> SemanticsConfig:
    """The retry config: a cooperative budget well inside the hard limits,
    so the second attempt degrades to a ``BOUNDED`` verdict instead of
    being killed like the first.

    One validation runs up to four explorations (source/target behavior
    sets and race checks), each with a build phase plus a salvage
    fixpoint, so the per-exploration deadline is sized at a tenth of the
    retry's wall-clock timeout.
    """
    config = config or SemanticsConfig()
    retry_timeout = policy.timeout_seconds * policy.shrink_factor
    deadline = max(0.05, retry_timeout / 10.0)
    budget = Budget(
        deadline_seconds=deadline,
        memory_mb=None if policy.memory_mb is None else policy.memory_mb * 0.5,
    )
    return replace(config, max_states=min(config.max_states, 50_000), budget=budget)


def _validate_one(optimizer, program, config, check_target_wwrf, static_tier):
    """Child-side task: validate one program (module-level for spawn)."""
    from repro.sim.validate import validate_optimizer

    return validate_optimizer(
        optimizer,
        program,
        config,
        check_target_wwrf=check_target_wwrf,
        static_tier=static_tier,
    )


def isolated_validate_corpus(
    optimizer,
    seeds: Sequence[int] = (),
    generator_config: GeneratorConfig = GeneratorConfig(),
    config: Optional[SemanticsConfig] = None,
    policy: IsolationPolicy = IsolationPolicy(),
    programs: Optional[Mapping[object, Program]] = None,
    policy_overrides: Optional[Mapping[object, IsolationPolicy]] = None,
    check_target_wwrf: bool = True,
    static_tier: bool = True,
) -> IsolatedResult:
    """Fault-isolated counterpart of
    :func:`repro.sim.validate.validate_corpus`.

    Each generated seed — plus any explicitly supplied ``programs``
    (label → :class:`Program`) — is validated in its own governed child.
    A hang, crash, or OOM of one member becomes an isolated
    :class:`ProgramOutcome` failure; every other member still gets its
    correct verdict, and the batch-level ``confidence`` is the weakest
    among the survivors.
    """
    entries: List[Tuple[object, Program]] = [
        (seed, random_wwrf_program(seed, generator_config)) for seed in seeds
    ]
    entries += list((programs or {}).items())
    tasks = [
        (key, _validate_one, (optimizer, program, config, check_target_wwrf, static_tier))
        for key, program in entries
    ]

    def shrink(args, kwargs):
        opt, program, cfg, wwrf, tier = args
        return (opt, program, _governed_config(cfg, policy), wwrf, tier), kwargs

    return run_batch_isolated(
        tasks, policy, policy_overrides=policy_overrides, shrink=shrink
    )


def _fuzz_one(optimizer, seed, generator_config, config, check_wwrf):
    """Child-side task: generate-and-validate one fuzz seed."""
    program = random_wwrf_program(seed, generator_config)
    return _validate_one(optimizer, program, config, check_wwrf, True)


def isolated_fuzz_optimizer(
    optimizer,
    seeds: Sequence[int],
    generator_config: GeneratorConfig = GeneratorConfig(),
    config: Optional[SemanticsConfig] = None,
    policy: IsolationPolicy = IsolationPolicy(),
    check_wwrf: bool = True,
):
    """Fault-isolated counterpart of :func:`repro.fuzz.fuzz_optimizer`.

    Returns ``(FuzzReport, IsolatedResult)``: the familiar campaign
    report aggregated over the seeds that produced verdicts, alongside
    the per-seed outcomes (isolated failures appear in the latter, as
    failures of the harness rather than counterexamples to the theorem).
    """
    from repro.fuzz import FuzzFailure, FuzzReport
    from repro.lang.printer import format_program

    started = time.monotonic()
    tasks = [
        (seed, _fuzz_one, (optimizer, seed, generator_config, config, check_wwrf))
        for seed in seeds
    ]

    def shrink(args, kwargs):
        opt, seed, gen, cfg, wwrf = args
        return (opt, seed, gen, _governed_config(cfg, policy), wwrf), kwargs

    batch = run_batch_isolated(tasks, policy, shrink=shrink)

    transformed = 0
    skipped = 0
    confidence = Confidence.PROVED
    failures: List[FuzzFailure] = []
    for outcome in batch.outcomes:
        if not outcome.ok:
            skipped += 1
            confidence = Confidence.weakest((confidence, Confidence.BOUNDED))
            continue
        report = outcome.result
        if report.changed:
            transformed += 1
        confidence = Confidence.weakest((confidence, report.confidence))
        if not report.refinement.definitive:
            skipped += 1
            continue
        if not report.ok:
            program = random_wwrf_program(outcome.key, generator_config)
            failures.append(
                FuzzFailure(outcome.key, str(report), format_program(program))
            )
    report = FuzzReport(
        optimizer.name,
        len(tasks),
        transformed,
        skipped,
        tuple(failures),
        time.monotonic() - started,
        0,
        confidence,
    )
    return report, batch


__all__ = [
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_OOM",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "IsolationPolicy",
    "ProgramOutcome",
    "IsolatedResult",
    "ForkWorker",
    "run_isolated",
    "run_batch_isolated",
    "isolated_validate_corpus",
    "isolated_fuzz_optimizer",
]
