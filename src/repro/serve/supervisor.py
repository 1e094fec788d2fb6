"""Supervised job execution: retries, degradation, poison quarantine.

The supervisor is the layer between the daemon's work queue and the
governed child processes of :class:`repro.robust.isolation.ForkWorker`.
Every job attempt runs in its own fresh child; the supervisor's contract
is that a job *always* comes back as a :class:`JobResult` — possibly
unanswered, never an exception, never a hang — and that a degraded
answer can never overclaim its confidence:

* **Health-checked execution** — each attempt runs under a hard
  wall-clock timeout (and optional memory ceiling); a worker that
  crashes, hangs, or OOMs is classified, not propagated.
* **Retry with backoff** — failed attempts are retried per a
  :class:`~repro.robust.retry.RetryPolicy` (exponential backoff with
  deterministic jitter), each retry one rung further down the
  degradation ladder.
* **Degradation ladder** — the rungs of :data:`repro.jobs.LADDER`, one
  per attempt: exhaustive (may earn ``PROVED``), bounded (at best
  ``BOUNDED``), sampled (at best ``SAMPLED``).  Each attempt's child
  runs :func:`repro.jobs.run_job` on its rung under a cooperative budget
  inside the hard timeout, so a rung that trips its budget answers from
  its partial work; only a child that dies falls to the next rung.  The
  cap is enforced *here*, on the parent side, so no child bug can
  smuggle a ``PROVED`` out of a degraded rung.
* **Poison quarantine** — a job whose workers die ``quarantine_after``
  times (crash/OOM, not mere timeouts) is quarantined by content key:
  further submissions of the same program are refused immediately
  instead of burning a worker each time.

The ``supervisor.job`` chaos fault point fires inside the child at the
start of every attempt, so the fault-injection suite can kill, delay, or
OOM workers deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.jobs import (
    JOB_KINDS,
    LADDER,
    RUNG_CONFIDENCE,
    RUNG_EXHAUSTIVE,
    job_config,
    remember,
    run_job,
    verdict_key,
)
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.robust.isolation import STATUS_CRASHED, STATUS_OK, STATUS_OOM, ForkWorker
from repro.robust.retry import RetryPolicy
from repro.semantics.thread import SemanticsConfig
from repro.serve.store import ContentStore


@dataclass(frozen=True)
class JobSpec:
    """One unit of verification work submitted to the service."""

    kind: str
    source: str
    name: str = ""
    options: Mapping[str, Any] = field(default_factory=dict)
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; one of {JOB_KINDS}")

    def config(self) -> SemanticsConfig:
        """The semantics configuration the job runs under (see
        :func:`repro.jobs.job_config`)."""
        try:
            return job_config(self.kind, self.source)
        except ValueError:
            # A malformed ``//!`` header: the job fails in its worker and
            # is never stored; the default still gives it a stable key.
            return SemanticsConfig()

    def content_key(self) -> str:
        """The job's content address (store key and quarantine identity):
        :func:`repro.jobs.verdict_key`, the key every CLI sweep uses too.

        The semantics version participates, so a stored verdict never
        outlives a change to the semantics that earned it.
        """
        return verdict_key(self.kind, self.source, self.options, self.config())


@dataclass(frozen=True)
class JobResult:
    """What the service says about one job.

    ``ok`` is three-valued: ``True``/``False`` is the verdict,
    ``None`` means the service could not answer (every rung failed, or
    the job is quarantined) — an *unanswered* job is a harness failure,
    never a fabricated verdict.  ``confidence`` is the honest evidence
    strength (capped by the rung that produced the answer), ``attempts``
    is the audit trail of ``(rung, status)`` pairs.
    """

    name: str
    kind: str
    ok: Optional[bool]
    confidence: Optional[str] = None
    detail: str = ""
    rung: Optional[str] = None
    attempts: Tuple[Tuple[str, str], ...] = ()
    cached: bool = False
    error: str = ""
    elapsed_seconds: float = 0.0

    @property
    def answered(self) -> bool:
        return self.ok is not None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-shaped form (what the daemon serializes)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "confidence": self.confidence,
            "detail": self.detail,
            "rung": self.rung,
            "attempts": [list(a) for a in self.attempts],
            "cached": self.cached,
            "error": self.error,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }

    def __str__(self) -> str:
        if not self.answered:
            return f"[{self.name or self.kind}] UNANSWERED: {self.error}"
        verdict = "ok" if self.ok else "FAILED"
        src = "cache" if self.cached else self.rung
        return f"[{self.name or self.kind}] {verdict} ({self.confidence}, {src})"


@dataclass(frozen=True)
class SupervisorConfig:
    """Limits and policies for supervised execution.

    ``job_deadline_seconds`` is the hard per-attempt wall clock (each
    rung down the ladder halves it); ``retry`` also bounds how many
    rungs are walked (``max_attempts`` of 1 disables degradation
    entirely).  ``quarantine_after`` counts worker *deaths* (crash or
    OOM) per content key before the program is declared poison.
    """

    job_deadline_seconds: float = 30.0
    memory_mb: Optional[float] = None
    retry: RetryPolicy = RetryPolicy(max_attempts=3, base_delay_seconds=0.05)
    quarantine_after: int = 3


class Supervisor:
    """Runs :class:`JobSpec`\\ s through governed workers, never raising.

    Thread-safe: the daemon's dispatcher threads call :meth:`run_job`
    concurrently.  ``store`` (a :class:`~repro.serve.store.ContentStore`)
    is consulted before any worker is spawned and updated only with
    exhaustively-earned verdicts, so a warm store never replays a
    degraded answer as anything stronger than it was.
    """

    def __init__(
        self,
        store: Optional[ContentStore] = None,
        config: SupervisorConfig = SupervisorConfig(),
        sleep=time.sleep,
    ) -> None:
        self.store = store
        self.config = config
        self._sleep = sleep
        self._lock = threading.Lock()
        self._crashes: Dict[str, int] = {}
        self._poisoned: Dict[str, str] = {}
        self.counters: Dict[str, int] = {
            "jobs": 0,
            "answered": 0,
            "unanswered": 0,
            "cached": 0,
            "degraded": 0,
            "retries": 0,
            "worker_crashes": 0,
            "quarantined_jobs": 0,
            "explorations": 0,
        }

    # -- quarantine bookkeeping ----------------------------------------------

    def is_quarantined(self, key: str) -> bool:
        """Whether ``key`` has been declared poison (refused on sight)."""
        with self._lock:
            return key in self._poisoned

    def _record_crash(self, key: str, detail: str) -> bool:
        """Count a worker death; returns True when the key turns poison."""
        with self._lock:
            self.counters["worker_crashes"] += 1
            count = self._crashes.get(key, 0) + 1
            self._crashes[key] = count
            if count >= self.config.quarantine_after and key not in self._poisoned:
                self._poisoned[key] = detail
                return True
            return key in self._poisoned

    def _bump(self, counter: str, by: int = 1) -> None:
        # Tolerant of keys outside the seed dict: structured counters
        # like ``downgrade:<reason>`` appear on first use.
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + by

    # -- execution ------------------------------------------------------------

    def run_job(self, spec: JobSpec) -> JobResult:
        """Execute one job to a :class:`JobResult`; never raises."""
        started = time.monotonic()
        self._bump("jobs")
        config = spec.config()
        key = verdict_key(spec.kind, spec.source, spec.options, config)

        with self._lock:
            poison = self._poisoned.get(key)
        if poison is not None:
            self._bump("unanswered")
            self._bump("quarantined_jobs")
            return JobResult(
                spec.name, spec.kind, ok=None,
                error=f"quarantined poison job ({poison})",
                elapsed_seconds=time.monotonic() - started,
            )

        if self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                self._bump("answered")
                self._bump("cached")
                return JobResult(
                    spec.name, spec.kind,
                    ok=cached["ok"],
                    confidence=cached["confidence"],
                    detail=cached["detail"],
                    rung=RUNG_EXHAUSTIVE,  # only exhaustive proofs are stored
                    cached=True,
                    elapsed_seconds=time.monotonic() - started,
                )

        deadline = spec.deadline_seconds or self.config.job_deadline_seconds
        attempts: List[Tuple[str, str]] = []
        rungs = LADDER[: max(1, self.config.retry.max_attempts)]
        for index, rung in enumerate(rungs):
            if index:
                self._bump("retries")
                delay = self.config.retry.delay(index - 1, key=key)
                if delay > 0:
                    self._sleep(delay)
            attempt_deadline = max(0.2, deadline * (0.5 ** index))
            # A fresh child per attempt: chaos keying relies on the
            # per-process fault counters resetting (see _execute_job).
            with ForkWorker(self.config.memory_mb) as worker:
                status, value = worker.run(
                    _execute_job,
                    (
                        spec.kind, spec.source, dict(spec.options), config, rung,
                        attempt_deadline, spec.name,
                    ),
                    timeout=attempt_deadline,
                )
            attempts.append((rung, status))
            if status == STATUS_OK:
                return self._answered(
                    spec, key, rung, value, tuple(attempts), started
                )
            if status in (STATUS_CRASHED, STATUS_OOM):
                if self._record_crash(key, value):
                    self._bump("unanswered")
                    self._bump("quarantined_jobs")
                    return JobResult(
                        spec.name, spec.kind, ok=None,
                        attempts=tuple(attempts),
                        error=f"quarantined after repeated worker deaths ({value})",
                        elapsed_seconds=time.monotonic() - started,
                    )

        self._bump("unanswered")
        trail = ", ".join(f"{rung}:{status}" for rung, status in attempts)
        return JobResult(
            spec.name, spec.kind, ok=None,
            attempts=tuple(attempts),
            error=f"every rung failed ({trail})",
            elapsed_seconds=time.monotonic() - started,
        )

    def _answered(
        self,
        spec: JobSpec,
        key: str,
        rung: str,
        verdict: Dict[str, Any],
        attempts: Tuple[Tuple[str, str], ...],
        started: float,
    ) -> JobResult:
        """Fold a child verdict into a result, capping its confidence.

        The cap is the soundness gate of the whole service: whatever the
        child claims, an answer from a degraded rung (or a non-exhaustive
        exploration) can never read ``PROVED``.
        """
        claimed = Confidence(verdict["confidence"])
        if not verdict.get("exhaustive", False):
            claimed = Confidence.weakest((claimed, Confidence.BOUNDED))
        capped = Confidence.weakest((claimed, RUNG_CONFIDENCE[rung]))
        self._bump("answered")
        if rung != RUNG_EXHAUSTIVE:
            self._bump("degraded")
        downgrade = verdict.get("downgrade_reason")
        if downgrade:
            # Structured POR-fallback accounting: surfaces in /metrics as
            # e.g. ``downgrade:nonpreemptive``.
            self._bump(f"downgrade:{downgrade}")
        # State graphs the job built (validate/races): one per distinct
        # program and machine, so reuse shows as a lower count per job.
        self._bump("explorations", verdict.get("explorations", 0))
        # Capped below PROVED on every degraded rung, so only an
        # exhaustive-rung proof passes the store rule.
        remember(self.store, key, dict(verdict, confidence=str(capped)))
        return JobResult(
            spec.name, spec.kind,
            ok=verdict["ok"],
            confidence=str(capped),
            detail=verdict.get("detail", ""),
            rung=rung,
            attempts=attempts,
            elapsed_seconds=time.monotonic() - started,
        )

    def run_batch(self, specs) -> List[JobResult]:
        """Run jobs serially in submission order (the daemon parallelizes
        by calling :meth:`run_job` from several dispatcher threads)."""
        return [self.run_job(spec) for spec in specs]

    def stats(self) -> Dict[str, int]:
        """A snapshot of the job counters plus the poisoned-key count."""
        with self._lock:
            stats = dict(self.counters)
            stats["poisoned_keys"] = len(self._poisoned)
            return stats


# -- child-side executors -----------------------------------------------------
#
# These run in the forked worker.  They return plain JSON-shaped records
# (``ok`` / ``confidence`` / ``exhaustive`` / ``detail``) — the parent
# supervises, classifies, and caps; the child only computes.


def _execute_job(
    kind: str,
    source: str,
    options: Dict[str, Any],
    config: SemanticsConfig,
    rung: str,
    deadline_seconds: float,
    name: str = "",
) -> Dict[str, Any]:
    from repro.robust import chaos

    # Keyed by "<job>:<rung>" — each attempt runs in a fresh forked
    # child, so per-process fault counters reset; a rung-qualified key is
    # what lets chaos rules target (say) only the exhaustive attempt
    # deterministically across those processes.
    chaos.fault_point("supervisor.job", f"{name or kind}:{rung}")
    # A cooperative budget well inside the hard kill timeout, so a rung
    # that trips it answers from its partial work instead of being
    # killed from outside.
    budget = Budget(deadline_seconds=max(0.05, deadline_seconds * 0.8))
    return run_job(kind, source, options, replace(config, budget=budget), rung=rung)


__all__ = [
    "JOB_KINDS",
    "LADDER",
    "JobSpec",
    "JobResult",
    "SupervisorConfig",
    "Supervisor",
]
