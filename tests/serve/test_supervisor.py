"""The supervisor: retry/degradation ladder, confidence capping, poison
quarantine, store integration.

The soundness property under test (ISSUE acceptance): *no sequence of
worker failures can make the service overclaim* — an answer produced on
a degraded rung is capped at that rung's confidence on the parent side,
and a job the ladder cannot answer comes back unanswered, never guessed.

Chaos targeting note: each attempt runs in a freshly forked child which
inherits a COPY of the injector, so per-process ``count``/``after``
counters reset every attempt.  Rules therefore target rungs via the
rung-qualified key ``"<name>:<rung>"`` that ``supervisor.job`` passes.
"""

import pytest

from repro import jobs
from repro.jobs import RUNG_BOUNDED, RUNG_EXHAUSTIVE, RUNG_SAMPLED
from repro.robust.chaos import FaultRule, chaos_rules
from repro.robust.retry import RetryPolicy
from repro.serve.store import ContentStore
from repro.serve.supervisor import (
    JOB_KINDS,
    JobSpec,
    Supervisor,
    SupervisorConfig,
)

SB = """
//! name: SB
//! exists (0, 0)
//! forbidden (7, 7)
atomics x, y;
fn t1 { entry: x.rlx := 1; r1 := y.rlx; print(r1); return; }
fn t2 { entry: y.rlx := 1; r2 := x.rlx; print(r2); return; }
threads t1, t2;
"""

STRAIGHTLINE = """
fn t1 {
entry:
    r := 2;
    s := r * 3;
    print(s);
    return;
}
threads t1;
"""

#: A spin loop whose exploration never ends, behind two assignments
#: constprop rewrites: validating it explores source and target.
DIVERGENT_CHANGED = """
atomics x;
fn spin {
entry:
    a := 2;
    b := a * 3;
    print(b);
    jmp loop;
loop:
    r := x.rlx;
    x.rlx := r + 1;
    print(r);
    jmp loop;
}
threads spin;
"""

#: Two unsynchronized na-writes: the static ww tier cannot discharge
#: them, so a races job explores.
RACY = """
fn t1 { entry: a.na := 1; return; }
fn t2 { entry: a.na := 2; return; }
threads t1, t2;
"""

FAST = SupervisorConfig(
    job_deadline_seconds=15.0,
    retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
    quarantine_after=3,
)


def spec(kind="litmus", source=SB, name="t", **options):
    return JobSpec(kind, source, name=name, options=options)


class TestSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec("frobnicate", SB)

    def test_content_key_discriminates_options(self):
        a = JobSpec("validate", SB, options={"opt": "constprop"})
        b = JobSpec("validate", SB, options={"opt": "dce"})
        assert a.content_key() != b.content_key()
        assert a.content_key() == JobSpec(
            "validate", SB, name="other", options={"opt": "constprop"}
        ).content_key()  # names don't change content identity


class TestHappyPath:
    def test_litmus_proved(self):
        result = Supervisor(config=FAST).run_job(spec())
        assert result.ok is True
        assert result.confidence == "PROVED"
        assert result.rung == RUNG_EXHAUSTIVE
        assert result.attempts == ((RUNG_EXHAUSTIVE, "ok"),)
        assert not result.cached

    def test_litmus_spec_violation_is_a_verdict(self):
        bad = SB.replace("//! exists (0, 0)", "//! exists (9, 9)")
        result = Supervisor(config=FAST).run_job(spec(source=bad))
        assert result.ok is False  # answered, with PROVED evidence of failure
        assert result.confidence == "PROVED"
        assert "not observed" in result.detail

    def test_validate_proved(self):
        result = Supervisor(config=FAST).run_job(
            spec(kind="validate", source=STRAIGHTLINE, opt="constprop")
        )
        assert result.ok is True
        assert result.confidence == "PROVED"

    def test_races_answered(self):
        result = Supervisor(config=FAST).run_job(
            spec(kind="races", source=STRAIGHTLINE)
        )
        assert result.ok is True
        assert result.confidence == "PROVED"

    def test_explorations_are_counted_once_per_program(self):
        supervisor = Supervisor(config=FAST)
        # dce leaves SB unchanged: one exploration serves both sides.
        supervisor.run_job(spec(kind="validate", source=SB, opt="dce"))
        # The ww and rw scans read one graph.
        supervisor.run_job(spec(kind="races", source=RACY))
        assert supervisor.stats()["explorations"] == 2
        # The static tiers discharge SB: a 0-state proof, no exploration.
        result = supervisor.run_job(spec(kind="races", source=SB))
        assert (result.ok, result.confidence) == (True, "PROVED")
        assert "0 states" in result.detail
        assert supervisor.stats()["explorations"] == 2

    def test_parse_error_is_unanswered_not_a_crash(self):
        result = Supervisor(config=FAST).run_job(spec(source="not a program ^"))
        assert result.ok is None
        assert "every rung failed" in result.error
        assert len(result.attempts) == 3  # the whole ladder was walked
        assert Supervisor(config=FAST).stats()["worker_crashes"] == 0


class TestStoreIntegration:
    def test_second_submission_is_cached(self, tmp_path):
        supervisor = Supervisor(ContentStore(str(tmp_path)), FAST)
        first = supervisor.run_job(spec())
        second = supervisor.run_job(spec())
        assert not first.cached and second.cached
        assert (second.ok, second.confidence) == (first.ok, first.confidence)
        assert supervisor.stats()["cached"] == 1

    def test_cache_is_shared_across_supervisors(self, tmp_path):
        store = ContentStore(str(tmp_path))
        Supervisor(store, FAST).run_job(spec())
        warm = Supervisor(store, FAST).run_job(spec())
        assert warm.cached and warm.confidence == "PROVED"

    def test_semantics_change_turns_warm_store_into_miss(
        self, tmp_path, monkeypatch
    ):
        """A stored verdict must not outlive a change to the semantics:
        the version is part of the key, so the old entry silently misses
        (it is not corruption, so nothing is quarantined)."""
        from repro.semantics import version

        store = ContentStore(str(tmp_path))
        Supervisor(store, FAST).run_job(spec())
        assert Supervisor(store, FAST).run_job(spec()).cached
        monkeypatch.setattr(version, "SEMANTICS_VERSION", "ps21-repro-next")
        fresh = Supervisor(store, FAST).run_job(spec())
        assert not fresh.cached and fresh.confidence == "PROVED"
        assert store.quarantined == 0
        assert not (tmp_path / "quarantine").exists()


class TestDegradation:
    def test_killed_exhaustive_rung_caps_at_bounded(self, tmp_path):
        """The bounded rerun may well explore exhaustively — the answer
        is still capped at BOUNDED because the PROVED rung never ran."""
        store = ContentStore(str(tmp_path))
        supervisor = Supervisor(store, FAST)
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", key="t:exhaustive")
        ):
            result = supervisor.run_job(spec())
        assert result.ok is True
        assert result.rung == RUNG_BOUNDED
        assert result.confidence == "BOUNDED"  # never PROVED off a degraded path
        assert result.attempts == (
            (RUNG_EXHAUSTIVE, "crashed"), (RUNG_BOUNDED, "ok"),
        )
        assert supervisor.stats()["degraded"] == 1
        # Degraded answers are never persisted: a later warm start must
        # not replay BOUNDED evidence as if it were a proof.
        assert store.get(spec().content_key()) is None

    def test_truncated_bounded_rung_judges_the_clauses_alone(self, monkeypatch):
        """Unlike ``repro litmus`` (where a truncated run fails the spec),
        the service answers a truncated bounded rung by its clauses,
        capped at BOUNDED."""
        # The forked attempt inherits the patched cap.
        monkeypatch.setattr(jobs, "BOUNDED_MAX_STATES", 3)
        only_forbidden = SB.replace("//! exists (0, 0)\n", "")
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", key="t:exhaustive")
        ):
            result = Supervisor(config=FAST).run_job(spec(source=only_forbidden))
        assert result.ok is True
        assert (result.rung, result.confidence) == (RUNG_BOUNDED, "BOUNDED")
        assert "spec OK" in result.detail

    def test_tripped_rung_answers_from_its_partial_work(self):
        """A rung that trips its budget is not killed and rerun: it
        answers BOUNDED from its partial graphs.  Source and target
        explorations share the attempt's one clock, so both fit inside
        the hard timeout."""
        config = SupervisorConfig(
            job_deadline_seconds=2.0,
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
        )
        supervisor = Supervisor(config=config)
        result = supervisor.run_job(
            spec(kind="validate", source=DIVERGENT_CHANGED, opt="constprop")
        )
        assert result.ok is True
        assert result.rung == RUNG_EXHAUSTIVE
        assert result.confidence == "BOUNDED"
        assert result.attempts == ((RUNG_EXHAUSTIVE, "ok"),)
        assert supervisor.stats()["explorations"] == 2

    def test_two_dead_rungs_fall_to_sampled(self):
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", key="t:exhaustive"),
            FaultRule("supervisor.job", kind="kill", key="t:bounded"),
        ):
            result = Supervisor(config=FAST).run_job(spec())
        assert result.ok is True
        assert result.rung == RUNG_SAMPLED
        assert result.confidence == "SAMPLED"

    def test_sampled_rung_runs_the_jobs_own_pass(self):
        """The last rung validates with the job's optimizer behind the
        strict gate, under the job's config."""
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", key="t:exhaustive"),
            FaultRule("supervisor.job", kind="kill", key="t:bounded"),
        ):
            result = Supervisor(config=FAST).run_job(
                spec(kind="validate", source=STRAIGHTLINE, opt="constprop",
                     strict=True)
            )
        assert (result.ok, result.rung, result.confidence) == (
            True, RUNG_SAMPLED, "SAMPLED",
        )
        assert "sampled refinement" in result.detail

    def test_oom_counts_as_a_worker_death(self):
        supervisor = Supervisor(config=FAST)
        with chaos_rules(
            FaultRule("supervisor.job", kind="oom", key="t:exhaustive")
        ):
            result = supervisor.run_job(spec())
        assert result.ok is True
        assert supervisor.stats()["worker_crashes"] == 1

    def test_single_attempt_config_disables_degradation(self):
        one_shot = SupervisorConfig(
            job_deadline_seconds=15.0, retry=RetryPolicy(max_attempts=1)
        )
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", key="t:exhaustive")
        ):
            result = Supervisor(config=one_shot).run_job(spec())
        assert result.ok is None
        assert result.attempts == ((RUNG_EXHAUSTIVE, "crashed"),)


class TestQuarantine:
    def test_poison_job_is_quarantined_then_refused(self):
        supervisor = Supervisor(config=FAST)
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", count=None)
        ):
            first = supervisor.run_job(spec())
        assert first.ok is None
        assert "quarantined" in first.error
        assert len(first.attempts) == FAST.quarantine_after
        assert supervisor.is_quarantined(spec().content_key())

        # Resubmission is refused immediately: no worker is burned.
        crashes_before = supervisor.stats()["worker_crashes"]
        again = supervisor.run_job(spec())
        assert again.ok is None
        assert again.attempts == ()
        assert "poison" in again.error
        assert supervisor.stats()["worker_crashes"] == crashes_before

    def test_other_jobs_unaffected_by_poison(self):
        """Quarantine is per content key: a different program sails
        through even while the poison one is being refused."""
        supervisor = Supervisor(config=FAST)
        with chaos_rules(
            FaultRule("supervisor.job", kind="kill", key="bad:exhaustive",
                      count=None),
            FaultRule("supervisor.job", kind="kill", key="bad:bounded",
                      count=None),
            FaultRule("supervisor.job", kind="kill", key="bad:sampled",
                      count=None),
        ):
            dead = supervisor.run_job(spec(name="bad"))
            alive = supervisor.run_job(
                spec(kind="races", source=STRAIGHTLINE, name="good")
            )
        assert dead.ok is None
        assert alive.ok is True and alive.confidence == "PROVED"


class TestBatchAndStats:
    def test_run_batch_preserves_order(self):
        supervisor = Supervisor(config=FAST)
        results = supervisor.run_batch([
            spec(name="a"), spec(kind="races", source=STRAIGHTLINE, name="b"),
        ])
        assert [r.name for r in results] == ["a", "b"]
        assert all(r.ok is True for r in results)
        stats = supervisor.stats()
        assert stats["jobs"] == 2 and stats["answered"] == 2

    def test_result_dict_shape(self):
        result = Supervisor(config=FAST).run_job(spec())
        data = result.as_dict()
        assert data["ok"] is True
        assert data["confidence"] == "PROVED"
        assert data["attempts"] == [[RUNG_EXHAUSTIVE, "ok"]]
        assert set(data) == {
            "name", "kind", "ok", "confidence", "detail", "rung",
            "attempts", "cached", "error", "elapsed_seconds",
        }

    def test_all_kinds_are_routable(self):
        assert set(JOB_KINDS) == {"litmus", "validate", "races"}
