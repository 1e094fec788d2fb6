"""The persistent verdict cache: keying, round-trips, invalidation, integrity.

``--cache DIR`` is a :class:`~repro.serve.store.ContentStore` filled by
the job layer (:mod:`repro.jobs`): :func:`~repro.jobs.verdict_key` keys
a verdict, :func:`~repro.jobs.remember` enforces the exhaustive-only
store rule, and :func:`~repro.jobs.cached_job` answers from the store.

The warm-cache round-trip: run a sweep with ``--cache``, mutate exactly
one program, re-run, and exactly that program re-explores.  Corrupt
entries are quarantined and recomputed — the verdict is never served,
the evidence moves to ``root/quarantine/``, and the sweep survives;
entries written under a different :data:`SEMANTICS_VERSION` are silent
misses.  A writer SIGKILLed mid-publish must leave the previous entry
readable (write-temp + ``os.replace`` atomicity).
"""

import glob
import json
import multiprocessing
import os
import signal

from repro.jobs import cached_job, remember, verdict_key
from repro.litmus.spec import run_spec_file
from repro.semantics import version
from repro.semantics.exploration import behaviors
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig
from repro.semantics.version import behavior_digest, config_digest
from repro.serve.store import ContentStore

SPEC = """//! exists ({value})
atomics x;
fn t1 {{
entry:
    x.rlx := {value};
    r := x.rlx;
    print(r);
    return;
}}
threads t1;
"""

PROOF = {"ok": True, "exhaustive": True, "confidence": "PROVED"}


def _key(source="prog", kind="litmus", options=None, config=None):
    return verdict_key(kind, source, options or {}, config or SemanticsConfig())


def _write_specs(tmp_path, values):
    paths = []
    for i, value in enumerate(values):
        path = tmp_path / f"prog{i}.litmus"
        path.write_text(SPEC.format(value=value))
        paths.append(str(path))
    return paths


class TestKeying:
    def test_key_depends_on_program_text(self):
        assert _key("a") != _key("b")

    def test_key_depends_on_kind(self):
        assert _key("a", "litmus") != _key("a", "races")

    def test_key_depends_on_options_not_their_spelling(self):
        assert _key("a", "races", {"np": True}) != _key("a", "races")
        # Defaults and options the kind does not read name the same job.
        assert _key("a", "races", {"np": False, "opt": "dce"}) == _key("a", "races")
        assert _key("a", "validate", {"opt": "pipeline"}) == _key("a", "validate")

    def test_config_digest_tracks_semantics_knobs(self):
        base = SemanticsConfig()
        assert config_digest(base) != config_digest(
            SemanticsConfig(promise_oracle=SyntacticPromises(budget=1, max_outstanding=1))
        )
        assert config_digest(base) != config_digest(SemanticsConfig(max_outputs=4))

    def test_budget_excluded_from_digest(self):
        from repro.robust.budget import Budget

        assert config_digest(SemanticsConfig()) == config_digest(
            SemanticsConfig(budget=Budget(deadline_seconds=1.0))
        )


class TestStoreAndLookup:
    def test_roundtrip(self, tmp_path):
        store = ContentStore(str(tmp_path))
        assert store.get(_key()) is None
        assert remember(store, _key(), PROOF)
        assert store.get(_key()) == PROOF
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)

    def test_non_exhaustive_results_refused(self, tmp_path):
        store = ContentStore(str(tmp_path))
        assert not remember(store, _key(), dict(PROOF, exhaustive=False))
        # An exhaustive run whose confidence was capped (a degraded rung)
        # is not a proof either.
        assert not remember(store, _key(), dict(PROOF, confidence="BOUNDED"))
        assert store.get(_key()) is None
        assert store.stores == 0

    def test_version_mismatch_is_silent_miss(self, tmp_path, monkeypatch):
        store = ContentStore(str(tmp_path))
        remember(store, _key(), PROOF)
        # A semantics-code bump changes the key, so the old entry is
        # simply not found — stale verdicts can never be trusted.
        monkeypatch.setattr(version, "SEMANTICS_VERSION", "ps21-repro-999")
        assert ContentStore(str(tmp_path)).get(_key()) is None

    def test_corrupt_json_is_quarantined_and_recomputed(self, tmp_path):
        (path,) = _write_specs(tmp_path, [1])
        root = str(tmp_path / "cache")
        assert run_spec_file(path, store=ContentStore(root)).ok
        (entry,) = glob.glob(os.path.join(root, "??", "*.json"))
        with open(entry, "w") as handle:
            handle.write("{not json")
        # The corrupt verdict is never served: the lookup misses (the
        # sweep recomputes), the evidence moves to quarantine/, and the
        # event is counted — one flipped bit no longer kills a sweep.
        store = ContentStore(root)
        assert run_spec_file(path, store=store).ok
        assert (store.hits, store.misses, store.quarantined) == (0, 1, 1)
        assert os.path.exists(
            os.path.join(root, "quarantine", os.path.basename(entry))
        )
        # Recompute-and-store healed the entry.
        assert store.stores == 1
        healed = ContentStore(root)
        assert run_spec_file(path, store=healed).ok and healed.hits == 1

    def test_tampered_payload_is_quarantined(self, tmp_path):
        store = ContentStore(str(tmp_path))
        remember(store, _key(), PROOF)
        (entry,) = glob.glob(os.path.join(str(tmp_path), "??", "*.json"))
        with open(entry) as handle:
            blob = json.load(handle)
        blob["payload"]["ok"] = False  # flip the verdict, keep the digest
        with open(entry, "w") as handle:
            json.dump(blob, handle)
        assert store.get(_key()) is None
        assert store.quarantined == 1
        assert not os.path.exists(entry)

    def test_truncated_entry_is_quarantined(self, tmp_path):
        from repro.robust.chaos import truncate_file

        store = ContentStore(str(tmp_path))
        remember(store, _key(), PROOF)
        (entry,) = glob.glob(os.path.join(str(tmp_path), "??", "*.json"))
        truncate_file(entry, fraction=0.5)
        assert store.get(_key()) is None
        assert store.quarantined == 1


def _store_then_die(root: str, payload_value: int) -> None:
    """Child task: publish an entry but get SIGKILLed at the replace point
    (the ``store.put`` chaos fault point) — a mid-write crash."""
    from repro.robust.chaos import FaultRule, chaos_rules

    with chaos_rules(FaultRule("store.put", kind="kill")):
        remember(ContentStore(root), _key(), dict(PROOF, v=payload_value))


class TestAtomicPublish:
    """A SIGKILL mid-write can never publish a torn entry."""

    def test_sigkill_mid_write_leaves_old_entry_readable(self, tmp_path):
        root = str(tmp_path)
        remember(ContentStore(root), _key(), dict(PROOF, v=1))

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_store_then_die, args=(root, 2))
        child.start()
        child.join()
        assert child.exitcode == -signal.SIGKILL

        # The kill landed after the temp write, before the publish: the
        # old entry must still be served, intact, with nothing quarantined.
        fresh = ContentStore(root)
        assert fresh.get(_key()) == dict(PROOF, v=1)
        assert fresh.quarantined == 0

    def test_killed_writers_stale_temp_is_swept(self, tmp_path):
        root = str(tmp_path)
        remember(ContentStore(root), _key(), dict(PROOF, v=1))
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_store_then_die, args=(root, 2))
        child.start()
        child.join()
        assert glob.glob(os.path.join(root, "??", "*.tmp.*"))
        # Any eviction pass sweeps the orphaned temp file.
        ContentStore(root, max_entries=100).evict()
        assert not glob.glob(os.path.join(root, "??", "*.tmp.*"))


class TestWarmRoundTrip:
    def test_mutating_one_program_reexplores_exactly_it(self, tmp_path):
        paths = _write_specs(tmp_path, [1, 2, 3])
        root = str(tmp_path / "cache")

        cold = ContentStore(root)
        for path in paths:
            assert run_spec_file(path, store=cold).ok
        assert cold.stores == 3 and cold.hits == 0

        warm = ContentStore(root)
        for path in paths:
            assert run_spec_file(path, store=warm).ok
        assert warm.hits == 3 and warm.misses == 0

        # Mutate exactly one program; only it may re-explore.
        with open(paths[1], "w") as handle:
            handle.write(SPEC.format(value=7))
        third = ContentStore(root)
        for path in paths:
            assert run_spec_file(path, store=third).ok
        assert third.hits == 2 and third.misses == 1 and third.stores == 1

    def test_cached_verdict_matches_fresh(self, tmp_path):
        (path,) = _write_specs(tmp_path, [5])
        store = ContentStore(str(tmp_path / "cache"))
        fresh = run_spec_file(path, store=store)
        cached = run_spec_file(path, store=store)
        assert cached == fresh
        assert store.hits == 1


class TestBehaviorDigest:
    def test_digest_is_deterministic_and_discriminating(self):
        from repro.litmus.library import lb

        # Promises enable LB's (1, 1) outcome, so the two behavior sets of
        # the *same* program genuinely differ — and so must their digests.
        plain = behavior_digest(behaviors(lb(), SemanticsConfig()))
        again = behavior_digest(behaviors(lb(), SemanticsConfig()))
        assert plain == again
        promising = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
        )
        assert behavior_digest(behaviors(lb(), promising)) != plain


class TestSemanticsVersionBump:
    """DPOR offering promises only where they can certify and be read
    bumped :data:`SEMANTICS_VERSION` to ``ps21-repro-7``: entries from
    earlier eras must be silent misses — never served, never mistaken for
    corruption."""

    def test_version_reflects_the_rework(self):
        assert version.SEMANTICS_VERSION == "ps21-repro-7"

    def test_old_version_entries_are_misses_not_corruption(self, tmp_path, monkeypatch):
        source = SPEC.format(value=1)
        config = SemanticsConfig()
        monkeypatch.setattr(version, "SEMANTICS_VERSION", "ps21-repro-1")
        old = cached_job(ContentStore(str(tmp_path)), "litmus", source, {}, config)
        monkeypatch.undo()
        fresh = ContentStore(str(tmp_path))
        record = cached_job(fresh, "litmus", source, {}, config)
        assert not record["cached"] and record["ok"] == old["ok"]
        # A version miss is not a corruption event: nothing quarantined,
        # and the new verdict is stored alongside the old entry.
        assert fresh.quarantined == 0 and fresh.stores == 1
        assert fresh.entry_count() == 2
        assert cached_job(fresh, "litmus", source, {}, config)["cached"]

    def test_config_digest_tracks_por_mode(self):
        digests = {config_digest(SemanticsConfig(por=por))
                   for por in ("none", "dpor")}
        assert len(digests) == 2
