"""One verdict store: the CLI's ``--cache`` and the service's ``--store``
key and store verdicts one way, so each answers the other.

Entries written under the earlier, separate key schemes — the sweep
cache's ``{"version", "kind", "payload"}`` envelope and the daemon's
``{"ok", "confidence", "detail", "rung"}`` payload — are never found
under the shared key: plain misses, nothing quarantined.
"""

import json

import pytest

import repro.jobs
from repro.cli import main
from repro.robust.retry import RetryPolicy
from repro.semantics import version
from repro.semantics.thread import SemanticsConfig
from repro.serve.store import ContentStore, content_key
from repro.serve.supervisor import JobSpec, Supervisor, SupervisorConfig

SB = """//! exists (0, 0)
//! forbidden (7, 7)
atomics x, y;
fn t1 { entry: x.rlx := 1; r1 := y.rlx; print(r1); return; }
fn t2 { entry: y.rlx := 1; r2 := x.rlx; print(r2); return; }
threads t1, t2;
"""

FAST = SupervisorConfig(
    job_deadline_seconds=15.0,
    retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
)

CASES = [
    # (CLI argv before the file, the same job as the service sees it)
    (["litmus"], "litmus", {}),
    (["validate", "--opt", "dce"], "validate", {"opt": "dce"}),
]


@pytest.fixture
def sb_file(tmp_path):
    path = tmp_path / "sb.litmus"
    path.write_text(SB)
    return str(path)


def _cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _refuse(*args, **kwargs):
    raise AssertionError("recomputed a verdict the store holds")


@pytest.mark.parametrize("argv, kind, options", CASES, ids=["litmus", "validate"])
def test_cli_verdict_answers_the_service(tmp_path, capsys, sb_file, argv, kind, options):
    root = str(tmp_path / "store")
    assert _cli(capsys, argv + [sb_file, "--cache", root])[0] == 0
    store = ContentStore(root)
    result = Supervisor(store, FAST).run_job(JobSpec(kind, SB, options=options))
    assert result.cached and result.ok is True
    assert result.confidence == "PROVED"
    assert store.entry_count() == 1  # one verdict, one entry


@pytest.mark.parametrize("argv, kind, options", CASES, ids=["litmus", "validate"])
def test_service_verdict_answers_the_cli(
    tmp_path, capsys, monkeypatch, sb_file, argv, kind, options
):
    fresh = _cli(capsys, argv + [sb_file])
    root = str(tmp_path / "store")
    served = Supervisor(ContentStore(root), FAST).run_job(JobSpec(kind, SB, options=options))
    assert not served.cached and served.confidence == "PROVED"

    monkeypatch.setattr(repro.jobs, "run_job", _refuse)
    code, out = _cli(capsys, argv + [sb_file, "--cache", root])
    if kind == "litmus":
        assert out.endswith(f"cache: 1/1 files answered from {root}\n")
        out = out.rsplit("cache:", 1)[0]
    assert (code, out) == fresh
    assert ContentStore(root).entry_count() == 1


def _legacy_sweep_key(text, config, kind):
    """The key the retired sweep cache used."""
    return content_key(version.SEMANTICS_VERSION, version.config_digest(config), kind, text)


def _legacy_daemon_key(kind, source, options):
    """The key the daemon's store used before it shared the sweep key."""
    return content_key(
        version.SEMANTICS_VERSION, kind, source, json.dumps(options, sort_keys=True)
    )


def test_entries_under_the_retired_keys_are_plain_misses(tmp_path, capsys, sb_file):
    root = str(tmp_path / "store")
    legacy = ContentStore(root)
    # A verdict that would be wrong if served: the spec does hold.
    lie = {"ok": False, "failures": ["stale"], "observed": [], "exhaustive": True}
    legacy.put(
        _legacy_sweep_key(SB, SemanticsConfig(), "litmus"),
        {"version": version.SEMANTICS_VERSION, "kind": "litmus", "payload": lie},
    )
    legacy.put(
        _legacy_sweep_key(SB, SemanticsConfig(por="dpor"),
                          "validate:dce:strict=0:wwrf=1:rw=0:tier=0"),
        {"version": version.SEMANTICS_VERSION, "kind": "validate", "payload": lie},
    )
    for kind, options in (("litmus", {}), ("validate", {"opt": "dce"})):
        legacy.put(
            _legacy_daemon_key(kind, SB, options),
            {"ok": False, "confidence": "PROVED", "detail": "stale", "rung": "exhaustive"},
        )
    assert legacy.entry_count() == 4

    code, out = _cli(capsys, ["litmus", sb_file, "--cache", root])
    assert code == 0 and "spec OK" in out
    assert f"cache: 0/1 files answered from {root}" in out
    assert _cli(capsys, ["validate", "--opt", "dce", sb_file, "--cache", root])[0] == 0

    store = ContentStore(root)
    supervisor = Supervisor(store, FAST)
    for kind, options in (("litmus", {}), ("validate", {"opt": "dce"})):
        result = supervisor.run_job(JobSpec(kind, SB, options=options))
        # The CLI's fresh verdict answers; the stale entries never do.
        assert result.cached and result.ok is True
    assert store.quarantined == 0 and store.quarantine_count() == 0
    assert store.entry_count() == 6  # the old entries stay, untouched
