"""``--cache DIR`` on the ``validate``, ``races`` and ``fuzz`` sweeps.

A warm re-run prints what the cold run printed, exits the same way, and
verifies nothing: every verdict comes from the store.  Any flag that
changes the check or its semantics (``--no-wwrf``, ``--strict``,
``--np``, ``--promises 1``) names different jobs, so it misses.
(``litmus --cache`` is covered through ``run_spec_file`` in
``tests/perf/test_cache.py``.)
"""

import re

import pytest

import repro.jobs
from repro.cli import main

SB = """
atomics x, y;
fn t1 { entry: x.rlx := 1; r1 := y.rlx; print(r1); return; }
fn t2 { entry: y.rlx := 1; r2 := x.rlx; print(r2); return; }
threads t1, t2;
"""

RACY = """
fn t1 { entry: a.na := 1; return; }
fn t2 { entry: a.na := 2; return; }
threads t1, t2;
"""

OPTIMIZABLE = """
fn t1 {
entry:
    r := 2;
    s := r * 3;
    dead := 9;
    print(s);
    return;
}
threads t1;
"""

#: command → (argv without files, programs swept, flags that must miss)
SWEEPS = {
    "validate": (
        ["validate", "--opt", "dce"], [SB, OPTIMIZABLE],
        [["--no-wwrf"], ["--strict"], ["--promises", "1"]],
    ),
    "races": (["races"], [SB, RACY], [["--np"], ["--promises", "1"]]),
    "fuzz": (
        ["fuzz", "--opt", "dce", "--seeds", "0:3", "--instrs", "3"], [],
        [["--no-wwrf"]],
    ),
}


@pytest.fixture
def runs(monkeypatch):
    """Kinds of the verifications actually run (store misses)."""
    calls = []
    real = repro.jobs.run_job

    def counting(kind, *args, **kwargs):
        calls.append(kind)
        return real(kind, *args, **kwargs)

    monkeypatch.setattr(repro.jobs, "run_job", counting)
    return calls


def _sweep(tmp_path, command, extra=()):
    argv, programs, _ = SWEEPS[command]
    files = []
    for index, source in enumerate(programs):
        path = tmp_path / f"prog{index}.rtl"
        path.write_text(source)
        files.append(str(path))
    return argv + list(extra) + files + ["--cache", str(tmp_path / "cache")]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    # A fuzz report carries its wall clock and its store-hit count.
    out = re.sub(r"\d+\.\d+s, confidence", "Ns, confidence", out)
    return code, re.sub(r", \d+ cached", "", out)


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_warm_rerun_is_identical_and_answered_from_the_cache(
    tmp_path, capsys, runs, command
):
    argv = _sweep(tmp_path, command)
    cold = _run(capsys, argv)
    assert runs, "the cold run verified nothing"
    runs.clear()
    warm = _run(capsys, argv)
    assert warm == cold
    assert runs == []


def test_fuzz_warm_report_counts_the_hits(tmp_path, capsys):
    argv = _sweep(tmp_path, "fuzz")
    main(argv)
    assert "cached" not in capsys.readouterr().out
    main(argv)
    assert ", 3 cached," in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flags",
    [(command, flags) for command in sorted(SWEEPS) for flags in SWEEPS[command][2]],
    ids=lambda value: value if isinstance(value, str) else " ".join(value),
)
def test_semantics_changing_flags_miss(tmp_path, capsys, runs, command, flags):
    _run(capsys, _sweep(tmp_path, command))
    cold = len(runs)
    runs.clear()
    _run(capsys, _sweep(tmp_path, command, flags))
    assert len(runs) == cold
