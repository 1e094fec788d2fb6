"""CLI surface of the resource-governance features: ``--deadline`` /
``--memory-mb`` (one clock per command: a trip answers BOUNDED from the
partial exploration), ``explore --checkpoint/--resume``, ``fuzz
--replay``, and the exit-code contract (0 PROVED, 1 FAILED, 2 usage,
3 BOUNDED, 4 SAMPLED; corrupt persisted state — a checkpoint failing its
integrity digest — also exits 4, the weakest-evidence code, with a clear
message on stderr)."""

import re
import time

import pytest

from repro.cli import main
from repro.robust.confidence import (
    EXIT_BOUNDED,
    EXIT_CORRUPT,
    EXIT_PROVED,
)

DIVERGENT = """
atomics x;
fn spin {
entry:
    jmp loop;
loop:
    r := x.rlx;
    x.rlx := r + 1;
    print(r);
    jmp loop;
}
threads spin;
"""

#: DIVERGENT behind two assignments constprop rewrites, so validating it
#: explores two programs.
DIVERGENT_CHANGED = DIVERGENT.replace(
    "entry:\n", "entry:\n    a := 2;\n    b := a * 3;\n    print(b);\n"
)

OPTIMIZABLE = """
fn t1 {
entry:
    r := 2;
    s := r * 3;
    print(s);
    return;
}
threads t1;
"""


@pytest.fixture
def divergent_file(tmp_path):
    path = tmp_path / "divergent.rtl"
    path.write_text(DIVERGENT)
    return str(path)


@pytest.fixture
def opt_file(tmp_path):
    path = tmp_path / "opt.rtl"
    path.write_text(OPTIMIZABLE)
    return str(path)


def _states(out: str) -> int:
    return int(re.search(r"states: (\d+)", out).group(1))


class TestGovernedExplore:
    def test_deadline_exits_bounded(self, divergent_file, capsys):
        assert main(["explore", divergent_file, "--deadline", "0.4"]) == EXIT_BOUNDED
        out = capsys.readouterr().out
        assert "TRUNCATED:deadline" in out
        assert _states(out) > 0

    def test_max_states_exits_bounded(self, divergent_file, capsys):
        assert main(["explore", divergent_file, "--max-states", "60"]) == EXIT_BOUNDED
        assert "TRUNCATED:states" in capsys.readouterr().out

    def test_finite_program_still_proved(self, opt_file, capsys):
        assert main(["explore", opt_file, "--deadline", "30"]) == EXIT_PROVED
        assert "exhaustive" in capsys.readouterr().out


class TestCheckpointResume:
    def test_checkpoint_then_resume_makes_progress(self, divergent_file, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        code = main(
            ["explore", divergent_file, "--deadline", "0.3", "--checkpoint", ckpt]
        )
        assert code == EXIT_BOUNDED
        first = capsys.readouterr().out
        assert f"--resume {ckpt}" in first
        code = main(
            ["explore", divergent_file, "--resume", ckpt, "--deadline", "0.3"]
        )
        assert code == EXIT_BOUNDED
        second = capsys.readouterr().out
        assert "resumed:" in second
        assert _states(second) >= _states(first)

    def test_corrupt_checkpoint_exits_4(self, divergent_file, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = main(["explore", divergent_file, "--resume", str(bad)])
        assert code == EXIT_CORRUPT
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "corrupt" in err

    def test_truncated_checkpoint_exits_4(self, divergent_file, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        main(["explore", divergent_file, "--deadline", "0.3",
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])  # torn write
        code = main(["explore", divergent_file, "--resume", str(ckpt)])
        assert code == EXIT_CORRUPT
        assert "checkpoint error" in capsys.readouterr().err

    def test_bitflipped_checkpoint_exits_4(self, divergent_file, tmp_path, capsys):
        from repro.robust.chaos import corrupt_file

        ckpt = tmp_path / "run.ckpt"
        main(["explore", divergent_file, "--deadline", "0.3",
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        corrupt_file(str(ckpt), seed=7)
        code = main(["explore", divergent_file, "--resume", str(ckpt)])
        assert code == EXIT_CORRUPT
        assert "checkpoint error" in capsys.readouterr().err

    def test_resume_wrong_program_exits_4(self, divergent_file, opt_file, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        main(["explore", divergent_file, "--deadline", "0.3", "--checkpoint", ckpt])
        capsys.readouterr()
        code = main(["explore", opt_file, "--resume", ckpt])
        assert code == EXIT_CORRUPT
        assert "checkpoint error" in capsys.readouterr().err


class TestGovernedVerdicts:
    def test_truncated_races_exit_bounded_with_warning(self, divergent_file, capsys):
        code = main(["races", divergent_file, "--deadline", "0.3"])
        assert code == EXIT_BOUNDED
        assert "not proved" in capsys.readouterr().out

    def test_validate_degrades_instead_of_truncating(self, divergent_file, capsys):
        """A budget trip degrades the verdict to BOUNDED, answered from
        the partial exploration: never rerun, never sampled."""
        code = main(["validate", divergent_file, "--opt", "constprop",
                     "--deadline", "0.5"])
        assert code == EXIT_BOUNDED
        out = capsys.readouterr().out
        assert "confidence=" in out
        assert "not a proof" in out

    def test_two_explorations_share_the_clock(self, tmp_path, capsys):
        """Source and target of one validation meter against one
        deadline: the target starts with what the source left, so the
        whole command takes one deadline plus the salvage, where a clock
        per exploration takes at least two deadlines."""
        path = tmp_path / "changed.rtl"
        path.write_text(DIVERGENT_CHANGED)
        deadline = 1.0
        started = time.monotonic()
        code = main(["validate", str(path), "--opt", "constprop",
                     "--deadline", str(deadline)])
        elapsed = time.monotonic() - started
        assert code == EXIT_BOUNDED
        assert "not a proof" in capsys.readouterr().out
        assert elapsed < 2 * deadline

    def test_validate_finite_program_is_proof(self, opt_file, capsys):
        code = main(
            ["validate", opt_file, "--opt", "constprop", "--deadline", "30"]
        )
        assert code == EXIT_PROVED
        assert "[OK]" in capsys.readouterr().out


class TestFuzzReplay:
    def test_replay_regenerates_one_case(self, capsys):
        code = main(["fuzz", "--opt", "constprop", "--replay", "3"])
        out = capsys.readouterr().out
        assert "threads" in out  # the regenerated program is printed
        assert code in (EXIT_PROVED, EXIT_BOUNDED)

    def test_replay_matches_campaign_verdict(self, capsys):
        assert main(["fuzz", "--opt", "constprop", "--seeds", "3:4"]) == 0
        campaign = capsys.readouterr().out
        main(["fuzz", "--opt", "constprop", "--replay", "3"])
        assert "OK" in campaign
