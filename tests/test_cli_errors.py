"""CLI error-path tests."""

import pytest

from repro.cli import main


def test_missing_file_is_graceful(capsys):
    assert main(["explore", "/definitely/not/here.rtl"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_parse_error_is_graceful(tmp_path, capsys):
    path = tmp_path / "bad.rtl"
    path.write_text("fn f { oops")
    assert main(["explore", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_csimp_parse_error_is_graceful(tmp_path, capsys):
    path = tmp_path / "bad.csimp"
    path.write_text("fn f() { while }")
    assert main(["explore", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_litmus_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "wrong.litmus"
    path.write_text(
        "//! exists (9, 9)\n"
        "fn f { entry: print(1); return; }\n"
        "threads f;\n"
    )
    assert main(["litmus", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_litmus_pass_exit_code(tmp_path, capsys):
    path = tmp_path / "right.litmus"
    path.write_text(
        "//! only (1)\n"
        "fn f { entry: print(1); return; }\n"
        "threads f;\n"
    )
    assert main(["litmus", str(path), "--show-outcomes"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "(1,)" in out


#: Flags a command used to accept and then ignore, or that are gone:
#: each is now a usage error (argparse exits 2).
REMOVED_FLAGS = [
    ("validate", ["--np"]),
    ("analyze", ["--np"]),
    ("analyze", ["--promises", "3"]),
    ("analyze", ["--por", "dpor"]),
    ("analyze", ["--max-states", "5"]),
    ("analyze", ["--deadline", "0.0001"]),
    ("analyze", ["--memory-mb", "64"]),
    ("run", ["--por", "dpor"]),
    ("run", ["--max-states", "5"]),
    ("run", ["--deadline", "1"]),
    ("run", ["--memory-mb", "64"]),
    ("races", ["--static"]),
    ("explore", ["--por-conservative"]),
]


@pytest.mark.parametrize(
    "command, flags", REMOVED_FLAGS, ids=[" ".join([c] + f) for c, f in REMOVED_FLAGS]
)
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flags):
    path = tmp_path / "p.rtl"
    path.write_text("fn f { entry: print(1); return; }\nthreads f;\n")
    with pytest.raises(SystemExit) as info:
        main([command, str(path)] + flags)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
