"""CLI tests for the static-analysis surface: `analyze`, the static
tiers of `races`, `validate --strict`, and the truncation-honest exit
code 3."""

import pytest

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

FLAG = """
atomics flag;
fn t1 { entry: a.na := 1; flag.rel := 1; return; }
fn t2 {
  spin: r := flag.acq; be r, write, spin;
  write: a.na := 2; return;
}
threads t1, t2;
"""

#: Race-free only because the second write sits behind a constant-false
#: branch: a value-dependent exclusion the static ww tier leaves open.
GUARDED = """
fn t1 { entry: a.na := 1; return; }
fn t2 { entry: r := 0; be r, w, end; w: a.na := 2; return; end: return; }
threads t1, t2;
"""

#: A na-read only a constant-false branch keeps from racing with the
#: other thread's na-write: the static ww tier discharges the program (one
#: na-writer), the static rw tier leaves it open.
GUARDED_READ = """
fn t1 { entry: a.na := 1; return; }
fn t2 { entry: r := 0; be r, rd, end; rd: s := a.na; print(s); return; end: return; }
threads t1, t2;
"""


@pytest.fixture
def sb_file(tmp_path):
    path = tmp_path / "sb.rtl"
    path.write_text(SB)
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.rtl"
    path.write_text(RACY)
    return str(path)


@pytest.fixture
def flag_file(tmp_path):
    path = tmp_path / "flag.rtl"
    path.write_text(FLAG)
    return str(path)


DEAD = """
atomics f;
fn t1 { entry: a.na := 1; a.na := 2; r := a.na; print(r); return; }
fn t2 { entry: g := f.acq; print(g); return; }
threads t1, t2;
"""


@pytest.fixture
def dead_file(tmp_path):
    path = tmp_path / "dead.rtl"
    path.write_text(DEAD)
    return str(path)


def test_analyze_clean(sb_file, capsys):
    assert main(["analyze", sb_file]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "race-free" in out


def test_analyze_reports_potential_race(racy_file, capsys):
    # The race verdict is advisory; lint decides the exit code.
    assert main(["analyze", racy_file]) == 0
    out = capsys.readouterr().out
    assert "potential-race" in out
    assert "no release/acquire protection" in out


def test_races_static_discharges(sb_file, capsys):
    assert main(["races", sb_file]) == 0
    out = capsys.readouterr().out
    assert "static" in out
    assert "0 states" in out  # no exploration happened


def test_races_static_falls_back_on_racy(racy_file, capsys):
    assert main(["races", racy_file]) == 1
    out = capsys.readouterr().out
    assert "potential-race" in out
    assert "RACY" in out


def test_races_static_flag_protocol(flag_file, capsys):
    assert main(["races", flag_file]) == 0
    out = capsys.readouterr().out
    assert "0 states" in out


def test_truncated_run_exits_3(sb_file, tmp_path, capsys):
    guarded = tmp_path / "guarded.rtl"
    guarded.write_text(GUARDED)
    assert main(["races", "--max-states", "2", str(guarded)]) == 3
    out = capsys.readouterr().out
    assert "potential-race" in out  # the static tier left it open
    assert "TRUNCATED" in out
    # The static tiers discharge SB: a proof with 0 states, cap or not.
    assert main(["races", "--max-states", "2", sb_file]) == 0
    out = capsys.readouterr().out
    assert "0 states" in out and "TRUNCATED" not in out


def test_truncated_rw_scan_bounds_the_races_verdict(tmp_path, capsys):
    """A statically proved ww verdict does not make a truncated rw census
    a proof: the job is BOUNDED, exits 3 and warns."""
    path = tmp_path / "guarded_read.rtl"
    path.write_text(GUARDED_READ)
    assert main(["races", "--max-states", "2", str(path)]) == 3
    out = capsys.readouterr().out
    assert "ww-RF: RaceReport(race-free, 0 states, static)" in out
    assert "read-write races: none" in out and "TRUNCATED" in out
    assert main(["races", str(path)]) == 0
    assert "TRUNCATED" not in capsys.readouterr().out


def test_truncated_validate_exits_3(sb_file, capsys):
    assert main(["validate", "--opt", "dce", "--max-states", "2", sb_file]) == 3
    out = capsys.readouterr().out
    assert "TRUNCATED" in out


def test_validate_strict_ok(sb_file, capsys):
    assert main(["validate", "--strict", "--opt", "dce", sb_file]) == 0
    assert "strict(dce)" in capsys.readouterr().out


def test_exhaustive_runs_still_exit_0(sb_file):
    assert main(["races", sb_file]) == 0
    assert main(["validate", "--opt", "dce", sb_file]) == 0


# -- crossing matrix + tiered validation (tier 0) --------------------------


def test_analyze_prints_crossing_matrix(sb_file, capsys):
    assert main(["analyze", sb_file]) == 0
    out = capsys.readouterr().out
    assert "crossing matrix:" in out
    for name in ("constprop", "cse", "dce", "reorder"):
        assert name in out


def test_analyze_json_has_crossing_section(sb_file, capsys):
    import json

    assert main(["analyze", "--json", sb_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    crossing = payload["crossing"]
    assert "dce" in crossing and "reorder" in crossing
    for entry in crossing.values():
        assert entry["verdict"] in ("clean", "inconclusive", "violations", "error")
        assert "seconds" in entry and "changed" in entry
    assert "crossing_s" in payload["timings"]


def test_validate_static_tier_certifies(dead_file, capsys):
    assert main(["validate", "--opt", "dce", "--static-tier", dead_file]) == 0
    out = capsys.readouterr().out
    assert "statically certified" in out
    assert "static-certify" in out


def test_validate_static_tier_falls_back(sb_file, capsys):
    """cleanup restructures the CFG beyond what OG discharges — the ladder
    must fall back to exploration and still exit 0."""
    assert main(["validate", "--opt", "reorder", "--static-tier", sb_file]) == 0
    out = capsys.readouterr().out
    assert "tier" in out or "statically certified" in out


def test_validate_without_flag_is_unchanged(dead_file, capsys):
    assert main(["validate", "--opt", "dce", dead_file]) == 0
    out = capsys.readouterr().out
    assert "statically certified" not in out
