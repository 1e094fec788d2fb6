"""Write-write race freedom tests (paper Fig. 11)."""


from repro.lang.builder import ProgramBuilder, straightline_program
from repro.lang.syntax import AccessMode, Const, Load, Store
from repro.races.wwrf import ww_nprf, ww_rf
from repro.semantics.thread import SemanticsConfig


def test_disjoint_writers_race_free():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("b", Const(1), AccessMode.NA)]]
    )
    report = ww_rf(program)
    assert report.race_free and report.exhaustive


def test_same_location_na_writes_race():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("a", Const(2), AccessMode.NA)]]
    )
    report = ww_rf(program)
    assert not report.race_free
    assert report.witness.loc == "a"


def test_atomic_writes_never_ww_race():
    """ww-races are about *non-atomic* writes only."""
    program = straightline_program(
        [[Store("x", Const(1), AccessMode.RLX)], [Store("x", Const(2), AccessMode.RLX)]],
        atomics={"x"},
    )
    assert ww_rf(program).race_free


def test_synchronized_writes_race_free():
    """Release/acquire ordering makes the second write observe the first:
    t1 writes a then releases flag; t2 only writes a after acquiring it in
    a spin loop, so the write is always ordered."""
    pb = ProgramBuilder(atomics={"flag"})
    with pb.function("t1") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.store("flag", 1, "rel")
        b.ret()
    with pb.function("t2") as f:
        spin = f.block("spin")
        spin.load("r", "flag", "acq")
        spin.be("r", "write", "spin")
        w = f.block("write")
        w.store("a", 2, "na")
        w.ret()
    pb.thread("t1").thread("t2")
    assert ww_rf(pb.build()).race_free


def test_unsynchronized_guard_still_races():
    """The same shape with a relaxed flag is racy: the acquiring side may
    see the flag without observing the a-write."""
    pb = ProgramBuilder(atomics={"flag"})
    with pb.function("t1") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.store("flag", 1, "rlx")
        b.ret()
    with pb.function("t2") as f:
        spin = f.block("spin")
        spin.load("r", "flag", "rlx")
        spin.be("r", "write", "spin")
        w = f.block("write")
        w.store("a", 2, "na")
        w.ret()
    pb.thread("t1").thread("t2")
    assert not ww_rf(pb.build()).race_free


def test_read_write_race_is_not_ww_race():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Load("r", "a", AccessMode.NA)]]
    )
    assert ww_rf(program).race_free


def test_own_writes_do_not_race():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA), Store("a", Const(2), AccessMode.NA)]]
    )
    assert ww_rf(program).race_free


def test_report_truncation_flag():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("b", Const(1), AccessMode.NA)]]
    )
    report = ww_rf(program, SemanticsConfig(max_states=2))
    assert not report.exhaustive


def test_nprf_variant_runs():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("a", Const(2), AccessMode.NA)]]
    )
    assert not ww_nprf(program).race_free


def test_duck_typed_view_with_missing_entry():
    """Regression: `racing_access` reads `ts.view.trlx.get(loc)`.
    A real TimeMap defaults absent entries to 0, but a duck-typed view (a
    plain dict, as external clients or tests may supply) returns None —
    which used to flow into `message.to > floor` and raise TypeError.  The
    check must treat a missing entry as the zero timestamp."""
    import types

    from repro.memory.memory import Memory
    from repro.memory.message import Message
    from repro.races.wwrf import racing_access
    from repro.semantics.threadstate import initial_thread_state

    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("a", Const(2), AccessMode.NA)]]
    )
    ts = initial_thread_state(program, "t1")
    ts = ts.replace(view=types.SimpleNamespace(tna={}, trlx={}))
    mem = Memory(
        Memory.initial(["a"]).items
        + (Message("a", 1, 0, 1),)
    )
    assert racing_access(program, ts, mem).loc == "a"

    # With only the init message (to = 0 = the default floor): no race.
    assert racing_access(program, ts, Memory.initial(["a"])) is None


RACER_IS_THREAD_1 = """
atomics f;
fn t1 {
entry:
    d.na := 1;
    f.rlx := 1;
    return;
}
fn t2 {
entry:
    r1 := f.rlx;
    be r1, write, skip_it;
write:
    d.na := 2;
    return;
skip_it:
    return;
}
threads t1, t2;
"""


def test_dpor_race_witness_names_the_racer():
    """Only thread 1 can race (it writes ``d`` after seeing thread 0's
    relaxed flag, which carries no view).  A DPOR state stores
    ``cur == 0``; the witness renders the state with the racer current."""
    from repro.lang.parser import parse_program

    program = parse_program(RACER_IS_THREAD_1)
    report = ww_rf(program, SemanticsConfig(por="dpor"))
    assert not report.race_free
    assert (report.witness.tid, report.witness.loc) == (1, "d")
    assert report.witness.state.cur == 0
    text = str(report.witness)
    assert "thread 1" in text and "W(cur=t1," in text and "cur=t0" not in text
