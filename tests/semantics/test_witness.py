"""Execution witness tests."""


from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Print
from repro.litmus.library import fig1_source, fig1_target, mp_relacq, sb
from repro.semantics.events import EVENT_DONE
from repro.semantics.thread import SemanticsConfig
from repro.semantics.witness import explain_counterexample, find_witness


def test_witness_for_terminal_trace():
    program = straightline_program([[Print(Const(5))]])
    witness = find_witness(program, (5, EVENT_DONE))
    assert witness is not None
    assert witness.states[-1].all_done
    assert [v for _, v in witness.outputs if v is not None] == [5]


def test_no_witness_for_impossible_trace():
    program = straightline_program([[Print(Const(5))]])
    assert find_witness(program, (6, EVENT_DONE)) is None


def test_witness_for_prefix():
    program = straightline_program([[Print(Const(1)), Print(Const(2))]])
    witness = find_witness(program, (1,))
    assert witness is not None
    assert not witness.states[-1].all_done or True  # prefix need not be terminal


def test_sb_weak_outcome_witness():
    witness = find_witness(sb(), (0, 0, EVENT_DONE))
    assert witness is not None
    # The schedule must involve both threads.
    tids = {state.cur for state in witness.states}
    assert tids == {0, 1}


def test_fig1_counterexample_explanation():
    from repro.lang.syntax import AccessMode as AM

    source = fig1_source(AM.ACQ)
    target = fig1_target(AM.ACQ)
    text = explain_counterexample(source, target, (0,))
    assert "reachable in target : True" in text
    assert "reachable in source : False" in text
    assert "target schedule" in text


def test_witness_describe_renders():
    program = straightline_program([[Print(Const(5))]])
    witness = find_witness(program, (5, EVENT_DONE))
    description = witness.describe()
    assert "out(5)" in description
    assert "cur=t0" in description


def test_nonpreemptive_witness():
    witness = find_witness(sb(), (1, 1, EVENT_DONE), nonpreemptive=True)
    assert witness is not None


def _printing_step_thread(witness) -> str:
    line = next(line for line in witness.describe().splitlines() if "out(1)" in line)
    return line.split("cur=")[1].split()[0]


def test_dpor_witness_names_the_printing_thread():
    """DPOR stores every state with ``cur == 0``; the description names
    the thread that moved instead, so the reader (t1) prints."""
    trace = (1, EVENT_DONE)
    witness = find_witness(mp_relacq(), trace, SemanticsConfig(por="dpor"))
    assert witness is not None
    assert {state.cur for state in witness.states} == {0}
    assert _printing_step_thread(witness) == "t1"


def test_none_witness_description_is_cur():
    """Under ``por="none"`` every step's mover is the stored ``cur``, so
    the description reads exactly as the ``cur`` fields do."""
    witness = find_witness(mp_relacq(), (1, EVENT_DONE), SemanticsConfig(por="none"))
    assert witness is not None
    expected = [
        f"cur=t{state.cur}" for state in witness.states
    ]
    rendered = [line.split()[2] for line in witness.describe().splitlines()]
    assert rendered == expected
    assert _printing_step_thread(witness) == "t1"


KILLER = """
atomics x, f;
fn t1 {
entry:
    x.rlx := 1;
    jmp spin;
spin:
    r1 := f.rlx;
    be r1, out, spin;
out:
    return;
}
fn t2 {
entry:
    r1 := x.rlx;
    f.rlx := 1;
    print(r1);
    return;
}
threads t1, t2;
"""


def test_dpor_mover_is_the_thread_that_stepped_not_a_rewritten_bystander():
    """When thread 1's read kills ``x`` (thread 0 has moved on to spin on
    ``f``), DPOR also strips ``x`` from thread 0's view; the step is
    still thread 1's."""
    from repro.lang.parser import parse_program
    from repro.semantics.exploration import Explorer
    from repro.semantics.witness import Witness

    program = parse_program(KILLER)
    explorer = Explorer(program, SemanticsConfig(por="dpor")).build()
    kills = [
        (prev, explorer.states[succ])
        for prev, out in zip(explorer.states, explorer.edges)
        for _, succ in out
        if prev.mem.per_loc("x") and not explorer.states[succ].mem.per_loc("x")
        and prev.pool[1].local != explorer.states[succ].pool[1].local
    ]
    # Thread 0 wrote x, so its view mentions x until the kill strips it.
    kills = [(prev, state) for prev, state in kills if prev.pool[0] != state.pool[0]]
    assert kills
    for prev, state in kills:
        assert prev.pool[0].local == state.pool[0].local  # a bystander
        rendered = Witness((prev, state), ((0, None),)).describe().splitlines()
        assert "cur=t1" in rendered[-1]
