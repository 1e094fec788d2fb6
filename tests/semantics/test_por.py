"""Race scans read the DPOR graph: differential against ``por="none"``.

A DPOR graph stores one representative state per macro-step head, all
with ``cur == 0``; the race scans therefore ask of each stored state
whether *any* live thread would race as the current thread
(:mod:`repro.semantics.dpor`, "Race scans").  These tests pin that the
write-write and read-write ``(tid, loc)`` sets found that way equal the
sets the unreduced ``por="none"`` graph yields, and that the
non-preemptive machine keeps checking ``cur`` only (ww-NPRF, Sec. 5).
"""

import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Load, Store
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.opt.licm import naive_licm
from repro.opt.unsound import NaiveDCE, RedundantWriteIntroduction, UnsoundWaWMerge
from repro.races import rw_races, scan_races, ww_rf
from repro.races.wwrf import racing_access
from repro.semantics.exploration import Explorer
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig

#: The negative-control optimizers: their outputs are the racy targets
#: a validation scans.
CONTROLS = (NaiveDCE, RedundantWriteIntroduction, UnsoundWaWMerge, naive_licm)


def promises(budget):
    if not budget:
        return SemanticsConfig()
    return SemanticsConfig(
        promise_oracle=SyntacticPromises(budget=budget, max_outstanding=budget)
    )


def race_pairs(program, config, por):
    explorer = Explorer(program, dataclasses.replace(config, por=por)).build()
    assert explorer.exhaustive
    ww, rw = scan_races(program, explorer)
    return {(w.tid, w.loc) for w in ww}, {(w.tid, w.loc) for w in rw}


def assert_scans_agree(program, config, label):
    assert race_pairs(program, config, "dpor") == race_pairs(program, config, "none"), label


@pytest.mark.parametrize("name", sorted(LITMUS_SUITE))
def test_dpor_scan_matches_none_scan_on_suite(name):
    test = LITMUS_SUITE[name]
    assert_scans_agree(test.program, promises(test.promise_budget), name)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=191))
def test_dpor_scan_matches_none_scan_on_generated_programs(seed):
    """``p2x5`` programs with one promise, and the targets of the negative
    controls (which introduce races)."""
    source = random_wwrf_program(seed, GeneratorConfig(threads=2, instrs_per_thread=5))
    programs = {source: f"p2x5:{seed}"}
    for control in CONTROLS:
        programs.setdefault(control().run(source), f"p2x5:{seed}|{control.__name__}")
    for program, label in programs.items():
        assert_scans_agree(program, promises(1), label)


def test_a_thread_other_than_cur_is_the_racer():
    """Every DPOR state has ``cur == 0``, yet thread 1's racing store and
    load are found: the scan asks every live thread."""
    ww_program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("a", Const(2), AccessMode.NA)]]
    )
    rw_program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Load("r", "a", AccessMode.NA)]]
    )
    dpor = SemanticsConfig(por="dpor")
    explorer = Explorer(ww_program, dpor).build()
    assert {state.cur for state in explorer.states} == {0}
    ww, _ = scan_races(ww_program, explorer)
    assert {(w.tid, w.loc) for w in ww} == {(0, "a"), (1, "a")}
    assert not ww_rf(ww_program, dpor).race_free
    assert [(w.tid, w.loc) for w in rw_races(rw_program, dpor)] == [(1, "a")]


def test_nonpreemptive_scan_reads_cur_only():
    """On the non-preemptive machine only the current thread may step, so
    a state where another thread would race is not a witness there."""
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("a", Const(2), AccessMode.NA)]]
    )
    explorer = Explorer(program, nonpreemptive=True).build()
    state = next(
        s for s in explorer.states
        if racing_access(program, s.pool[1 - s.cur], s.mem) is not None
        and racing_access(program, s.pool[s.cur], s.mem) is None
    )
    one_state = types.SimpleNamespace(states=[state], nonpreemptive=True)
    assert scan_races(program, one_state) == ((), ())
    one_state.nonpreemptive = False
    ww, _ = scan_races(program, one_state)
    assert [(w.tid, w.loc) for w in ww] == [(1 - state.cur, "a")]
