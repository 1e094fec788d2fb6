"""Soundness of the static tier: RACE_FREE must imply exhaustive ww-RF.

This is the load-bearing property of the whole tiered design — a static
``RACE_FREE`` short-circuits exploration, so a single counterexample here
would make :func:`repro.races.check_races_tiered` unsound.  The Hypothesis
property sweeps generator seeds (beyond the fixed 50-seed corpus the
E-STATIC benchmark replays); the explicit cases document where the
analysis is *rightly* inconclusive (path-insensitivity) without being
wrong.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.builder import ProgramBuilder
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.races.wwrf import ww_rf
from repro.static import StaticVerdict, analyze_ww_races

SMALL = GeneratorConfig(threads=2, instrs_per_thread=4, prints_per_thread=1)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_static_race_free_implies_exhaustive_race_free(seed):
    program = random_wwrf_program(seed, SMALL)
    static = analyze_ww_races(program)
    if static.race_free:
        exhaustive = ww_rf(program)
        assert exhaustive.exhaustive
        assert exhaustive.race_free, (
            f"static RACE_FREE contradicts exhaustive ww_rf on seed {seed}"
        )


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=10, deadline=None)
def test_static_verdict_is_deterministic(seed):
    program = random_wwrf_program(seed, SMALL)
    assert analyze_ww_races(program) == analyze_ww_races(program)


def test_rightly_inconclusive_on_dead_branch():
    """Both threads write `a`, but t2's write sits behind a constant-false
    branch.  Exhaustively race-free; the value-insensitive static analysis
    must *not* say RACE_FREE here — POTENTIAL_RACE (then the tier falls
    back) is the correct conservative answer."""
    pb = ProgramBuilder()
    with pb.function("t1") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.ret()
    with pb.function("t2") as f:
        b = f.block("entry")
        b.assign("r", 0)
        b.be("r", "write", "skip")
        w = f.block("write")
        w.store("a", 2, "na")
        w.ret()
        s = f.block("skip")
        s.ret()
    pb.thread("t1").thread("t2")
    program = pb.build()
    assert ww_rf(program).race_free  # ground truth: the branch never fires
    assert analyze_ww_races(program).verdict is StaticVerdict.POTENTIAL_RACE


def test_rightly_inconclusive_on_rw_ordering():
    """t2 only writes after *reading* a nonzero `a` — impossible since t1
    writes 1 only after t2 could no longer read it... exhaustive semantics
    sorts it out; statically there is no rel/acq protection, so the
    fallback verdict is POTENTIAL_RACE."""
    pb = ProgramBuilder(atomics={"f"})
    with pb.function("t1") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.store("f", 1, "rlx")
        b.ret()
    with pb.function("t2") as f:
        b = f.block("entry")
        b.load("r", "f", "rlx")
        b.be("r", "write", "done")
        w = f.block("write")
        w.store("a", 2, "na")
        w.ret()
        d = f.block("done")
        d.ret()
    pb.thread("t1").thread("t2")
    program = pb.build()
    assert analyze_ww_races(program).verdict is StaticVerdict.POTENTIAL_RACE
    assert not ww_rf(program).race_free  # and indeed the rlx flag races
