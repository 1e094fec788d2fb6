"""Soundness of the static rw tier: RACE_FREE must imply no exhaustive
rw-race.

Mirror of :mod:`tests.static.test_soundness` for the read-write rung of
the race ladder — a static ``RACE_FREE`` short-circuits the rw census in
:func:`repro.races.check_races_tiered`, so a counterexample here
would make the ladder report a racy program race-free.  Two corpora:
the default generator (reads may cross threads: many seeds are genuinely
racy, exercising the detector's negative path too) and the
``owned_reads_only`` discipline (rw-race-free by construction, so the
static tier should usually discharge — and must never be contradicted).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.builder import ProgramBuilder
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.races.rwrace import rw_races
from repro.static import StaticVerdict, analyze_rw_races

SMALL = GeneratorConfig(threads=2, instrs_per_thread=4, prints_per_thread=1)
OWNED = GeneratorConfig(
    threads=2, instrs_per_thread=4, prints_per_thread=1, owned_reads_only=True
)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_static_race_free_implies_no_exhaustive_rw_race(seed):
    program = random_wwrf_program(seed, SMALL)
    static = analyze_rw_races(program)
    if static.race_free:
        witnesses = rw_races(program)
        assert witnesses == (), (
            f"static RACE_FREE contradicts exhaustive rw_races on seed {seed}"
        )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_static_race_free_sound_on_owned_corpus(seed):
    program = random_wwrf_program(seed, OWNED)
    static = analyze_rw_races(program)
    if static.race_free:
        assert rw_races(program) == (), (
            f"static RACE_FREE contradicts exhaustive rw_races on owned seed {seed}"
        )


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=10, deadline=None)
def test_static_rw_verdict_is_deterministic(seed):
    program = random_wwrf_program(seed, SMALL)
    assert analyze_rw_races(program) == analyze_rw_races(program)


def test_rightly_inconclusive_on_dead_write():
    """t1's write of `a` sits behind a constant-false branch, so t2's
    read never races.  The value-insensitive static analysis must stay
    conservative (POTENTIAL_RACE), never RACE_FREE by accident — and
    never claim a race exists as a *proof* either."""
    pb = ProgramBuilder()
    with pb.function("t1") as f:
        b = f.block("entry")
        b.assign("r", 0)
        b.be("r", "write", "skip")
        w = f.block("write")
        w.store("a", 1, "na")
        w.ret()
        s = f.block("skip")
        s.ret()
    with pb.function("t2") as f:
        b = f.block("entry")
        b.load("r", "a", "na")
        b.ret()
    pb.thread("t1").thread("t2")
    program = pb.build()
    assert rw_races(program) == ()  # ground truth: the write never fires
    assert analyze_rw_races(program).verdict is StaticVerdict.POTENTIAL_RACE


def test_detects_genuine_rw_race_seed():
    """At least one default-corpus shape is genuinely rw-racy and the
    static analysis flags it (no silent RACE_FREE on racy programs)."""
    pb = ProgramBuilder()
    with pb.function("t1") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.ret()
    with pb.function("t2") as f:
        b = f.block("entry")
        b.load("r", "a", "na")
        b.print_("r")
        b.ret()
    pb.thread("t1").thread("t2")
    program = pb.build()
    assert rw_races(program) != ()
    assert not analyze_rw_races(program).race_free
