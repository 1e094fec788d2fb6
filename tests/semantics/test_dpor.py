"""Persistent-set DPOR (:mod:`repro.semantics.dpor`): behavior
preservation against the unreduced explorer is the whole point.

Equality is asserted on ``.traces`` (the observable behavior set) — state
counts are *expected* to differ; that reduction is what DPOR is for.
"""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.builder import ProgramBuilder
from repro.lang.syntax import Const
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE, sb, sb_with_sc_fences
from repro.robust.budget import Budget, BudgetExhausted
from repro.semantics import dpor
from repro.semantics.dpor import (
    EMPTY_FP,
    FLAG_OUT,
    FLAG_SC,
    dependent,
    persistent_set,
)
from repro.semantics.exploration import Explorer, behaviors
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig

DPOR = SemanticsConfig(por="dpor")

#: The engine's memoized persistent-set choice, before any test wraps it.
_PERSISTENT = dpor.FootprintIndex.persistent


def suite_config(test) -> SemanticsConfig:
    base = SemanticsConfig()
    if test.promise_budget:
        base = SemanticsConfig(
            promise_oracle=SyntacticPromises(
                budget=test.promise_budget, max_outstanding=test.promise_budget
            )
        )
    return base


class TestDependency:
    def test_disjoint_accesses_independent(self):
        a = (frozenset(("x",)), frozenset(), 0)
        b = (frozenset(), frozenset(("y",)), 0)
        assert not dependent(a, b)

    def test_write_read_overlap_dependent(self):
        w = (frozenset(), frozenset(("x",)), 0)
        r = (frozenset(("x",)), frozenset(), 0)
        assert dependent(w, r) and dependent(r, w)

    def test_read_read_overlap_independent(self):
        r = (frozenset(("x",)), frozenset(), 0)
        assert not dependent(r, r)

    def test_flags(self):
        out = (frozenset(), frozenset(), FLAG_OUT)
        sc = (frozenset(), frozenset(), FLAG_SC)
        assert dependent(out, out) and dependent(sc, sc)
        assert not dependent(out, sc)
        assert not dependent(EMPTY_FP, EMPTY_FP)


class TestPersistentSetClosure:
    X, Y = 1, 2

    def future(self, mask):
        return (mask, mask, 0)

    def test_disjoint_futures_give_a_singleton(self):
        fps = [(self.X, 0, 0), (0, self.Y, 0)]
        assert persistent_set(fps, [self.future(self.X), self.future(self.Y)]) == (0,)

    def test_a_future_meeting_a_member_joins(self):
        X, Y = self.X, self.Y
        fps = [(0, X, 0), (X, 0, 0)]
        assert persistent_set(fps, [self.future(X)] * 2) == (0, 1)
        # From 0 the set grows through 1 (x) to 2 (y); from 1 or 2 it
        # stays {1, 2}, which is smaller.
        fps = [(0, X, 0), (Y, 0, 0), (Y, 0, 0)]
        futures = [self.future(X), self.future(X | Y), self.future(Y)]
        assert persistent_set(fps, futures) == (1, 2)

    def test_printing_members_take_the_whole_pool(self):
        fps = [(0, 0, FLAG_OUT), (self.Y, 0, 0)]
        futures = [self.future(0), self.future(self.Y)]
        assert persistent_set(fps, futures) == (1,)
        assert persistent_set(fps[:1] * 2, futures[:1] * 2) == (0, 1)


def _mentioned_locations(state) -> set:
    """Every location a state's memory, message views, SC view or thread
    views mention."""
    maps = [state.mem.sc_view]
    for item in state.mem:
        if item.is_concrete:
            maps += [item.view.tna, item.view.trlx]
    for ts in state.pool:
        for view in (ts.view, ts.vrel, ts.vacq):
            maps += [view.tna, view.trlx]
    return {item.var for item in state.mem} | {
        var for timemap in maps for var in timemap.vars()
    }


def _future(program, local, reg=None):
    """Walk the paths from ``local``'s position, independently of the
    liveness tables under test.  With ``reg``: whether some path reads it
    before overwriting it.  Without: the locations some path accesses.
    A ``call``, and a ``return`` of a call target (registers) or of any
    function in a program with calls (locations), counts as everything:
    ``True`` / ``None``."""
    from repro.lang.syntax import (
        Be, Call, Cas, Load, Return, Store, expr_regs, instr_def, instr_uses,
        terminator_targets,
    )

    targets = {
        block.term.func
        for _, heap in program.functions
        for _, block in heap.blocks
        if isinstance(block.term, Call)
    }
    heap = program.function(local.func)
    locs, seen, work = set(), set(), [(local.label, local.offset)]
    while work:
        label, offset = work.pop()
        if (label, offset) in seen:
            continue
        seen.add((label, offset))
        block = heap[label]
        if offset < len(block.instrs):
            instr = block.instrs[offset]
            if reg is not None and reg in instr_uses(instr):
                return True
            if isinstance(instr, (Load, Store, Cas)):
                locs.add(instr.loc)
            if reg is None or instr_def(instr) != reg:
                work.append((label, offset + 1))
            continue
        term = block.term
        if reg is None:
            if isinstance(term, Call) or (isinstance(term, Return) and targets):
                return None
        elif isinstance(term, Call) or (
            isinstance(term, Return) and local.func in targets
        ) or (isinstance(term, Be) and reg in expr_regs(term.cond)):
            return True
        work.extend((target, 0) for target in terminator_targets(term))
    return False if reg is not None else locs


def _assert_keyed_by_future(explorer) -> None:
    """Every stored DPOR state has ``cur == 0``, every finished thread
    with no promises or reservations is retired, no live thread holds a
    dead register, and no item or view entry mentions a location that no
    thread can access again (checked against ``_future``, not the
    explorer's own liveness tables)."""
    from repro.memory.timemap import BOTTOM_VIEW

    program = explorer.program
    index = dpor.FootprintIndex(program, explorer.config)
    for state in explorer.states:
        assert state.cur == 0
        live = set()
        for ts in state.pool:
            local = ts.local
            if local.done and not len(ts.promises):
                assert local.regs == () and local.stack == ()
                assert ts.view == ts.vrel == ts.vacq == BOTTOM_VIEW
                assert ts.promise_budget == 0
            live |= {item.var for item in ts.promises}
            if local.done:
                continue
            if index.drops_registers:
                assert all(_future(program, local, reg) for reg, _ in local.regs)
            future = _future(program, local)
            live |= program.locations() if future is None else future
        if index.drops_locations:
            assert not _mentioned_locations(state) - live


class TestLitmusEquality:
    @pytest.mark.parametrize("name", sorted(LITMUS_SUITE))
    def test_dpor_preserves_behaviors_on_suite(self, name):
        test = LITMUS_SUITE[name]
        base = suite_config(test)
        plain = behaviors(test.program, base)
        explorer = Explorer(test.program, dataclasses.replace(base, por="dpor"))
        reduced = explorer.behaviors()
        assert plain.traces == reduced.traces, name
        assert reduced.state_count <= plain.state_count
        _assert_keyed_by_future(explorer)

    def test_sc_fences(self):
        """SC fences exchange with the global SC view — mutually
        dependent, so DPOR must keep both fence orders."""
        plain = behaviors(sb_with_sc_fences())
        reduced = behaviors(sb_with_sc_fences(), DPOR)
        assert plain.traces == reduced.traces
        assert (0, 0) not in reduced.outputs()  # the forbidden SB outcome


class TestPropertyEquality:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_random_programs(self, seed):
        program = random_wwrf_program(seed, GeneratorConfig(instrs_per_thread=5))
        assert behaviors(program).traces == behaviors(program, DPOR).traces

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_random_programs_with_branches_and_cas(self, seed):
        program = random_wwrf_program(
            seed,
            GeneratorConfig(instrs_per_thread=4, allow_branches=True, allow_cas=True),
        )
        assert behaviors(program).traces == behaviors(program, DPOR).traces

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=60))
    def test_promise_heavy_configs(self, seed):
        """``por="dpor"`` must stay behavior-equal on promise-bearing
        configs, where footprints are certification-scoped."""
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=2, instrs_per_thread=3)
        )
        base = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
        )
        plain = behaviors(program, base)
        reduced = behaviors(program, dataclasses.replace(base, por="dpor"))
        assert plain.traces == reduced.traces


class TestCycleProviso:
    def test_infinite_print_loop(self):
        """A looping printer next to a one-shot printer: outputs are
        mutually dependent, so every state runs both threads and the
        one-shot printer's output lands at every point of the loop."""
        pb = ProgramBuilder()
        block = pb.function("spin").block("loop")
        block.print_(Const(1))
        block.jmp("loop")
        pb.function("shot").block("entry").print_(Const(2))
        pb.thread("spin").thread("shot")
        program = pb.build()
        plain = behaviors(program, SemanticsConfig(por="none", max_outputs=4))
        reduced = behaviors(program, SemanticsConfig(por="dpor", max_outputs=4))
        assert plain.traces == reduced.traces

    def test_silent_spin_loop_is_fully_expanded(self):
        """A thread spinning on a load is a persistent set on its own (the
        printer's future touches no location), and its step loops back to
        the state on the stack: without the cycle proviso the printer
        would be ignored forever and its output lost."""
        pb = ProgramBuilder(atomics=("y",))
        pb.function("spin").block("loop").load("r1", "y", "rlx").jmp("loop")
        pb.function("shot").block("entry").print_(Const(2))
        pb.thread("spin").thread("shot")
        program = pb.build()
        plain = behaviors(program, SemanticsConfig(por="none", max_outputs=4))
        explorer = Explorer(program, SemanticsConfig(por="dpor", max_outputs=4))
        assert explorer.behaviors().traces == plain.traces
        assert (2,) in plain.traces
        assert explorer.dpor_stats.full_expansions > 0

    def test_pure_local_spin_loop_terminates(self):
        """A thread whose loop never leaves pure-local code: its local
        suffix stops where the local state repeats, the macro-step is a
        self-loop, and the proviso lets the other thread run."""
        from repro.lang.parser import parse_program

        program = parse_program(
            "atomics x; fn spin { entry: jmp entry; } "
            "fn shot { entry: x.rlx := 1; print(2); return; } threads spin, shot;"
        )
        plain = behaviors(program, SemanticsConfig(por="none"))
        # The deadline turns a regression into a failure, not a hang.
        guarded = SemanticsConfig(por="dpor", budget=Budget(deadline_seconds=10))
        reduced = behaviors(program, guarded)
        assert reduced.exhaustive
        assert reduced.traces == plain.traces
        assert (2,) in plain.traces

    def test_non_repeating_local_loop_trips_deadline(self):
        """A pure-local loop whose state never repeats runs in one local
        suffix: the suffix ticks the budget meter, so a deadline stops it."""
        from repro.lang.parser import parse_program

        program = parse_program(
            "fn count { entry: r1 := r1 + 1; jmp entry; } "
            "fn shot { entry: print(2); return; } threads count, shot;"
        )
        config = SemanticsConfig(por="dpor", budget=Budget(deadline_seconds=0.2))
        result = behaviors(program, config)
        assert result.exhaustive is False
        assert result.stop_reason == "deadline"
        # With no budget, the state cap bounds the suffix instead.
        capped = behaviors(program, SemanticsConfig(por="dpor", max_states=1000))
        assert capped.exhaustive is False
        assert capped.stop_reason == "states"

    def test_empty_persistent_set_falls_back_to_every_thread(self, monkeypatch):
        """A macro-step can have no outcome (every certification fails).
        Here the stuck thread's store never certifies, so it is the
        smallest persistent set and yields nothing; the printer must still
        run.  Both engines see the same stuck thread."""
        from repro.semantics import machine

        real = dpor.consistent

        def refusing(program, ts, mem, *args, **kwargs):
            if ts.local.func == "stuck" and ts.local.offset > 0:
                return False
            return real(program, ts, mem, *args, **kwargs)

        monkeypatch.setattr(dpor, "consistent", refusing)
        monkeypatch.setattr(machine, "consistent", refusing)
        pb = ProgramBuilder(atomics=("x",))
        pb.function("stuck").block("entry").store("x", Const(1), "rlx")
        pb.function("shot").block("entry").print_(Const(2))
        pb.thread("stuck").thread("shot")
        program = pb.build()
        plain = behaviors(program)
        explorer = Explorer(program, DPOR)
        assert explorer.behaviors().traces == plain.traces
        assert (2,) in plain.traces
        assert explorer.dpor_stats.full_expansions > 0


class TestStatsAndGating:
    def test_stats_populated_and_states_reduced(self):
        explorer = Explorer(sb(), DPOR)
        result = explorer.behaviors()
        stats = explorer.dpor_stats
        assert stats is not None
        # Each stored state is expanded once; keying states by their
        # future keeps SB below its 38 keyed by (pool, cur, memory).
        assert result.state_count == stats.nodes
        assert result.state_count < 38
        assert stats.transitions >= stats.nodes - 1
        assert result.state_count < behaviors(sb()).state_count
        assert explorer.por_downgrade is None
        assert set(stats.as_dict()) == {
            "nodes", "transitions", "full_expansions", "promise_footprints",
            "memo_hits", "budgets_dropped", "promises_withheld",
            "redundant_executions",
        }
        assert stats.redundant_executions == 0

    def test_promise_config_runs_dpor_with_window_footprints(self):
        """Promise configs no longer downgrade: the certification-scoped
        footprint relation keeps DPOR sound, and the promise-footprint
        counter proves the window path actually ran."""
        config = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=2, max_outstanding=2),
            por="dpor",
        )
        explorer = Explorer(sb(), config)
        explorer.build()
        assert explorer.por_downgrade is None
        stats = explorer.dpor_stats
        assert stats is not None and stats.nodes > 0
        assert stats.promise_footprints > 0

    def test_nonpreemptive_machine_ignores_dpor(self):
        """DPOR models the interleaving machine's switches; ``--np`` has
        its own (coarser) scheduling discipline."""
        explorer = Explorer(sb(), DPOR, nonpreemptive=True)
        explorer.build()
        assert explorer.dpor_stats is None
        assert explorer.por_downgrade == "nonpreemptive"

    def test_gap_leaving_writes_downgrades_with_reason(self):
        """Gap-leaving placements interact with cross-location timestamp
        renormalization; the explorer records the structured downgrade and
        builds the plain ``por="none"`` graph."""
        explorer = Explorer(
            sb(), dataclasses.replace(DPOR, gap_leaving_writes=True)
        )
        explorer.build()
        assert explorer.dpor_stats is None
        assert explorer.por_downgrade == "gap-leaving-writes"
        plain = Explorer(sb(), SemanticsConfig(gap_leaving_writes=True)).build()
        assert explorer.states == plain.states


class _OneIteration:
    """A meter that lets exactly one DFS iteration run per build call."""

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, count, sample=None) -> None:
        self.ticks += 1
        if self.ticks % 2 == 0:
            raise BudgetExhausted("deadline")


class TestStateIdentity:
    """DPOR keys states by their future (no ``cur``, finished threads
    retired) on the benchmark's generated shapes, and the trace set is
    still the ``por="none"`` one; the litmus suite is checked above."""

    @pytest.mark.parametrize(
        "shape, seed",
        [("t3x4", seed) for seed in (0, 1, 2, 5)]
        + [("p2x5", seed) for seed in (1, 2, 4, 6, 10)],
    )
    def test_generated_sample(self, shape, seed):
        threads, instrs, promises = {"t3x4": (3, 4, 0), "p2x5": (2, 5, 1)}[shape]
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=threads, instrs_per_thread=instrs)
        )
        config = SemanticsConfig()
        if promises:
            config = SemanticsConfig(
                promise_oracle=SyntacticPromises(
                    budget=promises, max_outstanding=promises
                )
            )
        explorer = Explorer(program, dataclasses.replace(config, por="dpor"))
        reduced = explorer.behaviors()
        _assert_keyed_by_future(explorer)
        assert any(ts.local.done for s in explorer.states for ts in s.pool)
        assert reduced.traces == behaviors(program, config).traces


class TestPersistentSets:
    """Every reduced expansion runs a set no other thread can interfere
    with: the chosen threads' footprints miss the futures of the threads
    left out, computed by ``_future``'s path walk rather than the
    engine's liveness tables."""

    def _check(self, program, config, monkeypatch) -> int:
        chosen_at = {}

        def recording(index, fps, futures):
            chosen = _PERSISTENT(index, fps, futures)
            caller = sys._getframe(1).f_locals
            chosen_at[caller["idx"]] = (
                [caller["live"][pos] for pos in chosen], list(caller["live"])
            )
            return chosen

        monkeypatch.setattr(dpor.FootprintIndex, "persistent", recording)
        explorer = Explorer(program, config)
        explorer.build()
        index = dpor.FootprintIndex(program, config)
        reduced = 0
        for idx, (chosen, live) in chosen_at.items():
            if len(chosen) == len(live):
                continue
            reduced += 1
            pool = explorer.states[idx].pool
            touched = 0
            for tid in chosen:
                reads, writes, flags = index.thread_footprint(pool[tid])
                assert not flags & (FLAG_OUT | FLAG_SC)
                touched |= reads | writes
            for tid in set(live) - set(chosen):
                ts = pool[tid]
                future = _future(program, ts.local)
                future = program.locations() if future is None else future
                future |= {item.var for item in ts.promises}
                assert not touched & index.mask(future), (idx, chosen, tid)
        return reduced

    def test_suite(self, monkeypatch):
        reduced = 0
        for name, test in sorted(LITMUS_SUITE.items()):
            config = dataclasses.replace(suite_config(test), por="dpor")
            reduced += self._check(test.program, config, monkeypatch)
        assert reduced > 0

    @pytest.mark.parametrize("seed", [1, 2, 4, 6])
    def test_generated_with_promises(self, seed, monkeypatch):
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=2, instrs_per_thread=5)
        )
        config = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=1, max_outstanding=1), por="dpor"
        )
        self._check(program, config, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_generated_three_threads(self, seed, monkeypatch):
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=3, instrs_per_thread=4)
        )
        assert self._check(program, DPOR, monkeypatch) > 0


BRANCH = """
atomics x, y, f;
fn t1 {
entry:
    r1 := x.rlx;
    r2 := y.rlx;
    be r1, yes, no;
yes:
    print(r2);
    return;
no:
    f.rlx := 1;
    return;
}
fn t2 {
entry:
    x.rlx := 1;
    y.rlx := 1;
    r1 := f.rlx;
    print(r1);
    return;
}
threads t1, t2;
"""

LOOP = """
atomics x;
fn t1 {
entry:
    r1 := x.acq;
    be r1, out, entry;
out:
    r2 := d.na;
    print(r2);
    return;
}
fn t2 {
entry:
    d.na := 5;
    x.rel := 1;
    return;
}
threads t1, t2;
"""

CALL = """
atomics x, y;
fn get {
entry:
    r1 := x.rlx;
    return;
}
fn t1 {
entry:
    r5 := 7;
    call(get, after);
after:
    r2 := y.rlx;
    print(r1);
    print(r2);
    return;
}
fn t2 {
entry:
    x.rlx := 1;
    y.rlx := 1;
    return;
}
threads t1, t2;
"""


class TestLiveFuture:
    """DPOR states drop dead registers and dead locations; the trace set
    stays the ``por="none"`` one on hand-written control flow."""

    @pytest.mark.parametrize("source", [BRANCH, LOOP, CALL], ids=["branch", "loop", "call"])
    def test_matches_none(self, source):
        from repro.lang.parser import parse_program

        program = parse_program(source)
        explorer = Explorer(program, DPOR)
        assert explorer.behaviors().traces == behaviors(program).traces
        _assert_keyed_by_future(explorer)
        # Once every thread has finished, no location is live: every
        # terminal state has an empty memory.
        terminal = [s for s, done in zip(explorer.states, explorer.terminal) if done]
        assert terminal and all(not len(s.mem) for s in terminal)

    def test_registers_die_but_survive_calls(self):
        from repro.lang.parser import parse_program

        program = parse_program(CALL)
        explorer = Explorer(program, DPOR)
        explorer.build()
        t1 = [s.pool[0].local for s in explorer.states]
        # Inside ``get`` every register is live (the caller reads them
        # after the return), so ``r5`` survives the call ...
        assert any(l.func == "get" and "r5" in l.reg_map for l in t1)
        # ... and is dropped at ``after``, where nothing reads it.
        after = [l for l in t1 if l.func == "t1" and l.label == "after"]
        assert after and all("r5" not in l.reg_map for l in after)
        # Inside ``get`` every location is live, so none is dropped there.
        locations = program.locations()
        assert all(
            {item.var for item in s.mem} == locations
            for s in explorer.states
            if s.pool[0].local.func == "get"
        )

    def test_reservations_and_unknown_oracles_drop_no_location(self):
        """A reserve step may target any location, and an unknown oracle
        may promise anywhere: every state keeps every location."""

        @dataclasses.dataclass(frozen=True)
        class OtherOracle(SyntacticPromises):
            """Not one of the oracle classes the footprints know."""

        program = LITMUS_SUITE["MP-relacq"].program
        locations = program.locations()
        # The reserving graph is capped to keep the test small.
        reserving = SemanticsConfig(enable_reservations=True, max_states=400, por="dpor")
        explorer = Explorer(program, reserving)
        explorer.build()
        assert not dpor.FootprintIndex(program, reserving).drops_locations
        assert len(explorer.states) == 400
        assert all({item.var for item in s.mem} >= locations for s in explorer.states)

        other = SemanticsConfig(promise_oracle=OtherOracle(budget=1, max_outstanding=1))
        explorer = Explorer(program, dataclasses.replace(other, por="dpor"))
        index = dpor.FootprintIndex(program, explorer.config)
        assert not index.drops_locations
        assert explorer.behaviors().traces == behaviors(program, other).traces
        assert all({item.var for item in s.mem} == locations for s in explorer.states)
        # The unknown oracle keeps registers too: it may read them.
        assert not index.drops_registers


class TestMacroStepMemo:
    def test_each_distinct_macro_step_runs_once(self, monkeypatch):
        """Over the litmus suite, ``thread_steps`` runs once per distinct
        ``(thread state, live slice of the memory, SC view, offered
        promise locations)`` executed — the live slice being the item
        groups of the locations the thread can still access; a
        memo-bypassed run (one resumed build per DFS iteration, so the
        memo is always cold) takes the same transitions, nodes and
        states."""
        # Macro-step heads are the thread_steps calls made by
        # macro_outcomes itself, not its local-suffix or cancel calls.
        heads = []
        index = None
        real = dpor.thread_steps

        def counting(program, ts, mem, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "macro_outcomes":
                names = index.locations_of(index.live_locations(ts))
                live_slice = tuple(mem.per_loc(name) for name in names)
                offer = kwargs.get("promise_locations")
                heads.append((ts, live_slice, mem.sc_view, offer))
            return real(program, ts, mem, *args, **kwargs)

        monkeypatch.setattr(dpor, "thread_steps", counting)
        total_hits = 0
        for name, test in sorted(LITMUS_SUITE.items()):
            config = dataclasses.replace(suite_config(test), por="dpor")
            index = dpor.FootprintIndex(test.program, config)
            assert index.drops_locations, name
            heads.clear()
            memoized = Explorer(test.program, config)
            memoized.build()
            stats = memoized.dpor_stats
            memo_heads = len(heads)

            heads.clear()
            meter = _OneIteration()
            bypassed = Explorer(test.program, config)
            bypassed.build(meter=meter)
            while bypassed._dpor_state is not None:
                # A fresh explorer per iteration, resumed from the live
                # DFS state, which does not include the memo.
                bypassed = Explorer.resume(
                    bypassed.snapshot(), test.program, config
                )
                bypassed.build(meter=meter)
            cold = bypassed.dpor_stats

            assert cold.memo_hits == 0, name
            assert len(heads) == cold.transitions, name
            assert memo_heads == len(set(heads)), name
            assert stats.transitions == memo_heads + stats.memo_hits, name
            assert (stats.transitions, stats.nodes) == (cold.transitions, cold.nodes), name
            assert len(memoized.states) == len(bypassed.states), name
            total_hits += stats.memo_hits
        assert total_hits > 0


class TestCheckpointResume:
    def test_interrupted_dpor_resumes_to_identical_behaviors(self):
        program = LITMUS_SUITE["2+2W"].program
        unreduced = behaviors(program)
        uninterrupted = behaviors(program, DPOR)
        first = Explorer(program, DPOR)
        first.build(meter=Budget(max_states=10).start())
        checkpoint = first.snapshot()
        assert checkpoint.dpor is not None  # live DFS stack persisted
        resumed = Explorer.resume(checkpoint, program, DPOR).behaviors()
        assert resumed.traces == uninterrupted.traces == unreduced.traces
        assert resumed.state_count == uninterrupted.state_count

    def test_tripped_build_is_not_repeated(self):
        """After a budget trip, ``behaviors()`` reads the partial graph
        instead of restarting the DFS from the root; continuing is
        ``Explorer.resume``'s job, and it reaches the uninterrupted run."""
        from repro.semantics.version import behavior_digest

        program = LITMUS_SUITE["2+2W"].program
        uninterrupted = Explorer(program, DPOR)
        full = uninterrupted.behaviors()
        explorer = Explorer(program, DPOR)
        explorer.build(meter=Budget(max_states=10).start())
        stats = explorer.dpor_stats
        nodes, count = stats.nodes, len(explorer.states)
        assert count < full.state_count
        partial = explorer.behaviors()
        assert not partial.exhaustive
        assert explorer.dpor_stats is stats
        assert (stats.nodes, len(explorer.states)) == (nodes, count)
        assert partial.state_count == count
        resumed = Explorer.resume(explorer.snapshot(), program, DPOR)
        finished = resumed.behaviors()
        assert finished.exhaustive
        assert set(resumed.states) == set(uninterrupted.states)
        assert behavior_digest(finished) == behavior_digest(full)

    def test_checkpoint_file_round_trip(self, tmp_path):
        from repro.robust.checkpoint import load_checkpoint, save_checkpoint

        program = sb()
        explorer = Explorer(program, DPOR)
        explorer.build(meter=Budget(max_states=8).start())
        path = str(tmp_path / "dpor.ckpt")
        save_checkpoint(explorer.snapshot(), path)
        resumed = Explorer.resume(load_checkpoint(path), program, DPOR)
        assert resumed.behaviors().traces == behaviors(program).traces

    def test_pre_dpor_checkpoint_still_resumes(self):
        """Checkpoints written before the ``dpor`` field existed load and
        resume as plain BFS (readers use ``getattr``)."""
        program = sb()
        explorer = Explorer(program, SemanticsConfig())
        explorer.build(meter=Budget(max_states=10).start())
        checkpoint = explorer.snapshot()
        # Simulate the old schema: an unpickled pre-field checkpoint has
        # no ``dpor`` in its instance dict; the class default covers it.
        object.__delattr__(checkpoint, "dpor")
        assert "dpor" not in checkpoint.__dict__
        assert getattr(checkpoint, "dpor", None) is None
        resumed = Explorer.resume(checkpoint, program)
        assert resumed.behaviors().traces == behaviors(program).traces

    def test_interruption_sweep_resumes_to_the_uninterrupted_graph(self):
        """Interrupt the DFS at every small state cap and resume each
        checkpoint to completion: the resumed build stores the same
        states in the same order, takes the same transitions, and digests
        the same behaviors as the uninterrupted one."""
        from repro.semantics.version import behavior_digest

        program = LITMUS_SUITE["2+2W"].program
        full = Explorer(program, DPOR)
        expected = full.behaviors()
        assert expected.traces == behaviors(program).traces
        for cap in (3, 5, 8, 13, 21):
            first = Explorer(program, DPOR)
            first.build(meter=Budget(max_states=cap).start())
            assert not first.exhaustive, cap
            resumed = Explorer.resume(first.snapshot(), program, DPOR)
            finished = resumed.behaviors()
            assert resumed.states == full.states, cap
            assert resumed.dpor_stats.transitions == full.dpor_stats.transitions, cap
            assert behavior_digest(finished) == behavior_digest(expected), cap

    def test_trip_inside_a_local_suffix_resumes_to_the_uninterrupted_graph(self):
        """A 900-step countdown runs in one local suffix, which ticks the
        meter at steps 256, 512 and 768.  Tripping at every tick in turn,
        the suffix trips included, and resuming: the resumed build stores
        the same states and counts each expansion once."""
        from repro.lang.parser import parse_program

        program = parse_program(
            "atomics x; fn count { entry: r1 := 300; jmp loop; "
            "loop: be r1, body, out; body: r1 := r1 - 1; jmp loop; "
            "out: print(1); return; } "
            "fn shot { entry: x.rlx := 1; print(2); return; } threads count, shot;"
        )

        class TripAt:
            def __init__(self, at) -> None:
                self.at = at
                self.ticks = 0
                self.in_suffix = 0

            def tick(self, count, sample=None) -> None:
                self.ticks += 1
                # Only the per-expansion tick passes a sample state.
                self.in_suffix += sample is None
                if self.ticks == self.at:
                    raise BudgetExhausted("deadline")

        full = Explorer(program, DPOR)
        counter = TripAt(None)
        full.build(meter=counter)
        assert counter.in_suffix == 3
        for at in range(1, counter.ticks + 1):
            first = Explorer(program, DPOR)
            first.build(meter=TripAt(at))
            assert first.stop_reason == "deadline", at
            resumed = Explorer.resume(first.snapshot(), program, DPOR)
            assert resumed.behaviors().traces == full.behaviors().traces, at
            assert resumed.states == full.states, at
            assert resumed.dpor_stats.nodes == full.dpor_stats.nodes, at
            assert resumed.dpor_stats.transitions == full.dpor_stats.transitions, at

    def test_checkpoint_from_other_semantics_version_is_refused(
        self, monkeypatch
    ):
        """A DPOR checkpoint records the semantics version it was taken
        under; resuming it under another version raises instead of
        reinterpreting a payload whose layout may have changed."""
        from repro.robust.checkpoint import CheckpointError
        from repro.semantics import version

        program = sb()
        explorer = Explorer(program, DPOR)
        explorer.build(meter=Budget(max_states=8).start())
        checkpoint = explorer.snapshot()
        assert checkpoint.dpor is not None
        assert checkpoint.semantics_version == version.SEMANTICS_VERSION
        monkeypatch.setattr(version, "SEMANTICS_VERSION", "ps21-repro-next")
        with pytest.raises(CheckpointError, match="semantics version"):
            Explorer.resume(checkpoint, program, DPOR)


class TestNewlyEnabledCorpora:
    """Promises, reservations and their mix run real DPOR; behavior-set
    equality with ``por="none"`` is the oracle."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_promise_corpus_three_way(self, seed):
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=2, instrs_per_thread=3)
        )
        base = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
        )
        plain = behaviors(program, base)
        reduced = behaviors(program, dataclasses.replace(base, por="dpor"))
        assert plain.traces == reduced.traces

    # Reservation configs: a thread reserves only the slot right after a
    # location's latest message, so their explorations finish; the
    # footprints degenerate to all-dependent, and finishing threads fold
    # their reachable cancel variants into the finishing macro-step.

    @pytest.mark.parametrize("name", ["MP-relacq", "LB", "CoRR"])
    def test_reservation_explorations_finish(self, name):
        """Reservations add no outcome on these tests: ``none`` and
        ``dpor`` finish with the trace set of the default config (``none``
        on CoRR takes ten times longer and is left out)."""
        program = LITMUS_SUITE[name].program
        expected = behaviors(program).traces
        reserving = SemanticsConfig(enable_reservations=True)
        engines = ["dpor"] if name == "CoRR" else ["none", "dpor"]
        for por in engines:
            result = behaviors(program, dataclasses.replace(reserving, por=por))
            assert result.exhaustive, (name, por)
            assert result.traces == expected, (name, por)

    def test_reservation_footprints_are_all_dependent(self):
        """With reservations enabled a non-done thread may reserve *any*
        location next, so its footprint must conflict with every write —
        DPOR degenerates to full expansion rather than pruning."""
        from repro.semantics.dpor import FootprintIndex
        from repro.semantics.threadstate import initial_thread_state

        program = sb()
        config = SemanticsConfig(enable_reservations=True, por="dpor")
        index = FootprintIndex(program, config)
        ts = initial_thread_state(program, program.threads[0])
        fp = index.thread_footprint(ts)
        assert fp[1] == index.universe  # writes cover every location
        other = initial_thread_state(program, program.threads[1])
        assert dependent(fp, index.thread_footprint(other))

    def test_finished_thread_cancel_closure(self):
        """A thread that runs to ``done`` holding a reservation is
        unswitchable (the machine skips done threads without concrete
        promises), so DPOR must reach its cancel variants while the
        thread is still current.  The closure enumerates them."""
        from repro.lang.builder import straightline_program
        from repro.lang.syntax import AccessMode, Store
        from repro.memory.memory import Memory
        from repro.memory.timemap import BOTTOM_VIEW
        from repro.semantics.dpor import _cancel_closure, _retire
        from repro.semantics.events import ReserveEvent
        from repro.semantics.thread import thread_steps
        from repro.semantics.threadstate import initial_thread_state

        program = straightline_program(
            [[Store("x", Const(1), AccessMode.NA)]]
        )
        config = SemanticsConfig(enable_reservations=True, por="dpor")
        ts = initial_thread_state(program, "t1")
        mem = Memory.initial(sorted(program.locations()))
        reserved = next(
            (new_ts, new_mem)
            for event, new_ts, new_mem in thread_steps(program, ts, mem, config)
            if isinstance(event, ReserveEvent)
        )
        ts, mem = reserved
        # Run the thread to completion while it still holds the reservation.
        while not ts.local.done:
            ts, mem = next(
                (new_ts, new_mem)
                for event, new_ts, new_mem in thread_steps(
                    program, ts, mem, config
                )
                if not isinstance(event, ReserveEvent)
            )
        assert any(item.is_reservation for item in ts.promises)
        closure = _cancel_closure(program, ts, mem, config)
        # The cancelled variant (no reservation left) is reachable.
        assert any(
            not any(item.is_reservation for item in c_ts.promises)
            for c_ts, _ in closure
        )
        # Retiring waits for the closure: the reservation holder stays
        # whole, and each fully cancelled result is retired.
        assert ts.view != BOTTOM_VIEW and _retire(ts) is ts
        retired = [_retire(c_ts) for c_ts, _ in closure if not len(c_ts.promises)]
        assert retired
        for r_ts in retired:
            assert r_ts.local.done and r_ts.local.func == ts.local.func
            assert r_ts.view == BOTTOM_VIEW and r_ts == _retire(r_ts)

    def test_sc_fence_promise_program(self):
        program = sb_with_sc_fences()
        base = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
        )
        plain = behaviors(program, base)
        reduced = behaviors(program, dataclasses.replace(base, por="dpor"))
        assert plain.traces == reduced.traces
        assert (0, 0) not in reduced.outputs()  # SC fences still forbid SB

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_none_differential(self, seed):
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=2, instrs_per_thread=3)
        )
        base = SemanticsConfig(
            promise_oracle=SyntacticPromises(budget=1, max_outstanding=1),
            por="dpor",
        )
        precise = behaviors(program, base)
        oracle = behaviors(program, dataclasses.replace(base, por="none"))
        assert precise.traces == oracle.traces


#: The fulfilling store of the promise LB needs sits in a helper that the
#: thread calls: the candidate mask must fold in callees.
HELPER_STORE = """
atomics x, y;
fn put {
entry:
    y.rlx := 1;
    return;
}
fn t1 {
entry:
    r1 := x.rlx;
    call(put, after);
after:
    print(r1);
    return;
}
fn t2 {
entry:
    r2 := y.rlx;
    x.rlx := 1;
    print(r2);
    return;
}
threads t1, t2;
"""

#: LB whose first thread reads ``x`` in a helper and stores ``y`` after
#: the return: the promise is made inside the helper, where only the
#: pending frame can fulfil it.
HELPER_LOAD = """
atomics x, y;
fn get {
entry:
    r1 := x.rlx;
    return;
}
fn t1 {
entry:
    call(get, after);
after:
    y.rlx := 1;
    print(r1);
    return;
}
fn t2 {
entry:
    r2 := y.rlx;
    x.rlx := 1;
    print(r2);
    return;
}
threads t1, t2;
"""

#: LB whose first thread spin-waits on an atomic flag after its store.
STORE_THEN_SPIN = """
atomics x, y, f;
fn t1 {
entry:
    r1 := x.rlx;
    y.rlx := 1;
    jmp spin;
spin:
    r2 := f.acq;
    be r2, out, spin;
out:
    print(r1);
    return;
}
fn t2 {
entry:
    r3 := y.rlx;
    x.rlx := 1;
    f.rel := 1;
    print(r3);
    return;
}
threads t1, t2;
"""

#: LB whose first thread reads on long after its last store.
READ_TAIL = """
atomics x, y, z;
fn t1 {
entry:
    r1 := x.rlx;
    y.rlx := 1;
    r2 := z.rlx;
    r3 := z.rlx;
    r4 := z.rlx;
    r5 := z.rlx;
    print(r1);
    return;
}
fn t2 {
entry:
    r6 := y.rlx;
    x.rlx := 1;
    z.rlx := 1;
    z.rlx := 2;
    print(r6);
    return;
}
threads t1, t2;
"""

#: LB between ``t2`` and a third thread ``t3`` that reads ``x`` late,
#: after two reads of ``w``; ``t1`` never accesses ``x``.  A promise of
#: ``x`` by ``t2`` is readable only by ``t3``, so only ``t3``'s future
#: keeps it offered, and all ones (``r2 = r3 = 1``) needs it.
LB_LATE_READER = """
atomics x, y, z, w;
fn t1 {
entry:
    r1 := y.rlx;
    print(r1);
    return;
}
fn t2 {
entry:
    r2 := z.rlx;
    x.rlx := 1;
    y.rlx := 1;
    print(r2);
    return;
}
fn t3 {
entry:
    r5 := w.rlx;
    r6 := w.rlx;
    r3 := x.rlx;
    z.rlx := r3;
    print(r3);
    return;
}
threads t1, t2, t3;
"""

PROMISING = SemanticsConfig(
    promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
)


class TestPromiseScope:
    """DPOR offers promises only where they can certify and be read
    (module docs, "Promises only where they can matter"): the trace sets
    stay those of ``por="none"`` with the full oracle."""

    @staticmethod
    def _against_none(source):
        from repro.lang.parser import parse_program

        program = parse_program(source)
        plain = behaviors(program, PROMISING)
        explorer = Explorer(program, dataclasses.replace(PROMISING, por="dpor"))
        reduced = explorer.behaviors()
        assert reduced.traces == plain.traces
        # The promise outcome is there: promises add behaviors.
        assert reduced.outputs() > behaviors(program).outputs()
        return program, explorer, reduced

    def test_fulfilling_store_in_a_helper(self):
        program, explorer, reduced = self._against_none(HELPER_STORE)
        assert (1, 1) in reduced.outputs()
        index = dpor.FootprintIndex(program, explorer.config)
        entry = explorer.states[0].pool[0]
        # The callee's store is a candidate at the caller's entry.
        assert index.offered(entry) == index.mask({"y"})
        # The fulfill map is a static fact, not the pre-check knob.
        unchecked = Explorer(
            program, dataclasses.replace(explorer.config, certification_precheck=False)
        )
        assert unchecked.behaviors().traces == reduced.traces
        assert len(unchecked.states) == len(explorer.states)

    def test_fulfilling_store_in_a_pending_frame(self):
        _, explorer, reduced = self._against_none(HELPER_LOAD)
        assert (1, 1) in reduced.outputs()
        inside = [s.pool[0] for s in explorer.states if s.pool[0].local.func == "get"]
        assert inside and any(ts.has_promises for ts in inside)

    def test_store_before_a_spin_wait(self):
        _, explorer, reduced = self._against_none(STORE_THEN_SPIN)
        assert (1, 1) in reduced.outputs()
        spinning = [
            s.pool[0] for s in explorer.states if s.pool[0].local.label == "spin"
        ]
        # Past its only store the spinner can promise nothing more.
        assert spinning and all(ts.promise_budget == 0 for ts in spinning)

    def test_read_tail_drops_the_spent_budget(self):
        _, explorer, _ = self._against_none(READ_TAIL)
        past_store = [
            s.pool[0]
            for s in explorer.states
            if not s.pool[0].local.done and s.pool[0].local.offset >= 2
        ]
        assert past_store and all(ts.promise_budget == 0 for ts in past_store)
        assert explorer.dpor_stats.budgets_dropped > 0
        # 856 states when the unspent budget was kept after the last store.
        assert len(explorer.states) == 419

    def test_late_reader_keeps_the_promise(self):
        _, explorer, reduced = self._against_none(LB_LATE_READER)
        assert (1, 1, 1) in reduced.outputs()
        assert explorer.dpor_stats.promises_withheld > 0

    @pytest.mark.parametrize("name", ["LB", "LB-OOTA"])
    def test_load_buffering_suite_keeps_its_promise_outcomes(self, name):
        test = LITMUS_SUITE[name]
        config = suite_config(test)
        plain = behaviors(test.program, config)
        reduced = behaviors(test.program, dataclasses.replace(config, por="dpor"))
        assert reduced.traces == plain.traces
        promise_free = behaviors(test.program).outputs()
        if name == "LB":
            assert reduced.outputs() - promise_free == {(1, 1)}
        else:
            assert (1, 1) not in reduced.outputs()
            assert reduced.outputs() == promise_free

    def test_oota_litmus_file(self):
        from pathlib import Path

        from repro.litmus.spec import check_spec, parse_spec

        path = Path(__file__).resolve().parents[2] / "examples" / "litmus" / "oota.litmus"
        spec = parse_spec(path.read_text())
        config = dataclasses.replace(spec.config(), por="dpor")
        result = check_spec(spec, config)
        assert result.ok and result.exhaustive
        assert set(result.observed) == set(
            check_spec(spec, dataclasses.replace(config, por="none")).observed
        )
