"""The field-level builders of thread states and the capped memory are
exact: every object they make equals, and hashes equal to, the one the
public constructor builds from the same fields.

``LocalState.replace``/``set_reg`` reuse the normalized register tuple,
``ThreadState.replace``/``with_local`` re-intern only the views that
changed and carry ``has_promises`` over, dpor's ``normalize``,
``strip_thread`` and ``_retire`` build through them, and ``Memory.cap``
builds the capped memory in one pass.  A state that differs from its
constructor twin in any field, hash or slot would split or merge stored
states, so the dpor counters are pinned to the values the constructor-only
code produced.
"""

import dataclasses
import pickle
import random

import pytest

from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.memory.memory import Memory
from repro.memory.message import Message, Reservation
from repro.memory.timemap import BOTTOM_VIEW
from repro.memory.timestamps import successor
from repro.semantics.exploration import Explorer
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig, thread_steps
from repro.semantics.threadstate import LocalState, ThreadState

PROMISES = SemanticsConfig(
    promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
)

#: ``(stored states, nodes, transitions, memo hits)`` of each litmus-suite
#: dpor graph, as built when every thread state went through the public
#: constructors; the promise-bearing rows were re-pinned when dpor began
#: to offer promises only where they can certify and be read
#: (``ps21-repro-7``).
SUITE_DPOR = {
    "2+2W": (65, 65, 90, 42),
    "CAS-excl": (10, 10, 12, 4),
    "CoRR": (106, 106, 178, 136),
    "CoWR": (20, 20, 27, 6),
    "Fig15-bad": (20, 20, 26, 7),
    "Fig15-src": (37, 37, 51, 19),
    "Fig16-src": (5, 5, 4, 0),
    "Fig4": (35, 35, 54, 23),
    "LB": (28, 28, 40, 19),
    "LB-OOTA": (12, 12, 15, 7),
    "MP-relacq": (10, 10, 12, 1),
    "MP-rlx": (32, 32, 43, 17),
    "Reorder-src": (39, 39, 58, 26),
    "Reorder-tgt": (28, 28, 39, 19),
    "SB": (28, 28, 39, 17),
}


def suite_config(test) -> SemanticsConfig:
    if not test.promise_budget:
        return SemanticsConfig(por="dpor")
    oracle = SyntacticPromises(
        budget=test.promise_budget, max_outstanding=test.promise_budget
    )
    return SemanticsConfig(promise_oracle=oracle, por="dpor")


def rebuilt(ts: ThreadState) -> ThreadState:
    """``ts`` made again through the public constructors only."""
    local = ts.local
    return ThreadState(
        LocalState(
            local.func, local.label, local.offset, local.regs, local.stack, local.done
        ),
        ts.view,
        ts.promises,
        ts.vrel,
        ts.vacq,
        ts.promise_budget,
    )


def assert_exact(ts: ThreadState) -> None:
    twin = rebuilt(ts)
    assert ts.local == twin.local and hash(ts.local) == hash(twin.local)
    assert ts.local.regs == twin.local.regs
    assert ts == twin and hash(ts) == hash(twin)
    assert ts.has_promises == any(item.is_concrete for item in ts.promises)
    assert ts.has_promises == twin.has_promises
    loaded = pickle.loads(pickle.dumps(ts))
    assert loaded == ts and hash(loaded) == hash(ts)
    assert loaded.has_promises == ts.has_promises


def check_graph(explorer: Explorer) -> int:
    """Every thread state of every stored state, and of every thread step
    out of it, is exact; returns how many were checked."""
    program, config = explorer.program, explorer.config
    checked = 0
    for state in explorer.states:
        for ts in state.pool:
            assert_exact(ts)
            checked += 1
            for _event, succ, _mem in thread_steps(program, ts, state.mem, config):
                assert_exact(succ)
                checked += 1
    return checked


class TestStoredStates:
    @pytest.mark.parametrize("name", sorted(LITMUS_SUITE))
    def test_litmus_suite(self, name):
        test = LITMUS_SUITE[name]
        explorer = Explorer(test.program, suite_config(test)).build()
        assert explorer.exhaustive
        assert check_graph(explorer) > 0
        stats = explorer.dpor_stats
        counts = (len(explorer.states), stats.nodes, stats.transitions, stats.memo_hits)
        assert counts == SUITE_DPOR[name]

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_promise_programs(self, seed):
        program = random_wwrf_program(
            seed, GeneratorConfig(threads=2, instrs_per_thread=5)
        )
        explorer = Explorer(program, dataclasses.replace(PROMISES, por="dpor")).build()
        assert explorer.exhaustive
        assert check_graph(explorer) > 0


class TestBuilders:
    def test_set_reg_keeps_normal_form(self):
        local = LocalState("f", "entry", 0, regs=(("b", 2), ("d", 4)))
        for name, value in (("a", 1), ("b", 0), ("c", 3), ("d", 5), ("e", 0)):
            local = local.set_reg(name, value)
            twin = LocalState(
                local.func, local.label, local.offset, local.regs, local.stack, local.done
            )
            assert local == twin and hash(local) == hash(twin)
        assert local.regs == (("a", 1), ("c", 3), ("d", 5))

    def test_replace_renormalizes_given_registers(self):
        local = LocalState("f", "entry", 0).replace(regs=(("s", 0), ("r", 1)))
        assert local.regs == (("r", 1),)

    def test_replace_rescans_changed_promises(self):
        message = Message("x", 1, 1, 2, BOTTOM_VIEW)
        ts = ThreadState(LocalState("f", "entry", 0))
        promised = ts.replace(promises=ts.promises.add(message))
        assert promised.has_promises and not ts.has_promises
        reserved = ts.replace(promises=ts.promises.add(Reservation("x", 1, 2)))
        assert not reserved.has_promises
        assert promised.with_local(LocalState("f", "entry", 1)).has_promises

    def test_replace_rejects_unknown_fields(self):
        local = LocalState("f", "entry", 0)
        with pytest.raises(TypeError, match="no field ofset"):
            local.replace(ofset=1)
        with pytest.raises(TypeError, match="no field regz"):
            local.replace(regs=(), regz=())
        with pytest.raises(TypeError, match="no field veiw"):
            ThreadState(local).replace(veiw=BOTTOM_VIEW)


def _old_cap(mem: Memory, promises: Memory) -> Memory:
    """The capped memory as one ``add`` per reservation."""
    capped = mem
    for var in mem.locations():
        for lo, hi in mem.gaps(var):
            if not any(p.var == var and p.frm <= lo and hi <= p.to for p in promises):
                capped = capped.add(Reservation(var, lo, hi))
        last = capped.latest_ts(var)
        capped = capped.add(Reservation(var, last, successor(last)))
    return capped


def test_one_pass_cap_matches_reservation_by_reservation():
    rng = random.Random(7)
    for _ in range(400):
        mem = Memory.initial(["x", "y", "z"][: rng.randint(1, 3)])
        for _ in range(rng.randint(0, 6)):
            var = rng.choice(mem.locations())
            frm, to = rng.choice(mem.candidate_intervals(var, 0, rng.random() < 0.5))
            if rng.random() < 0.8:
                item = Message(var, rng.randint(0, 2), frm, to, BOTTOM_VIEW)
            else:
                item = Reservation(var, frm, to)
            mem = mem.try_add(item) or mem
        promises = Memory(
            tuple(item for item in mem if item.frm != item.to and rng.random() < 0.3)
        )
        for cap_promises in (Memory(()), promises):
            expected = _old_cap(mem, cap_promises)
            capped = mem.cap(cap_promises)
            assert capped == expected and hash(capped) == hash(expected)
            assert capped.items == expected.items
            assert capped._by_var == expected._by_var
            assert capped.needs_renormalize == expected.needs_renormalize
