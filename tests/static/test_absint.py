"""Unit and property tests for the abstract-interpretation engine.

Covers the worklist solver (both directions, widening/narrowing,
dead-edge pruning, one-pass block replay), the interval domain's
soundness against concrete ``eval_expr``, the constants domain's parity
with ConstProp's value analysis, the optimization analyses' domains,
and the interprocedural summary machinery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.availexpr import available_analysis
from repro.analysis.lattice import FLAT_BOT, FLAT_TOP, FlatValue, flat_const, flat_join
from repro.analysis.liveness import liveness_analysis
from repro.analysis.value import value_analysis
from repro.lang.builder import ProgramBuilder, binop
from repro.lang.cfg import Cfg
from repro.lang.syntax import Assign, eval_expr
from repro.lang.values import Int32
from repro.litmus.library import LITMUS_SUITE
from repro.opt.constprop import entry_env_for
from repro.opt.copyprop import copy_analysis
from repro.static.absint import Direction, Domain, solve
from repro.static.absint.domains.constants import ConstantsDomain, possibly_nonzero
from repro.static.absint.domains.intervals import (
    INT32_MAX,
    Interval,
    IntervalEnv,
    IntervalsDomain,
    eval_interval,
    interval_const,
)
from repro.static.absint.domains.modref import FulfillDomain, modref_summaries
from repro.static.absint.interproc import (
    call_graph,
    reachable_functions,
)


def _single_function(build):
    """A one-function program from a FunctionBuilder callback."""
    pb = ProgramBuilder()
    with pb.function("f") as f:
        build(f)
    pb.thread("f")
    return pb.build()


# ---------------------------------------------------------------------------
# Generic solving: a toy reaching-labels domain
# ---------------------------------------------------------------------------


class ReachingLabels(Domain):
    """Every block opens with a marker assignment to a register named
    after its label; a fact is the set of markers passed on the way in
    (forward) or lying ahead (backward), ``None`` while unreached."""

    name = "reaching-labels"

    def __init__(self, direction):
        self.direction = direction

    def bottom(self):
        return None

    def boundary(self):
        return frozenset()

    def join(self, a, b):
        return b if a is None else a if b is None else a | b

    def transfer(self, instr, fact):
        if fact is None or not isinstance(instr, Assign):
            return fact
        return fact | {instr.dst}


def diamond():
    pb = ProgramBuilder()
    f = pb.function("f")
    entry = f.block("entry")
    entry.assign("entry", 0)
    entry.be(binop("==", "c", 0), "then", "else_")
    then = f.block("then")
    then.assign("then", 0)
    then.jmp("join")
    els = f.block("else_")
    els.assign("else_", 0)
    els.jmp("join")
    join = f.block("join")
    join.assign("join", 0)
    join.ret()
    pb.thread("f")
    return pb.build().function("f")


def looped():
    pb = ProgramBuilder()
    f = pb.function("f")
    entry = f.block("entry")
    entry.assign("entry", 0)
    entry.jmp("loop")
    loop = f.block("loop")
    loop.assign("loop", 0)
    loop.be(binop("<", "i", 3), "body", "end")
    body = f.block("body")
    body.assign("body", 0)
    body.jmp("loop")
    end = f.block("end")
    end.assign("end", 0)
    end.ret()
    pb.thread("f")
    return pb.build().function("f")


def test_forward_reaching_labels_diamond():
    """Forward: the labels control passed through before each block."""
    result = solve(diamond(), ReachingLabels(Direction.FORWARD))
    assert result.entry["entry"] == frozenset()
    assert result.entry["then"] == frozenset({"entry"})
    assert result.entry["join"] == frozenset({"entry", "then", "else_"})


def test_forward_fixpoint_in_loop():
    result = solve(looped(), ReachingLabels(Direction.FORWARD))
    assert result.entry["loop"] == frozenset({"entry", "loop", "body"})
    assert result.entry["end"] == frozenset({"entry", "loop", "body"})


def test_backward_reachable_labels():
    """Backward: the labels reachable from each block's exit."""
    result = solve(diamond(), ReachingLabels(Direction.BACKWARD))
    assert result.exit["join"] == frozenset()
    assert result.exit["then"] == frozenset({"join"})
    assert result.exit["entry"] == frozenset({"then", "else_", "join"})


def test_backward_fixpoint_in_loop():
    result = solve(looped(), ReachingLabels(Direction.BACKWARD))
    assert "loop" in result.exit["body"]
    assert "body" in result.exit["loop"]
    assert "end" in result.exit["loop"]


class _Flat(Domain[FlatValue]):
    def bottom(self):
        return FLAT_BOT

    def boundary(self):
        return FLAT_TOP

    def join(self, a, b):
        return flat_join(a, b)


def test_domain_leq_derived_from_join():
    domain = _Flat()
    assert domain.leq(FLAT_BOT, flat_const(1))
    assert domain.leq(flat_const(1), FLAT_TOP)
    assert not domain.leq(FLAT_TOP, flat_const(1))
    assert not domain.leq(flat_const(1), flat_const(2))


# ---------------------------------------------------------------------------
# Forward solving: intervals
# ---------------------------------------------------------------------------


def test_straight_line_intervals():
    def build(f):
        b = f.block("entry")
        b.assign("r", 3)
        b.assign("s", binop("+", "r", 4))
        b.ret()

    program = _single_function(build)
    result = solve(program.function("f"), IntervalsDomain())
    env = result.at("entry", 2)
    assert env.get("r") == interval_const(3)
    assert env.get("s") == interval_const(7)


def test_widening_makes_counting_loop_converge():
    """``r := r + 1`` forever: the interval chain is 2^32 long, so
    convergence within the iteration budget proves widening fired."""

    def build(f):
        b = f.block("entry")
        b.jmp("loop")
        loop = f.block("loop")
        loop.assign("r", binop("+", "r", 1))
        loop.be(binop("<", "r", 1000), "loop", "exit")
        e = f.block("exit")
        e.ret()

    program = _single_function(build)
    result = solve(program.function("f"), IntervalsDomain())
    assert result.widened  # the loop head was widened
    r = result.entry["exit"].get("r")
    assert r.contains(1000)  # sound: the loop exits with r >= 1000


def test_narrowing_recovers_branch_bound():
    """After widening blows `r` to ⊤ at the loop head, the exit branch
    still bounds the exit environment via edge refinement."""

    def build(f):
        b = f.block("entry")
        b.jmp("loop")
        loop = f.block("loop")
        loop.assign("r", binop("+", "r", 1))
        loop.be(binop("<", "r", 10), "loop", "exit")
        e = f.block("exit")
        e.ret()

    program = _single_function(build)
    result = solve(program.function("f"), IntervalsDomain())
    r = result.entry["exit"].get("r")
    assert r.lo >= 10  # the else-edge of `r < 10` knows r >= 10
    assert r.hi < INT32_MAX or r == Interval(10, INT32_MAX)


def test_dead_edge_is_pruned():
    """A constant-false branch arm stays unreached (bottom)."""

    def build(f):
        b = f.block("entry")
        b.assign("r", 0)
        b.be("r", "dead", "live")
        d = f.block("dead")
        d.ret()
        v = f.block("live")
        v.ret()

    program = _single_function(build)
    result = solve(program.function("f"), IntervalsDomain())
    assert result.entry["dead"].is_unreached
    assert not result.entry["live"].is_unreached


def test_branch_refinement_on_then_edge():
    def build(f):
        b = f.block("entry")
        b.load("r", "x", "na")
        b.be(binop("<", "r", 10), "small", "big")
        s = f.block("small")
        s.ret()
        g = f.block("big")
        g.ret()

    program = _single_function(build)
    result = solve(program.function("f"), IntervalsDomain())
    assert result.entry["small"].get("r").hi == 9
    assert result.entry["big"].get("r").lo == 10


def test_degenerate_branch_refines_nothing():
    """``be c, L, L`` must not refine: both polarities flow to L."""

    def build(f):
        b = f.block("entry")
        b.assign("r", 0)
        b.be("r", "join", "join")
        j = f.block("join")
        j.ret()

    program = _single_function(build)
    result = solve(program.function("f"), IntervalsDomain())
    assert not result.entry["join"].is_unreached
    assert result.entry["join"].get("r") == interval_const(0)


# ---------------------------------------------------------------------------
# Interval soundness property
# ---------------------------------------------------------------------------

_REGS = ("r1", "r2", "r3")


def _exprs():
    leaves = st.one_of(
        st.integers(min_value=-50, max_value=50).map(
            lambda v: binop("+", v, 0)
        ),
        st.sampled_from(_REGS).map(lambda r: binop("+", r, 0)),
    )
    ops = st.sampled_from(["+", "-", "*", "==", "!=", "<", "<=", ">", ">="])
    return st.recursive(
        leaves,
        lambda sub: st.tuples(ops, sub, sub).map(lambda t: binop(t[0], t[1], t[2])),
        max_leaves=6,
    )


@given(
    expr=_exprs(),
    values=st.tuples(*(st.integers(min_value=-50, max_value=50) for _ in _REGS)),
    slack=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_eval_interval_contains_concrete_value(expr, values, slack):
    """Galois soundness: if every register's interval contains its
    concrete value, the abstract result contains the concrete result."""
    reg_map = {reg: Int32(v) for reg, v in zip(_REGS, values)}
    env = IntervalEnv.top()
    for reg, v in zip(_REGS, values):
        env = env.set(reg, Interval(v - slack, v + slack))
    concrete = int(eval_expr(expr, reg_map))
    assert eval_interval(expr, env).contains(concrete)


@given(expr=_exprs(), values=st.tuples(*(st.integers(-50, 50) for _ in _REGS)))
@settings(max_examples=100, deadline=None)
def test_possibly_nonzero_is_conservative(expr, values):
    """``possibly_nonzero(e) == False`` must imply e evaluates to 0 for
    every register valuation (the env-free fragment)."""
    if not possibly_nonzero(expr):
        reg_map = {reg: Int32(v) for reg, v in zip(_REGS, values)}
        assert int(eval_expr(expr, reg_map)) == 0


# ---------------------------------------------------------------------------
# Constants domain parity
# ---------------------------------------------------------------------------


def test_constants_domain_matches_value_analysis():
    from repro.analysis.value import value_analysis

    def build(f):
        b = f.block("entry")
        b.assign("r", 3)
        b.be("r", "t", "e")
        t = f.block("t")
        t.assign("s", 1)
        t.jmp("j")
        e = f.block("e")
        e.assign("s", 2)
        e.jmp("j")
        j = f.block("j")
        j.print_("s")
        j.ret()

    program = _single_function(build)
    via_engine = solve(program.function("f"), ConstantsDomain())
    via_api = value_analysis(program, "f")
    for label in ("entry", "t", "e", "j"):
        assert via_engine.entry[label] == via_api.entry[label]
    # `s` joins #1 ⊔ #2 = ⊤ at the join block (no edge refinement).
    assert via_api.entry["j"].get("s").is_top


# ---------------------------------------------------------------------------
# Backward solving: fulfill facts
# ---------------------------------------------------------------------------


def test_backward_fulfill_facts():
    pb = ProgramBuilder(atomics={"x", "b"})
    with pb.function("f") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.store("x", 1, "rel")
        b.store("b", 2, "rlx")
        b.ret()
    pb.thread("f")
    program = pb.build()
    summaries = modref_summaries(program, ("f",))
    result = solve(program.function("f"), FulfillDomain(summaries))
    # Before the na store both a and b lie ahead; after it only b; the
    # rel store never fulfills so it contributes nothing.
    assert result.at("entry", 0) == frozenset({"a", "b"})
    assert result.at("entry", 1) == frozenset({"b"})
    assert result.at("entry", 3) == frozenset()


def test_fulfill_facts_cross_calls():
    pb = ProgramBuilder()
    with pb.function("helper") as f:
        b = f.block("entry")
        b.store("c", 7, "na")
        b.ret()
    with pb.function("f") as f:
        b = f.block("entry")
        b.call("helper", "after")
        a = f.block("after")
        a.ret()
    pb.thread("f")
    program = pb.build()
    summaries = modref_summaries(program, ("f", "helper"))
    result = solve(program.function("f"), FulfillDomain(summaries))
    # At the call point the callee's fulfill footprint is visible.
    assert result.at("entry", 0) == frozenset({"c"})
    assert result.at("after", 0) == frozenset()


# ---------------------------------------------------------------------------
# Interprocedural machinery
# ---------------------------------------------------------------------------


def _call_chain_program():
    pb = ProgramBuilder()
    with pb.function("c") as f:
        b = f.block("entry")
        b.store("z", 1, "na")
        b.ret()
    with pb.function("b") as f:
        blk = f.block("entry")
        blk.call("c", "done")
        d = f.block("done")
        d.ret()
    with pb.function("a") as f:
        blk = f.block("entry")
        blk.call("b", "done")
        d = f.block("done")
        d.ret()
    with pb.function("other") as f:
        b = f.block("entry")
        b.ret()
    pb.thread("a")
    return pb.build()


def test_call_graph_and_reachability():
    program = _call_chain_program()
    graph = call_graph(program)
    assert set(graph["a"]) == {"b"}
    assert set(graph["b"]) == {"c"}
    assert reachable_functions(program, "a") == ("a", "b", "c")
    assert "other" not in reachable_functions(program, "a")


def test_modref_summaries_are_transitive():
    program = _call_chain_program()
    summaries = modref_summaries(program, ("a", "b", "c"))
    assert summaries["a"].writes == frozenset({"z"})
    assert summaries["a"].fulfills == frozenset({"z"})


def test_modref_summaries_tolerate_recursion():
    pb = ProgramBuilder()
    with pb.function("f") as f:
        b = f.block("entry")
        b.store("a", 1, "na")
        b.be("r", "again", "done")
        again = f.block("again")
        again.call("f", "done")
        d = f.block("done")
        d.ret()
    pb.thread("f")
    program = pb.build()
    summaries = modref_summaries(program, ("f",))
    assert summaries["f"].writes == frozenset({"a"})


def test_constants_domain_replay_offsets():
    def build(f):
        b = f.block("entry")
        b.assign("r", 1)
        b.assign("r", binop("+", "r", 1))
        b.assign("r", binop("*", "r", 3))
        b.ret()

    program = _single_function(build)
    result = solve(program.function("f"), ConstantsDomain())
    facts = result.before_instructions("entry")
    assert facts[1].get("r").value == 1
    assert facts[2].get("r").value == 2
    assert result.at("entry", 3).get("r").value == 6


# ---------------------------------------------------------------------------
# Block replay and lazy widening points
# ---------------------------------------------------------------------------


_ANALYSES = {
    "value": lambda p, f: value_analysis(p, f, entry_env_for(p, f)),
    "availability": lambda p, f: available_analysis(p, f),
    "liveness": liveness_analysis,
    "copies": copy_analysis,
}


@pytest.mark.parametrize("analysis", sorted(_ANALYSES))
def test_before_instructions_replays_every_point(analysis):
    """One replay per block lists ``len(instrs) + 1`` points and agrees
    with the per-point ``at`` — for the forward domains and for the
    backward liveness alike."""
    for test in LITMUS_SUITE.values():
        program = test.program
        for func, heap in program.functions:
            result = _ANALYSES[analysis](program, func)
            for label, block in heap.blocks:
                facts = result.before_instructions(label)
                assert len(facts) == len(block.instrs) + 1
                for offset, fact in enumerate(facts):
                    assert fact == result.at(label, offset), (test.name, label, offset)


def test_finite_domains_never_compute_dominators(monkeypatch):
    """Liveness and availability converge on a loop before any join count
    passes the widening delay, so no back edges (hence no dominators) are
    ever computed."""

    def refuse(self):
        raise AssertionError("dominators computed")

    monkeypatch.setattr(Cfg, "dominators", refuse)
    pb = ProgramBuilder()
    f = pb.function("f")
    entry = f.block("entry")
    entry.load("r", "a", "na")
    entry.jmp("loop")
    loop = f.block("loop")
    loop.be(binop("<", "i", 3), "body", "end")
    body = f.block("body")
    body.assign("i", binop("+", "i", 1))
    body.load("s", "a", "na")
    body.jmp("loop")
    end = f.block("end")
    end.print_("i")
    end.ret()
    pb.thread("f")
    program = pb.build()
    assert "i" in liveness_analysis(program, "f").entry["loop"].regs
    assert ("load", "r", "a") in available_analysis(program, "f").entry["body"]
