"""Availability analysis tests — the acquire-read kill discipline."""


from repro.analysis.availexpr import (
    available_analysis,
    lookup_expr,
    lookup_load,
    transfer_instruction,
)
from repro.lang.builder import ProgramBuilder, binop
from repro.lang.syntax import (
    AccessMode,
    Assign,
    BinOp,
    Cas,
    Const,
    Fence,
    FenceKind,
    Load,
    Reg,
    Store,
)

F0 = frozenset()


def after(instrs, facts=F0):
    for instr in instrs:
        facts = transfer_instruction(instr, facts)
    return facts


class TestTransfer:
    def test_na_load_generates_fact(self):
        facts = after([Load("r", "a", AccessMode.NA)])
        assert ("load", "r", "a") in facts

    def test_redefinition_kills_fact(self):
        facts = after([Load("r", "a", AccessMode.NA), Assign("r", Const(1))])
        assert ("load", "r", "a") not in facts

    def test_acquire_read_kills_all_load_facts(self):
        facts = after(
            [Load("r", "a", AccessMode.NA), Load("s", "x", AccessMode.ACQ)]
        )
        assert not any(f[0] == "load" for f in facts)

    def test_relaxed_read_preserves_load_facts(self):
        facts = after(
            [Load("r", "a", AccessMode.NA), Load("s", "x", AccessMode.RLX)]
        )
        assert ("load", "r", "a") in facts

    def test_release_write_preserves_load_facts(self):
        facts = after(
            [Load("r", "a", AccessMode.NA), Store("x", Const(1), AccessMode.REL)]
        )
        assert ("load", "r", "a") in facts

    def test_own_na_store_kills_that_location_only(self):
        facts = after(
            [
                Load("r", "a", AccessMode.NA),
                Load("s", "b", AccessMode.NA),
                Store("a", Const(1), AccessMode.NA),
            ]
        )
        assert ("load", "r", "a") not in facts
        assert ("load", "s", "b") in facts

    def test_store_of_register_generates_fact(self):
        facts = after([Store("a", Reg("v"), AccessMode.NA)])
        assert ("load", "v", "a") in facts

    def test_acquire_cas_kills(self):
        cas = Cas("r", "x", Const(0), Const(1), AccessMode.ACQ, AccessMode.RLX)
        facts = after([Load("r2", "a", AccessMode.NA), cas])
        assert not any(f[0] == "load" for f in facts)

    def test_relaxed_cas_preserves(self):
        cas = Cas("r", "x", Const(0), Const(1), AccessMode.RLX, AccessMode.RLX)
        facts = after([Load("r2", "a", AccessMode.NA), cas])
        assert ("load", "r2", "a") in facts

    def test_acquire_fence_kills_release_fence_keeps(self):
        base = [Load("r", "a", AccessMode.NA)]
        assert not any(
            f[0] == "load" for f in after(base + [Fence(FenceKind.ACQ)])
        )
        assert ("load", "r", "a") in after(base + [Fence(FenceKind.REL)])

    def test_expr_fact_generated_and_killed(self):
        expr = BinOp("+", Reg("a"), Reg("b"))
        facts = after([Assign("r", expr)])
        assert ("expr", "r", expr) in facts
        facts = after([Assign("r", expr), Assign("a", Const(1))])
        assert ("expr", "r", expr) not in facts  # operand clobbered

    def test_naive_mode_skips_acquire_kill(self):
        facts = F0
        facts = transfer_instruction(Load("r", "a", AccessMode.NA), facts, False)
        facts = transfer_instruction(Load("s", "x", AccessMode.ACQ), facts, False)
        assert ("load", "r", "a") in facts


class TestWholeFunction:
    def test_must_analysis_intersects_at_join(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        f.block("entry").be(binop("==", "c", 0), "then", "else_")
        then = f.block("then")
        then.load("r", "a", "na")
        then.jmp("join")
        els = f.block("else_")
        els.skip()
        els.jmp("join")
        f.block("join").ret()
        pb.thread("f")
        result = available_analysis(pb.build(), "f")
        assert result.entry["join"] == frozenset()  # only one branch loads

    def test_fact_flows_through_both_branches(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        entry = f.block("entry")
        entry.load("r", "a", "na")
        entry.be(binop("==", "c", 0), "then", "else_")
        then = f.block("then")
        then.skip()
        then.jmp("join")
        els = f.block("else_")
        els.skip()
        els.jmp("join")
        f.block("join").ret()
        pb.thread("f")
        result = available_analysis(pb.build(), "f")
        assert ("load", "r", "a") in result.entry["join"]

    def test_loop_fact_survives_clean_body(self):
        """A fact established before a loop holds at the header iff the
        body preserves it — the mechanism behind LICM via CSE."""
        pb = ProgramBuilder()
        f = pb.function("f")
        entry = f.block("entry")
        entry.load("r", "a", "na")
        entry.jmp("loop")
        loop = f.block("loop")
        loop.be(binop("<", "i", 3), "body", "end")
        body = f.block("body")
        body.load("s", "a", "na")
        body.assign("i", binop("+", "i", 1))
        body.jmp("loop")
        f.block("end").ret()
        pb.thread("f")
        result = available_analysis(pb.build(), "f")
        assert ("load", "r", "a") in result.entry["loop"]
        assert ("load", "r", "a") in result.entry["body"]

    def test_loop_fact_killed_by_acquire_in_body(self):
        pb = ProgramBuilder(atomics={"x"})
        f = pb.function("f")
        entry = f.block("entry")
        entry.load("r", "a", "na")
        entry.jmp("loop")
        loop = f.block("loop")
        loop.be(binop("<", "i", 3), "body", "end")
        body = f.block("body")
        body.load("g", "x", "acq")
        body.load("s", "a", "na")
        body.assign("i", binop("+", "i", 1))
        body.jmp("loop")
        f.block("end").ret()
        pb.thread("f")
        result = available_analysis(pb.build(), "f")
        assert ("load", "r", "a") not in result.entry["body"]

    def test_call_clobbers_everything(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        entry = f.block("entry")
        entry.load("r", "a", "na")
        entry.call("g", "after")
        f.block("after").ret()
        g = pb.function("g")
        g.block("entry").ret()
        pb.thread("f")
        result = available_analysis(pb.build(), "f")
        assert result.entry["after"] == frozenset()


class TestLookups:
    def test_lookup_load(self):
        facts = frozenset({("load", "r1", "a"), ("load", "r2", "b")})
        assert lookup_load(facts, "a", exclude="r9") == "r1"
        assert lookup_load(facts, "a", exclude="r1") is None
        assert lookup_load(None, "a", exclude="r9") is None

    def test_lookup_expr(self):
        expr = BinOp("+", Reg("a"), Const(1))
        facts = frozenset({("expr", "r1", expr)})
        assert lookup_expr(facts, expr, exclude="r9") == "r1"
        assert lookup_expr(facts, BinOp("-", Reg("a"), Const(1)), exclude="r9") is None
