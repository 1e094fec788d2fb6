"""Liveness analysis tests — especially the release-write barrier."""


from repro.analysis.liveness import LiveSet, liveness_analysis, transfer_instruction
from repro.lang.builder import ProgramBuilder, binop, straightline_program
from repro.lang.syntax import (
    AccessMode,
    Assign,
    BinOp,
    Cas,
    Const,
    Fence,
    FenceKind,
    Load,
    Print,
    Reg,
    Store,
)

ALL_LOCS = frozenset({"a", "b"})


class TestTransfer:
    def test_dead_store_leaves_fact(self):
        live = LiveSet(frozenset(), frozenset())
        instr = Store("a", Reg("r"), AccessMode.NA)
        assert transfer_instruction(instr, live, ALL_LOCS) == live

    def test_live_store_kills_loc_and_uses_regs(self):
        live = LiveSet(frozenset(), frozenset({"a"}))
        instr = Store("a", Reg("r"), AccessMode.NA)
        out = transfer_instruction(instr, live, ALL_LOCS)
        assert out == LiveSet(frozenset({"r"}), frozenset())

    def test_release_write_makes_all_na_locs_live(self):
        live = LiveSet(frozenset(), frozenset())
        instr = Store("x", Const(1), AccessMode.REL)
        out = transfer_instruction(instr, live, ALL_LOCS)
        assert out.locs == ALL_LOCS

    def test_relaxed_write_is_not_a_barrier(self):
        live = LiveSet(frozenset(), frozenset())
        instr = Store("x", Const(1), AccessMode.RLX)
        out = transfer_instruction(instr, live, ALL_LOCS)
        assert out.locs == frozenset()

    def test_acquire_read_is_not_a_barrier(self):
        live = LiveSet(frozenset(), frozenset())
        instr = Load("r", "x", AccessMode.ACQ)
        out = transfer_instruction(instr, live, ALL_LOCS)
        assert out.locs == frozenset()

    def test_release_cas_is_a_barrier(self):
        live = LiveSet(frozenset(), frozenset())
        instr = Cas("r", "x", Const(0), Const(1), AccessMode.RLX, AccessMode.REL)
        out = transfer_instruction(instr, live, ALL_LOCS)
        assert out.locs == ALL_LOCS

    def test_release_fence_is_a_barrier(self):
        live = LiveSet(frozenset(), frozenset())
        out = transfer_instruction(Fence(FenceKind.REL), live, ALL_LOCS)
        assert out.locs == ALL_LOCS
        out = transfer_instruction(Fence(FenceKind.SC), live, ALL_LOCS)
        assert out.locs == ALL_LOCS
        out = transfer_instruction(Fence(FenceKind.ACQ), live, ALL_LOCS)
        assert out.locs == frozenset()

    def test_na_load_makes_loc_live(self):
        live = LiveSet(frozenset({"r"}), frozenset())
        out = transfer_instruction(Load("r", "a", AccessMode.NA), live, ALL_LOCS)
        assert out == LiveSet(frozenset(), frozenset({"a"}))

    def test_dead_load_is_transparent(self):
        live = LiveSet(frozenset(), frozenset())
        out = transfer_instruction(Load("r", "a", AccessMode.NA), live, ALL_LOCS)
        assert out == live

    def test_print_uses_regs(self):
        live = LiveSet(frozenset(), frozenset())
        out = transfer_instruction(Print(BinOp("+", Reg("a"), Reg("b"))), live, ALL_LOCS)
        assert out.regs == frozenset({"a", "b"})


class TestWholeFunction:
    def test_fig15_annotations(self):
        """Reproduce the paper's Fig. 15 blue annotations: y is dead after
        y:=2 only *after* the release write, never before it."""
        pb = ProgramBuilder(atomics={"x"})
        with pb.function("t1") as f:
            b = f.block("entry")
            b.store("y", 2, "na")
            b.store("x", 1, "rel")
            b.store("y", 4, "na")
            b.ret()
        pb.thread("t1")
        program = pb.build()
        result = liveness_analysis(program, "t1")
        facts = result.before_instructions("entry")[1:]
        # After y:=2 (i.e. before the release write): y must be live —
        # the barrier keeps the first write.
        assert "y" in facts[0].locs
        # After the release write: y is dead (y:=4 overwrites, and the
        # function is a pure thread entry so nothing is live at return).
        assert "y" not in facts[1].locs

    def test_call_boundary_conservative(self):
        pb = ProgramBuilder()
        with pb.function("main") as f:
            b = f.block("entry")
            b.store("a", 1, "na")
            b.call("helper", "after")
            after = f.block("after")
            after.ret()
        with pb.function("helper") as f:
            b = f.block("entry")
            b.load("r", "a", "na")
            b.print_("r")
            b.ret()
        pb.thread("main")
        program = pb.build()
        result = liveness_analysis(program, "main")
        facts = result.before_instructions("entry")[1:]
        # a:=1 is followed by a call that may read a — live.
        assert "a" in facts[0].locs

    def test_call_target_return_is_conservative(self):
        pb = ProgramBuilder()
        with pb.function("main") as f:
            b = f.block("entry")
            b.call("helper", "after")
            f.block("after").ret()
        with pb.function("helper") as f:
            b = f.block("entry")
            b.store("a", 1, "na")
            b.ret()
        pb.thread("main")
        program = pb.build()
        result = liveness_analysis(program, "helper")
        facts = result.before_instructions("entry")[1:]
        # helper can be called: at its return everything stays live, so
        # the a-write cannot be considered dead.
        assert "a" in facts[0].locs

    def test_loop_keeps_loop_carried_register_live(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        f.block("entry").assign("i", 0)
        f.block("entry").jmp("loop")
        f.block("loop").be(binop("<", "i", 3), "body", "end")
        body = f.block("body")
        body.assign("i", binop("+", "i", 1))
        body.jmp("loop")
        end = f.block("end")
        end.print_("i")
        end.ret()
        pb.thread("f")
        result = liveness_analysis(pb.build(), "f")
        assert "i" in result.entry["loop"].regs

    def test_dead_register_chain(self):
        """r2 := r1 where r2 is unused makes r1 dead too (transitively)."""
        program = straightline_program(
            [[Assign("r1", Const(5)), Assign("r2", Reg("r1"))]]
        )
        result = liveness_analysis(program, "t1")
        facts = result.before_instructions("entry")[1:]
        assert "r2" not in facts[0].regs
        assert "r1" not in result.entry["entry"].regs
