"""Constant-value analysis tests."""


from repro.analysis.lattice import FLAT_TOP, flat_const
from repro.analysis.value import Env, eval_abstract, value_analysis
from repro.lang.builder import ProgramBuilder, binop, straightline_program
from repro.lang.syntax import AccessMode, BinOp, Const, Load, Reg


class TestEnv:
    def test_initial_registers_are_zero(self):
        env = Env.initial()
        assert env.get("r") == flat_const(0)

    def test_set_get(self):
        env = Env.initial().set("r", flat_const(5))
        assert env.get("r") == flat_const(5)

    def test_unreached_absorbs(self):
        env = Env.unreached()
        assert env.join(Env.initial()) == Env.initial()

    def test_join_differing_constants(self):
        a = Env.initial().set("r", flat_const(1))
        b = Env.initial().set("r", flat_const(2))
        assert a.join(b).get("r") == FLAT_TOP

    def test_top_everything(self):
        env = Env.initial().set("r", flat_const(1)).top_everything()
        assert env.get("r") == FLAT_TOP
        assert env.get("other") == FLAT_TOP


class TestAbstractEval:
    def test_const(self):
        assert eval_abstract(Const(7), Env.initial()) == flat_const(7)

    def test_register(self):
        env = Env.initial().set("r", flat_const(3))
        assert eval_abstract(Reg("r"), env) == flat_const(3)

    def test_folding(self):
        env = Env.initial().set("r", flat_const(3))
        expr = BinOp("*", Reg("r"), Const(4))
        assert eval_abstract(expr, env) == flat_const(12)

    def test_top_propagates(self):
        env = Env.initial().set("r", FLAT_TOP)
        expr = BinOp("+", Reg("r"), Const(1))
        assert eval_abstract(expr, env) == FLAT_TOP

    def test_comparison_folds(self):
        env = Env.initial()
        assert eval_abstract(BinOp("<", Const(1), Const(2)), env) == flat_const(1)


class TestAnalysis:
    def test_constants_propagate_across_blocks(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        entry = f.block("entry")
        entry.assign("r", 5)
        entry.jmp("next")
        f.block("next").print_("r")
        pb.thread("f")
        result = value_analysis(pb.build(), "f")
        assert result.entry["next"].get("r") == flat_const(5)

    def test_memory_reads_are_top(self):
        program = straightline_program(
            [[Load("r", "x", AccessMode.RLX)]], atomics={"x"}
        )
        result = value_analysis(program, "t1")
        envs = result.before_instructions("entry")
        after_load = result.before_instructions("entry")[-1]
        assert after_load.get("r") == FLAT_TOP

    def test_join_of_branches(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        f.block("entry").be(binop("==", "c", 0), "a", "b")
        a = f.block("a")
        a.assign("r", 1)
        a.jmp("join")
        b = f.block("b")
        b.assign("r", 2)
        b.jmp("join")
        f.block("join").ret()
        pb.thread("f")
        result = value_analysis(pb.build(), "f")
        assert result.entry["join"].get("r") == FLAT_TOP

    def test_same_constant_on_both_branches_survives(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        f.block("entry").be(binop("==", "c", 0), "a", "b")
        a = f.block("a")
        a.assign("r", 7)
        a.jmp("join")
        b = f.block("b")
        b.assign("r", 7)
        b.jmp("join")
        f.block("join").ret()
        pb.thread("f")
        result = value_analysis(pb.build(), "f")
        assert result.entry["join"].get("r") == flat_const(7)

    def test_loop_increment_reaches_top(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        entry = f.block("entry")
        entry.assign("i", 0)
        entry.jmp("loop")
        loop = f.block("loop")
        loop.be(binop("<", "i", 3), "body", "end")
        body = f.block("body")
        body.assign("i", binop("+", "i", 1))
        body.jmp("loop")
        f.block("end").ret()
        pb.thread("f")
        result = value_analysis(pb.build(), "f")
        assert result.entry["loop"].get("i") == FLAT_TOP

    def test_call_boundary_clobbers(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        entry = f.block("entry")
        entry.assign("r", 5)
        entry.call("g", "after")
        f.block("after").ret()
        pb.function("g").block("entry").ret()
        pb.thread("f")
        result = value_analysis(pb.build(), "f")
        assert result.entry["after"].get("r") == FLAT_TOP
