"""Explorer and behavior-set tests: prefix closure, truncation, loops."""

import pytest

from repro.lang.builder import ProgramBuilder, binop, straightline_program
from repro.lang.syntax import Const, Print, Skip
from repro.semantics.events import EVENT_DONE
from repro.semantics.exploration import ExplorationBoundExceeded, Explorer, behaviors
from repro.semantics.thread import SemanticsConfig


class TestBasics:
    def test_empty_program_terminates(self):
        program = straightline_program([[Skip()]])
        result = behaviors(program)
        assert result.exhaustive
        assert ((EVENT_DONE,)) in result.traces
        assert () in result.traces  # prefix closure

    def test_single_output(self):
        program = straightline_program([[Print(Const(3))]])
        result = behaviors(program)
        assert result.terminal_traces() == frozenset({(3, EVENT_DONE)})
        assert result.outputs() == frozenset({(3,)})

    def test_prefix_closure(self):
        program = straightline_program([[Print(Const(1)), Print(Const(2))]])
        traces = behaviors(program).traces
        assert () in traces
        assert (1,) in traces
        assert (1, 2) in traces
        assert (1, 2, EVENT_DONE) in traces

    def test_output_interleavings(self):
        program = straightline_program([[Print(Const(1))], [Print(Const(2))]])
        outs = behaviors(program).outputs()
        assert outs == frozenset({(1, 2), (2, 1)})


class TestLoops:
    def test_terminating_loop(self):
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
        result = behaviors(pb.build())
        assert result.exhaustive
        assert result.outputs() == frozenset({(3,)})

    def test_infinite_silent_loop_has_no_done_trace(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        f.block("spin").jmp("spin")
        pb.thread("f")
        result = behaviors(pb.build())
        assert result.exhaustive  # the state graph is finite (one cycle)
        assert result.terminal_traces() == frozenset()
        assert result.traces == frozenset({()})

    def test_productive_infinite_loop_capped_by_max_outputs(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        loop = f.block("loop")
        loop.print_(1)
        loop.jmp("loop")
        pb.thread("f")
        config = SemanticsConfig(max_outputs=3)
        result = behaviors(pb.build(), config)
        longest = max(len([e for e in t if not isinstance(e, str)]) for t in result.traces)
        assert longest == 3
        assert result.terminal_traces() == frozenset()


class TestBounds:
    def test_truncation_reported(self):
        program = straightline_program([[Print(Const(1))], [Print(Const(2))]])
        config = SemanticsConfig(max_states=3)
        result = behaviors(program, config)
        assert not result.exhaustive

    def test_strict_mode_raises(self):
        program = straightline_program([[Print(Const(1))], [Print(Const(2))]])
        config = SemanticsConfig(max_states=3)
        with pytest.raises(ExplorationBoundExceeded):
            behaviors(program, config, raise_on_bound=True)

    def test_dropped_edges_counted_and_reported(self):
        program = straightline_program([[Print(Const(1))], [Print(Const(2))]])
        config = SemanticsConfig(max_states=3)
        result = behaviors(program, config)
        # The cap silently discarded successors; the count says how many.
        assert result.dropped_edges > 0
        assert f"{result.dropped_edges} edges dropped" in str(result)

    def test_exhaustive_run_drops_nothing(self):
        program = straightline_program([[Print(Const(1))], [Print(Const(2))]])
        result = behaviors(program, SemanticsConfig())
        assert result.exhaustive and result.dropped_edges == 0
        assert "dropped" not in str(result)


class TestExplorerReuse:
    def test_build_idempotent(self):
        program = straightline_program([[Skip()]])
        explorer = Explorer(program, SemanticsConfig())
        explorer.build()
        count = len(explorer.states)
        explorer.build()
        assert len(explorer.states) == count

    def test_states_accessible_for_scanning(self):
        program = straightline_program([[Skip()]])
        explorer = Explorer(program, SemanticsConfig()).build()
        assert all(hasattr(s, "pool") for s in explorer.states)


class TestBehaviorSetApi:
    def test_refines_reflexive(self):
        program = straightline_program([[Print(Const(1))]])
        b = behaviors(program)
        assert b.refines(b)
        assert b <= b

    def test_refines_strict(self):
        small = behaviors(straightline_program([[Print(Const(1))]]))
        # A program with strictly more behaviors: prints 1 or 2 by race.
        big = behaviors(straightline_program([[Print(Const(1))], [Print(Const(2))]]))
        assert not big.refines(small)
