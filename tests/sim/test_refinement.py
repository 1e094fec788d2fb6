"""Refinement checker tests."""


from repro.jobs import get_optimizer
from repro.lang.builder import straightline_program
from repro.lang.parser import parse_program
from repro.lang.syntax import Const, Print
from repro.robust.confidence import Confidence
from repro.semantics.exploration import behaviors
from repro.semantics.thread import SemanticsConfig
from repro.sim.refinement import check_equivalence, check_refinement, compare_behaviors
from repro.sim.validate import validate_optimizer


def prints(*values):
    return straightline_program([[Print(Const(v)) for v in values]])


def test_reflexive():
    program = prints(1, 2)
    result = check_refinement(program, program)
    assert result.holds and result.definitive


def test_fewer_behaviors_refine():
    source = straightline_program([[Print(Const(1))], [Print(Const(2))]])
    target = prints(1, 2)  # one fixed interleaving
    result = check_refinement(source, target)
    assert result.holds


def test_more_behaviors_fail_with_counterexample():
    source = prints(1, 2)
    target = straightline_program([[Print(Const(1))], [Print(Const(2))]])
    result = check_refinement(source, target)
    assert not result.holds
    assert result.counterexample is not None
    assert result.counterexample[0] == 2  # the (2, ...) trace is new


def test_nonpreemptive_refinement():
    program = prints(1)
    result = check_refinement(program, program, nonpreemptive=True)
    assert result.holds


def test_equivalence_pair():
    program = prints(3)
    fwd, bwd = check_equivalence(program, program)
    assert fwd.holds and bwd.holds


def test_bounded_verdict_flagged():
    source = prints(1)
    config = SemanticsConfig(max_states=2)
    result = check_refinement(source, source, config)
    assert not result.definitive


def test_str_rendering():
    result = check_refinement(prints(1), prints(1))
    assert "holds" in str(result)
    bad = check_refinement(prints(1), prints(2))
    assert "FAILS" in str(bad)


def test_truncated_source_refutes_nothing():
    """A truncated source set may lack a trace the bound cut off: a target
    trace missing from it is inconclusive, not a counterexample."""
    program = prints(1, 2)
    partial = behaviors(program, SemanticsConfig(max_states=2))
    assert not partial.exhaustive
    result = compare_behaviors(behaviors(program), partial)
    assert result.holds and not result.definitive
    assert result.counterexample is not None
    assert "not refuted" in str(result) and "FAILS" not in str(result)
    # Against an exhaustive source an extra target trace refutes.
    refuted = compare_behaviors(behaviors(prints(1, 2, 3)), behaviors(program))
    assert not refuted.holds and refuted.definitive


#: Dead register work before a print: the pipeline drops it, so under a
#: small state cap the target prints where the truncated source has not.
DEAD_WORK = """
fn t1 {
entry:
    a := 1;
    b := a + 1;
    c := b + 1;
    d := c + 1;
    print(3);
    return;
}
threads t1;
"""


def test_validation_against_a_truncated_source_is_bounded():
    source = parse_program(DEAD_WORK)
    report = validate_optimizer(
        get_optimizer("pipeline"), source, SemanticsConfig(max_states=2)
    )
    assert report.changed
    assert not report.refinement.source_behaviors.exhaustive
    assert report.refinement.counterexample == (3,)
    assert report.ok and report.confidence is Confidence.BOUNDED
