"""One exploration per distinct program: the session behind a validation.

A validation asks for race scans and behavior sets of the same programs;
:class:`ExplorationSession` answers them from at most one state graph per
(program, machine).  These tests pin the reuse (exploration counts) and
its soundness: every verdict agrees with independent ``por="none"`` runs.
"""

from dataclasses import replace

import pytest

from repro.jobs import run_job
from repro.lang.builder import straightline_program
from repro.lang.printer import format_program
from repro.lang.syntax import AccessMode, Const, Load, Print, Reg, Store
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.opt.base import identity_optimizer
from repro.opt.constprop import ConstProp
from repro.opt.cse import CSE
from repro.opt.dce import DCE
from repro.opt.licm import LICM, naive_licm
from repro.opt.merge import Merge
from repro.opt.unsound import NaiveDCE, RedundantWriteIntroduction, UnsoundWaWMerge
from repro.races import check_races_tiered, rw_races, ww_rf
from repro.robust.budget import Budget
from repro.semantics.exploration import ExplorationSession, behaviors, np_behaviors
from repro.semantics.thread import SemanticsConfig
from repro.sim.refinement import check_equivalence, check_refinement
from repro.sim.validate import validate_optimizer, validate_tiered

DPOR = SemanticsConfig(por="dpor")
ORACLE = SemanticsConfig(por="none")

OPTIMIZERS = {
    "constprop": ConstProp,
    "cse": CSE,
    "dce": DCE,
    "licm": LICM,
    "merge": Merge,
    "naive-dce": NaiveDCE,
    "redundant-write": RedundantWriteIntroduction,
    "unsound-waw": UnsoundWaWMerge,
    "naive-licm": naive_licm,
}


def racy():
    """Two unsynchronized na-writes: the static ww tier cannot discharge it."""
    return straightline_program(
        [
            [Store("a", Const(1), AccessMode.NA), Print(Const(1))],
            [Store("a", Const(2), AccessMode.NA), Load("r", "a", AccessMode.NA), Print(Reg("r"))],
        ]
    )


class TestSession:
    def test_equal_programs_are_explored_once(self):
        session = ExplorationSession(DPOR)
        program = LITMUS_SUITE["SB"].program
        first = session.behaviors(program)
        again = session.behaviors(straightline_program([[Print(Const(1))]]))
        assert session.behaviors(program) is first
        assert again is not first
        assert session.explorations == 2

    def test_scan_graph_yields_behaviors(self):
        """The graph a race scan reads is the DPOR graph itself, and it
        answers the behavior question too."""
        program = racy()
        session = ExplorationSession(DPOR)
        graph = session.graph(program)
        assert graph.config.por == "dpor" and graph.dpor_stats is not None
        assert session.behaviors(program).traces == behaviors(program, ORACLE).traces
        assert session.explorations == 1

    def test_machines_are_kept_apart(self):
        program = racy()
        session = ExplorationSession(DPOR)
        session.graph(program)
        session.behaviors(program, nonpreemptive=True)
        assert session.explorations == 2

    def test_truncated_graph_is_returned_as_it_is(self):
        """Exploring a truncated graph again under the same config would
        stop the same way: its behaviors come from the graph at hand."""
        program = racy()
        config = SemanticsConfig(por="dpor", max_states=3)
        session = ExplorationSession(config)
        assert not session.graph(program).exhaustive
        bset = session.behaviors(program)
        assert session.explorations == 1
        assert not bset.exhaustive
        assert bset.traces == behaviors(program, config).traces

    def test_oracle_config_scans_the_plain_graph(self):
        session = ExplorationSession(ORACLE)
        program = racy()
        assert session.graph(program).config == ORACLE
        assert ww_rf(program, session=session).downgrade is None
        assert session.behaviors(program) == behaviors(program, ORACLE)
        assert session.explorations == 1


class TestRefinement:
    def test_unchanged_target_is_explored_once(self):
        program = LITMUS_SUITE["MP-relacq"].program
        session = ExplorationSession(DPOR)
        result = check_refinement(program, program, session=session)
        assert result.holds and result.definitive
        assert result.target_behaviors is result.source_behaviors
        assert session.explorations == 1

    def test_equivalence_of_equal_programs_explores_once(self):
        program = LITMUS_SUITE["SB"].program
        forward, backward = check_equivalence(program, program, DPOR)
        assert forward.holds and backward.holds
        assert forward.target_behaviors is forward.source_behaviors


class TestValidation:
    def test_unchanged_target_reuses_every_source_verdict(self):
        program = LITMUS_SUITE["MP-relacq"].program
        report = validate_optimizer(identity_optimizer(), program, DPOR)
        assert not report.changed and report.ok
        assert report.target_wwrf is report.source_wwrf
        assert report.explorations == 1

    def test_race_scans_feed_refinement(self):
        program = racy()
        report = validate_optimizer(identity_optimizer(), program, DPOR, static_tier=False)
        assert report.source_wwrf.downgrade is None
        assert not report.source_wwrf.race_free
        assert report.explorations == 1

    def test_changed_target_explores_each_program_once(self):
        program = LITMUS_SUITE["Fig15-src"].program
        report = validate_optimizer(
            NaiveDCE(), program, DPOR, static_tier=False, report_rw=True
        )
        assert report.changed and not report.ok
        # Two distinct programs: each scanned once, for ww, rw and behaviors.
        assert report.explorations == 2

    def test_nonpreemptive_rw_census_shares_with_refinement(self):
        program = racy()
        report = validate_optimizer(
            identity_optimizer(), program, DPOR, nonpreemptive=True, report_rw=True
        )
        assert report.target_rw is report.source_rw
        # One interleaving scan (ww) and one non-preemptive scan (rw, then
        # the non-preemptive behaviors).
        assert report.explorations == 2
        assert report.source_rw.downgrade == "nonpreemptive"
        reference = np_behaviors(program, ORACLE).traces
        assert report.refinement.source_behaviors.traces == reference

    def test_caller_supplied_target_skips_the_optimizer(self):
        class Counting(DCE):
            """DCE that counts its runs."""

            runs = 0

            def run(self, program):
                type(self).runs += 1
                return super().run(program)

        program = racy()
        validate_tiered(Counting(), program, DPOR)
        assert Counting.runs == 1

    def test_degraded_unchanged_target_reuses_source(self):
        """A validation job cut short by its budget answers BOUNDED from
        the partial graph: an unchanged target reuses the source's, and
        nothing is explored again."""
        config = replace(DPOR, budget=Budget(max_states=3))
        record = run_job(
            "validate", format_program(racy()), {}, config, identity_optimizer()
        )
        assert not record["exhaustive"]
        assert record["confidence"] == "BOUNDED"
        assert record["explorations"] == 1


SUBJECTS = {name: test.program for name, test in LITMUS_SUITE.items()}
SUBJECTS.update(
    (f"gen-{seed}", random_wwrf_program(seed, GeneratorConfig(threads=2, instrs_per_thread=4)))
    for seed in range(6)
)


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_shared_validation_agrees_with_the_oracle(name):
    """Shared-session validation under DPOR reaches the verdicts and the
    behavior sets of independent ``por="none"`` explorations."""
    references = {}

    def reference(program):
        if program not in references:
            references[program] = (
                behaviors(program, ORACLE).traces,
                ww_rf(program, ORACLE).race_free,
            )
        return references[program]

    source = SUBJECTS[name]
    source_traces, source_rf = reference(source)
    for opt_name, factory in OPTIMIZERS.items():
        optimizer = factory()
        target_traces, target_rf = reference(optimizer.run(source))
        for static_tier in (True, False):
            report = validate_optimizer(optimizer, source, DPOR, static_tier=static_tier)
            label = f"{name}/{opt_name}/static={static_tier}"
            assert report.exhaustive, label
            assert report.refinement.source_behaviors.traces == source_traces, label
            assert report.refinement.target_behaviors.traces == target_traces, label
            assert report.refinement.holds == (target_traces <= source_traces), label
            assert report.source_wwrf.race_free == source_rf, label
            if source_rf:
                assert report.target_wwrf.race_free == target_rf, label
            assert report.explorations <= 2, label


def test_ww_and_rw_scans_share_one_graph():
    """``repro races`` without the static tier: one scan answers both."""
    program = racy()
    session = ExplorationSession(DPOR)
    ww = ww_rf(program, session=session)
    rw = rw_races(program, session=session)
    assert not ww.race_free and rw
    assert session.explorations == 1
    ladder = check_races_tiered(program, DPOR)
    assert ladder.ww.race_free == ww.race_free
    assert {(w.tid, w.loc) for w in ladder.rw.witnesses} == {(w.tid, w.loc) for w in rw}


@pytest.mark.parametrize("static_tier", [True, False])
def test_each_graph_is_scanned_once(monkeypatch, static_tier):
    """``repro races FILE`` without ``--static`` and a validation with the
    rw census take both race kinds from one ``scan_races`` call per graph."""
    from repro.jobs import _races
    from repro.races import wwrf

    scanned = []
    real = wwrf.scan_races

    def counting(program, explorer):
        scanned.append(id(explorer))
        return real(program, explorer)

    monkeypatch.setattr(wwrf, "scan_races", counting)
    record = _races(racy(), {"np": False, "static": False}, DPOR)
    assert not record["ok"] and record["explorations"] == 1
    assert len(scanned) == 1

    scanned.clear()
    report = validate_optimizer(
        NaiveDCE(), LITMUS_SUITE["Fig15-src"].program, DPOR,
        static_tier=static_tier, report_rw=True,
    )
    assert report.changed and report.source_rw is not None
    assert report.target_rw is not None
    assert scanned and len(scanned) == len(set(scanned))
    scanned.clear()
    report = validate_optimizer(
        identity_optimizer(), racy(), DPOR, static_tier=static_tier, report_rw=True
    )
    assert not report.source_wwrf.race_free and not report.source_rw.race_free
    assert len(scanned) == 1
