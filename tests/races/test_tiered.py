"""The race ladder: static tiers first, or the graph first when the
caller already holds it."""

from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Store
from repro.litmus.library import LITMUS_SUITE
from repro.races import check_races_tiered, ww_rf
from repro.semantics.exploration import ExplorationSession, Explorer
from repro.semantics.thread import SemanticsConfig
from repro.static import StaticVerdict


def disjoint():
    return straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("b", Const(1), AccessMode.NA)]]
    )


def racy():
    return straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Store("a", Const(2), AccessMode.NA)]]
    )


def graph_first(program, config=SemanticsConfig(), static_tier=True):
    """The ladder given the program's built graph."""
    graph = Explorer(program, config).build()
    return check_races_tiered(program, static_tier=static_tier, graph=graph)


def test_static_discharge_skips_exploration():
    ladder = check_races_tiered(disjoint())
    report = ladder.ww
    assert report.race_free
    assert report.method == "static"
    assert report.state_count == 0
    assert report.exhaustive  # a static proof is not a truncation
    assert "static" in str(report)
    assert ladder.rw.method == "static" and ladder.state_count == 0
    assert [tier.tier for tier in ladder.tiers] == ["static-rw", "static-ww"]


def test_fallback_on_potential_race():
    ladder = check_races_tiered(racy())
    assert ladder.static_ww.verdict is StaticVerdict.POTENTIAL_RACE
    report = ladder.ww
    assert report.method == "exhaustive"
    assert not report.race_free
    assert report.witness.loc == "a"


def test_tiered_agrees_with_exhaustive_on_litmus():
    for name, test in LITMUS_SUITE.items():
        tiered = check_races_tiered(test.program).ww
        exhaustive = ww_rf(test.program)
        assert tiered.race_free == exhaustive.race_free, name


def test_fallback_preserves_truncation_flag():
    report = check_races_tiered(racy(), SemanticsConfig(max_states=1)).ww
    assert report.method == "exhaustive"
    assert not report.exhaustive


def test_nonpreemptive_fallback():
    """``nonpreemptive`` moves only the ww verdict to the Fig. 10 machine;
    the rw census reads the interleaving graph."""
    session = ExplorationSession()
    ladder = check_races_tiered(racy(), nonpreemptive=True, session=session)
    assert ladder.ww.method == "exhaustive"
    assert not ladder.ww.race_free
    assert ladder.rw.method == "static"  # no na-read: nothing to explore
    assert session.explorations == 1  # the non-preemptive graph alone

    static_side = check_races_tiered(disjoint(), nonpreemptive=True).ww
    assert static_side.method == "static" and static_side.race_free


def test_graph_first_scans_an_exhaustive_graph():
    ladder = graph_first(disjoint())
    ww, rw = ladder.ww, ladder.rw
    assert ww.method == "exhaustive" and ww.race_free and ww.state_count > 0
    assert rw.method == "exhaustive" and rw.race_free
    # The static tiers were never asked.
    assert ladder.static_ww is None and ladder.static_rw is None
    assert [tier.tier for tier in ladder.tiers] == ["exploration"]


def test_graph_first_asks_the_static_tiers_only_when_truncated():
    capped = SemanticsConfig(max_states=1)
    ladder = graph_first(disjoint(), capped)
    ww, rw = ladder.ww, ladder.rw
    assert ww.method == rw.method == "static"
    assert ww.race_free and ww.exhaustive and rw.race_free
    ladder = graph_first(disjoint(), capped, static_tier=False)
    ww, rw = ladder.ww, ladder.rw
    assert ww.method == rw.method == "exhaustive"
    assert not ww.exhaustive and not rw.exhaustive
    # The static tier cannot discharge a real race: the scan's verdict stays.
    ww = graph_first(racy(), capped).ww
    assert ww.method == "exhaustive" and not ww.exhaustive
