"""Tiered race checking: static tier first, exhaustive fallback."""

from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Store
from repro.litmus.library import LITMUS_SUITE
from repro.races import (
    check_races_graph_first,
    ww_rf,
    ww_rf_tiered,
    ww_rf_tiered_with_static,
)
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


def test_static_discharge_skips_exploration():
    report = ww_rf_tiered(disjoint())
    assert report.race_free
    assert report.method == "static"
    assert report.state_count == 0
    assert report.exhaustive  # a static proof is not a truncation
    assert "static" in str(report)


def test_fallback_on_potential_race():
    report, static = ww_rf_tiered_with_static(racy())
    assert static.verdict is StaticVerdict.POTENTIAL_RACE
    assert report.method == "exhaustive"
    assert not report.race_free
    assert report.witness.loc == "a"


def test_tiered_agrees_with_exhaustive_on_litmus():
    for name, test in LITMUS_SUITE.items():
        tiered = ww_rf_tiered(test.program)
        exhaustive = ww_rf(test.program)
        assert tiered.race_free == exhaustive.race_free, name


def test_fallback_preserves_truncation_flag():
    report = ww_rf_tiered(racy(), SemanticsConfig(max_states=1))
    assert report.method == "exhaustive"
    assert not report.exhaustive


def test_nonpreemptive_fallback():
    report = ww_rf_tiered(racy(), nonpreemptive=True)
    assert report.method == "exhaustive"
    assert not report.race_free

    static_side = ww_rf_tiered(disjoint(), nonpreemptive=True)
    assert static_side.method == "static" and static_side.race_free


def test_graph_first_scans_an_exhaustive_graph():
    ww, rw = check_races_graph_first(disjoint())
    assert ww.method == "exhaustive" and ww.race_free and ww.state_count > 0
    assert rw is not None and rw.method == "exhaustive" and rw.race_free
    assert check_races_graph_first(disjoint(), report_rw=False)[1] is None


def test_graph_first_asks_the_static_tiers_only_when_truncated():
    capped = SemanticsConfig(max_states=1)
    ww, rw = check_races_graph_first(disjoint(), capped)
    assert ww.method == rw.method == "static"
    assert ww.race_free and ww.exhaustive and rw.race_free
    ww, rw = check_races_graph_first(disjoint(), capped, static_tier=False)
    assert ww.method == rw.method == "exhaustive"
    assert not ww.exhaustive and not rw.exhaustive
    # The static tier cannot discharge a real race: the scan's verdict stays.
    ww, _ = check_races_graph_first(racy(), capped)
    assert ww.method == "exhaustive" and not ww.exhaustive
