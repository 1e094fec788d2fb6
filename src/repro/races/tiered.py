"""Tiered race checking: static tiers first, one shared exploration last.

The three-tier ladder (cheapest first):

* **tier 0 — static rw** (:mod:`repro.static.rwraces`): thread-modular
  read-write discharge, zero machine states;
* **tier 1 — static ww** (:mod:`repro.static.wwraces`): the same for
  write-write pairs;
* **tier 2 — dynamic explorer**: exhaustive PS2.1 state exploration,
  built *once* and scanned for both race kinds, entered only for the
  analyses the static tiers left inconclusive.

The contract:

* a static ``RACE_FREE`` is **sound** — it may never contradict what
  exhaustive exploration would find (validated by the Hypothesis property
  tests in ``tests/static/test_soundness.py`` /
  ``tests/static/test_rw_soundness.py`` and the E-STATIC benchmarks);
* the fallback preserves exhaustive semantics exactly, including the
  ``exhaustive`` truncation flag and the ``stop_reason`` of a
  budget-governed exploration (``config.budget``) — a deadline- or
  memory-cancelled fallback reports ``confidence == BOUNDED``, never a
  proof;
* the returned reports record which tier decided via their ``method``
  field (``"static"`` → zero states explored, ``confidence == PROVED``:
  the static verdict is a proof and costs no budget).

``ww_rf_tiered`` / ``ww_rf_tiered_with_static`` keep the original
two-tier ww entry points; ``rw_races_tiered`` is the rw counterpart and
``check_races_tiered`` runs the full ladder.  ``check_races_graph_first``
runs it the other way round, for callers that build the interleaving
graph anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lang.syntax import Program
from repro.races.ladder import TierOutcome, format_tiers
from repro.races.rwrace import RwReport
from repro.races.wwrf import RaceReport, _check
from repro.semantics.exploration import ExplorationSession
from repro.semantics.thread import SemanticsConfig
from repro.static.rwraces import StaticRwReport, analyze_rw_races
from repro.static.wwraces import StaticRaceReport, analyze_ww_races

#: The reports of a race kind the static tier discharged: zero states.
_STATIC_WW = RaceReport(True, None, True, 0, method="static")
_STATIC_RW = RwReport(True, (), True, 0, method="static")


def ww_rf_tiered(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
) -> RaceReport:
    """``ww-RF(P)`` via the static tier, falling back to exploration.  A
    ``session`` (whose config then applies) keeps the fallback's graph for
    the caller's other checks."""
    report, _ = ww_rf_tiered_with_static(program, config, nonpreemptive, session)
    return report


def ww_rf_tiered_with_static(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
) -> Tuple[RaceReport, StaticRaceReport]:
    """As :func:`ww_rf_tiered`, also returning the static tier's report
    (for diagnostics: witnesses of why the fallback was needed)."""
    static = analyze_ww_races(program)
    if static.race_free:
        return _STATIC_WW, static
    return _check(program, config, nonpreemptive, session)[0], static


def rw_races_tiered(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
) -> Tuple[RwReport, StaticRwReport]:
    """rw-race detection via the static tier, falling back to exploration
    (through ``session`` when given, as for :func:`ww_rf_tiered`).

    Returns the dynamic-shaped report and the static tier's own report
    (whose witnesses explain any fallback)."""
    static = analyze_rw_races(program)
    if static.race_free:
        return _STATIC_RW, static
    return _check(program, config, nonpreemptive, session)[1], static


@dataclass(frozen=True)
class RaceLadderReport:
    """The combined outcome of the three-tier ladder."""

    ww: RaceReport
    rw: RwReport
    static_ww: StaticRaceReport
    static_rw: StaticRwReport
    #: Per-tier timing/decision trail (empty for reports built by hand).
    tiers: Tuple[TierOutcome, ...] = ()

    @property
    def race_free(self) -> bool:
        """Free of both race kinds."""
        return self.ww.race_free and self.rw.race_free

    @property
    def state_count(self) -> int:
        """States the (shared) dynamic tier explored — 0 when every
        analysis was discharged statically."""
        return max(self.ww.state_count, self.rw.state_count)

    def __str__(self) -> str:
        head = f"RaceLadder(ww: {self.ww}, rw: {self.rw})"
        trail = format_tiers(self.tiers)
        return f"{head}\n{trail}" if trail else head


def check_races_tiered(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
) -> RaceLadderReport:
    """Run the full ladder: static rw, static ww, then — only if either
    was inconclusive — build **one** explorer and scan its states once,
    keeping the verdict of whichever race kind remained undecided.  A
    ``session`` (whose config then applies) shares that graph with the
    caller's other checks."""
    started = time.perf_counter()
    static_rw = analyze_rw_races(program)
    rw_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    static_ww = analyze_ww_races(program)
    ww_elapsed = time.perf_counter() - started
    tiers = [
        TierOutcome("static-rw", rw_elapsed, static_rw.race_free),
        TierOutcome("static-ww", ww_elapsed, static_ww.race_free),
    ]
    rw_report = _STATIC_RW if static_rw.race_free else None
    ww_report = _STATIC_WW if static_ww.race_free else None
    if rw_report is None or ww_report is None:
        started = time.perf_counter()
        ww_scan, rw_scan = _check(program, config, nonpreemptive, session)
        if ww_report is None:
            ww_report = ww_scan
        if rw_report is None:
            rw_report = rw_scan
        tiers.append(TierOutcome(
            "exploration",
            time.perf_counter() - started,
            True,
            f"{ww_scan.state_count} states",
        ))
    return RaceLadderReport(ww_report, rw_report, static_ww, static_rw, tuple(tiers))


def check_races_graph_first(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    session: Optional[ExplorationSession] = None,
    static_tier: bool = True,
    report_rw: bool = True,
) -> Tuple[RaceReport, Optional[RwReport]]:
    """The ladder the other way round, for a caller that explores
    ``program`` on the interleaving machine anyway (through ``session``):
    scan that graph once for both race kinds, and — with ``static_tier``
    — ask the static tiers only when it is truncated.  A static
    ``RACE_FREE`` is sound, so it can change no exhaustive scan's verdict.
    The rw report is ``None`` without ``report_rw``."""
    ww, rw_scan = _check(program, config, False, session)
    rw = rw_scan if report_rw else None
    if static_tier and not ww.exhaustive:
        if analyze_ww_races(program).race_free:
            ww = _STATIC_WW
        if rw is not None and analyze_rw_races(program).race_free:
            rw = _STATIC_RW
    return ww, rw
