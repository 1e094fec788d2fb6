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
``check_races_tiered`` runs the full ladder.
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
        report = RaceReport(
            race_free=True,
            witness=None,
            exhaustive=True,
            state_count=0,
            method="static",
        )
        return report, static
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
        report = RwReport(
            race_free=True,
            witnesses=(),
            exhaustive=True,
            state_count=0,
            method="static",
        )
        return report, static
    return _check(program, config, nonpreemptive, session)[1], static


@dataclass(frozen=True)
class RaceLadderReport:
    """The combined outcome of the three-tier ladder."""

    ww: RaceReport
    rw: RwReport
    #: ``None`` when the ladder ran without the static ww tier.
    static_ww: Optional[StaticRaceReport]
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
    static_ww: bool = True,
) -> RaceLadderReport:
    """Run the full ladder: static rw, static ww, then — only if either
    was inconclusive — build **one** explorer and scan its states once,
    keeping the verdict of whichever race kind remained undecided.  A
    ``session`` (whose config then applies) shares that graph with the
    caller's other checks; ``static_ww=False`` leaves the ww verdict to
    the scan (``static_ww`` of the report is then ``None``)."""
    started = time.perf_counter()
    static_rw = analyze_rw_races(program)
    rw_elapsed = time.perf_counter() - started
    tiers = [TierOutcome("static-rw", rw_elapsed, static_rw.race_free)]
    static_ww_report: Optional[StaticRaceReport] = None
    if static_ww:
        started = time.perf_counter()
        static_ww_report = analyze_ww_races(program)
        ww_elapsed = time.perf_counter() - started
        tiers.append(TierOutcome("static-ww", ww_elapsed, static_ww_report.race_free))
    rw_report: Optional[RwReport] = None
    ww_report: Optional[RaceReport] = None
    if static_rw.race_free:
        rw_report = RwReport(True, (), True, 0, method="static")
    if static_ww_report is not None and static_ww_report.race_free:
        ww_report = RaceReport(True, None, True, 0, method="static")
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
    return RaceLadderReport(
        ww_report, rw_report, static_ww_report, static_rw, tuple(tiers)
    )
