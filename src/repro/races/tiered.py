"""Tiered race checking: one ladder, ordered by the evidence on hand.

The tiers:

* **static rw** (:mod:`repro.static.rwraces`): thread-modular read-write
  discharge, zero machine states;
* **static ww** (:mod:`repro.static.wwraces`): the same for write-write
  pairs;
* **exploration**: the program's state graph, scanned *once* for both
  race kinds (:func:`repro.races.wwrf.scan_races`).

:func:`check_races_tiered` orders them by what the caller already has:

* when the caller already holds the program's interleaving graph —
  validation, whose refinement builds it anyway — that graph is scanned
  first, and the static tiers are asked only when it is truncated;
* otherwise static rw, then static ww, and exploration only for the race
  kinds they leave open (``repro races``, the races job).

The contract:

* a static ``RACE_FREE`` is **sound** — it may never contradict what
  exhaustive exploration would find (validated by the Hypothesis property
  tests in ``tests/static/test_soundness.py`` /
  ``tests/static/test_rw_soundness.py`` and the E-STATIC benchmarks), so
  asking it after a truncated scan changes no exhaustive verdict;
* an explored verdict keeps the exploration's ``exhaustive`` flag and
  ``stop_reason``: a deadline- or memory-cancelled exploration reports
  ``confidence == BOUNDED``, never a proof;
* each report records which tier decided via its ``method`` field
  (``"static"`` → zero states explored, ``confidence == PROVED``: the
  static verdict is a proof and costs no budget).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.lang.syntax import Program
from repro.races.ladder import TierOutcome, format_tiers
from repro.races.rwrace import RwReport
from repro.races.wwrf import RaceReport, _check, graph_reports
from repro.semantics.exploration import ExplorationSession, Explorer
from repro.semantics.thread import SemanticsConfig
from repro.static.rwraces import StaticRwReport, analyze_rw_races
from repro.static.wwraces import StaticRaceReport, analyze_ww_races

#: The reports of a race kind the static tier discharged: zero states.
_STATIC_WW = RaceReport(True, None, True, 0, method="static")
_STATIC_RW = RwReport(True, (), True, 0, method="static")


@dataclass(frozen=True)
class RaceLadderReport:
    """The combined outcome of the ladder.  ``static_ww`` / ``static_rw``
    are ``None`` when that static tier never ran (a graph-first check
    whose scan was exhaustive)."""

    ww: RaceReport
    rw: RwReport
    static_ww: Optional[StaticRaceReport]
    static_rw: Optional[StaticRwReport]
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


def _static_tiers(
    program: Program, tiers: List[TierOutcome]
) -> Tuple[StaticRwReport, StaticRaceReport]:
    """Run static rw, then static ww, timing each into ``tiers``."""
    started = time.perf_counter()
    static_rw = analyze_rw_races(program)
    tiers.append(TierOutcome(
        "static-rw", time.perf_counter() - started, static_rw.race_free
    ))
    started = time.perf_counter()
    static_ww = analyze_ww_races(program)
    tiers.append(TierOutcome(
        "static-ww", time.perf_counter() - started, static_ww.race_free
    ))
    return static_rw, static_ww


def check_races_tiered(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
    static_tier: bool = True,
    graph: Optional[Explorer] = None,
) -> RaceLadderReport:
    """The ww-RF report and the rw census of ``program`` (module docs).

    ``graph`` is the program's built interleaving graph, when the caller
    has it: the scan then comes first.  Otherwise a ``session`` (whose
    config then applies) shares what the ladder explores with the
    caller's other checks.  ``nonpreemptive`` reads the ww verdict off
    the Fig. 10 machine (ww-NPRF), explored under the graph's config
    when one is given; the rw census always reads the interleaving
    graph.  ``static_tier=False`` skips the static tiers.
    """
    session = session or ExplorationSession(config if graph is None else graph.config)
    tiers: List[TierOutcome] = []
    static_rw: Optional[StaticRwReport] = None
    static_ww: Optional[StaticRaceReport] = None
    graph_first = graph is not None
    if static_tier and not graph_first:
        static_rw, static_ww = _static_tiers(program, tiers)
    rw = _STATIC_RW if static_rw is not None and static_rw.race_free else None
    ww = _STATIC_WW if static_ww is not None and static_ww.race_free else None
    if ww is None or rw is None:
        started = time.perf_counter()
        if rw is None or (ww is None and not nonpreemptive):
            # One scan of the interleaving graph answers both kinds.
            if graph is None:
                graph = session.graph(program)
            ww_scan, rw_scan = graph_reports(program, graph)
            if rw is None:
                rw = rw_scan
            if ww is None and not nonpreemptive:
                ww = ww_scan
        if ww is None:
            ww = _check(program, config, True, session)[0]
        tiers.append(TierOutcome(
            "exploration",
            time.perf_counter() - started,
            ww.exhaustive and rw.exhaustive,
            f"{max(ww.state_count, rw.state_count)} states",
        ))
    if static_tier and graph_first and not (ww.exhaustive and rw.exhaustive):
        static_rw, static_ww = _static_tiers(program, tiers)
        if not ww.exhaustive and static_ww.race_free:
            ww = _STATIC_WW
        if not rw.exhaustive and static_rw.race_free:
            rw = _STATIC_RW
    return RaceLadderReport(ww, rw, static_ww, static_rw, tuple(tiers))
