"""Static analyses over CSimpRTL programs (no state exploration).

All passes share one substrate: the abstract-interpretation engine of
:mod:`repro.static.absint` (a generic worklist fixpoint over CSimpRTL
CFGs with pluggable domains — flat constants, intervals, per-location
access/ownership facts, interprocedural mod-ref summaries).  On top of
it:

* :mod:`repro.static.summary` — per-thread access summaries (the shared
  facts both race detectors consume);
* :mod:`repro.static.protocol` — the release/acquire flag-protocol
  discharge argument;
* :mod:`repro.static.wwraces` — thread-modular static write-write race
  detection (``RACE_FREE`` / ``POTENTIAL_RACE`` / ``UNKNOWN``);
* :mod:`repro.static.rwraces` — its read-write counterpart;
* :mod:`repro.static.certcheck` — the view-bound certification
  pre-check consumed by :mod:`repro.semantics.certification`;
* :mod:`repro.static.lint` — IR well-formedness verification and the
  strict optimizer output gate;
* :mod:`repro.static.crossing` — crossing-legality checking of a
  source/target diff against the paper's Sec. 7 rules.

The race tiers feed the three-tier ladder of :mod:`repro.races.tiered`
(static-rw → static-ww → dynamic explorer).  See
``docs/static-analysis.md`` for the soundness arguments and the tiering
contract.
"""

from repro.static.crossing import (
    BlockMatching,
    CrossingProfile,
    CrossingReport,
    CrossingViolation,
    check_crossing,
    match_blocks,
)
from repro.static.lint import (
    LintIssue,
    LintReport,
    StrictModeViolation,
    check_optimizer_output,
    lint_program,
)
from repro.static.rwraces import StaticRwReport, StaticRwWitness, analyze_rw_races
from repro.static.summary import (
    AccessSite,
    ThreadAccessSummary,
    build_access_summaries,
    build_access_summary,
)
from repro.static.wwraces import (
    StaticRaceReport,
    StaticRaceWitness,
    StaticVerdict,
    analyze_ww_races,
    build_thread_summary,
)

__all__ = [
    "AccessSite",
    "BlockMatching",
    "CrossingProfile",
    "CrossingReport",
    "CrossingViolation",
    "LintIssue",
    "LintReport",
    "StaticRaceReport",
    "StaticRaceWitness",
    "StaticRwReport",
    "StaticRwWitness",
    "StaticVerdict",
    "StrictModeViolation",
    "ThreadAccessSummary",
    "analyze_rw_races",
    "analyze_ww_races",
    "build_access_summaries",
    "build_access_summary",
    "build_thread_summary",
    "check_crossing",
    "match_blocks",
    "check_optimizer_output",
    "lint_program",
]
