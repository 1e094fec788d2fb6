"""Thread-modular static write-write race analysis (a static tier of
race checking).

Exhaustive ``ww_rf`` (:mod:`repro.races.wwrf`) decides race freedom by
walking every reachable PS2.1 machine state — exponential in program
size and the dominant cost of ``validate_corpus``.  Following the
thread-local analyses of Mukherjee et al. ("A Thread-Local Semantics
and Efficient Static Analyses for Race Free Programs"), this module
never explores an interleaving: it combines the per-thread
ownership/publication summaries of :mod:`repro.static.summary` —
computed on the shared abstract-interpretation engine
(:mod:`repro.static.absint`) — pairwise, discharging pairs with the
flag-protocol argument of :mod:`repro.static.protocol`.  Verdicts:

* ``RACE_FREE`` — *sound*: exhaustive exploration cannot find a
  ww-race (the obligation validated by
  ``tests/static/test_soundness.py`` and the E-STATIC benchmark);
* ``POTENTIAL_RACE`` — a concrete suspicious pair of write sites was
  found; may be a false positive (the analysis is path-insensitive),
  so callers fall back to exhaustive checking;
* ``UNKNOWN`` — the conflicting accesses sit outside the analysis
  fragment (function calls put a site's publication context out of
  reach); callers fall back as for ``POTENTIAL_RACE``.

Two discharge arguments are implemented, both justified against
Fig. 11's race definition (a thread about to na-write ``x`` while an
unobserved non-promise message on ``x`` exists):

1. **Disjoint writers.**  If only one thread (index) ever na-writes
   ``x``, no racing message can exist: messages on a non-atomic
   location arise only from na-writes (well-formedness forbids atomic
   accesses to it), the initialization message's timestamp ``0`` never
   exceeds a view floor, a thread's own fulfilled writes are below its
   view, and its own promises are excluded by Fig. 11 itself.  Another
   thread's *promise* of an na-write to ``x`` would have to be
   certified thread-locally, which requires that thread to reach an
   na-write of ``x`` — impossible if it has none.

2. **Flag protocol** (release/acquire "protection") — conditions
   (i)–(iii) of :mod:`repro.static.protocol`, instantiated with the
   second thread's *write* sites.  Any nonzero flag message carries the
   first thread's full view past all its ``x``-writes (release message
   views), the second thread's acquire join raises its view above
   them, and conversely while the first thread still has ``x``-writes
   ahead no nonzero flag message exists, so the second thread can
   neither reach its write nor certify a promise of it (its guard
   cannot read a nonzero value — release stores cannot fulfill
   promises in PS2.1, so no uncertified nonzero message ever appears).

Unlike the PR 1 detector, calls no longer defeat the analysis
wholesale: callee effects are folded in through mod-ref summaries, and
only the sites whose publication context is genuinely unknown
(``released is None``) demote the verdict to ``UNKNOWN``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.lang.syntax import Program
from repro.static.protocol import protected
from repro.static.summary import (
    AccessSite,
    ThreadAccessSummary,
    build_access_summaries,
    build_access_summary,
)


class StaticVerdict(enum.Enum):
    """Three-valued outcome of a static race analysis."""

    RACE_FREE = "race-free"
    POTENTIAL_RACE = "potential-race"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The witness reason attached when call-context gaps block the
#: protection reasoning.
CALLS_REASON = "function calls defeat the protection analysis"
UNPROTECTED_REASON = "no release/acquire protection found"


def build_thread_summary(program: Program, tid: int) -> ThreadAccessSummary:
    """Summarize thread ``tid``'s non-atomic accesses (shared with the
    rw detector; see :func:`repro.static.summary.build_access_summary`)."""
    return build_access_summary(program, tid)


@dataclass(frozen=True)
class StaticRaceWitness:
    """A pair of write sites the analysis could not order."""

    loc: str
    tid_a: int
    tid_b: int
    site_a: AccessSite
    site_b: AccessSite
    definite: bool
    reason: str

    def __str__(self) -> str:
        kind = "potential ww-race" if self.definite else "unanalyzable ww-pair"
        return (
            f"{kind} on {self.loc!r}: thread {self.tid_a} ({self.site_a}) "
            f"vs thread {self.tid_b} ({self.site_b}) — {self.reason}"
        )


@dataclass(frozen=True)
class StaticRaceReport:
    """The verdict of the static pass, with witnesses and summaries."""

    verdict: StaticVerdict
    witnesses: Tuple[StaticRaceWitness, ...]
    summaries: Tuple[ThreadAccessSummary, ...]
    checked_pairs: int

    @property
    def race_free(self) -> bool:
        """Whether the sound ``RACE_FREE`` verdict was reached."""
        return self.verdict is StaticVerdict.RACE_FREE

    def __bool__(self) -> bool:
        return self.race_free

    def __str__(self) -> str:
        head = f"static ww-analysis: {self.verdict} ({self.checked_pairs} pairs checked)"
        if not self.witnesses:
            return head
        lines = [head] + [f"  {w}" for w in self.witnesses]
        return "\n".join(lines)


def _first_site(summary: ThreadAccessSummary, loc: str) -> AccessSite:
    for site in summary.writes:
        if site.loc == loc:
            return site
    raise ValueError(f"no write site for {loc!r} in thread {summary.tid}")


def analyze_ww_races(program: Program) -> StaticRaceReport:
    """Run the full static ww-race analysis on ``program``."""
    summaries = build_access_summaries(program)
    witnesses: List[StaticRaceWitness] = []
    checked = 0
    for i in range(len(summaries)):
        for j in range(i + 1, len(summaries)):
            a, b = summaries[i], summaries[j]
            for loc in sorted(a.write_locs() & b.write_locs()):
                checked += 1
                a_sites = tuple(s for s in a.writes if s.loc == loc)
                b_sites = tuple(s for s in b.writes if s.loc == loc)
                if protected(
                    program, summaries, a, b, a_sites, b_sites
                ) or protected(program, summaries, b, a, b_sites, a_sites):
                    continue
                context_gap = any(
                    site.released is None for site in a_sites + b_sites
                )
                witnesses.append(
                    StaticRaceWitness(
                        loc, a.tid, b.tid, _first_site(a, loc), _first_site(b, loc),
                        definite=not context_gap,
                        reason=CALLS_REASON if context_gap else UNPROTECTED_REASON,
                    )
                )
    if not witnesses:
        verdict = StaticVerdict.RACE_FREE
    elif any(w.definite for w in witnesses):
        verdict = StaticVerdict.POTENTIAL_RACE
    else:
        verdict = StaticVerdict.UNKNOWN
    return StaticRaceReport(verdict, tuple(witnesses), summaries, checked)
