"""Read-write race detection (paper Sec. 2.5).

The paper deliberately *allows* read-write races in source programs —
optimizations such as LInv (the first half of LICM) introduce them, and the
output of one pass is the input of the next.  This detector exists to
*demonstrate* that fact (experiment E-FIG5): it reports states where a
thread is about to non-atomically read a location for which the memory
holds a concrete write the thread has not observed.

Detection is memory-shaped, mirroring Fig. 11's ww-race rule with the next
operation being a read: the "write racing with a later read" direction is
visible as an unobserved message; the converse (a read racing with a write
that has not happened yet) is the same race witnessed from the other
thread's state, which the state-space sweep also visits.  The predicate
and the scan are shared with ww-RF (:func:`repro.races.wwrf.scan_races`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lang.syntax import Program
from repro.robust.confidence import Confidence
from repro.semantics.exploration import ExplorationSession
from repro.semantics.thread import SemanticsConfig


def seen_by(state: object, tid: int) -> object:
    """``state`` as the racing thread ``tid`` sees it, with ``tid`` as the
    current thread.  A racy state of an interleaving graph races for
    whichever thread Fig. 9 switches to, and a DPOR state stores
    ``cur == 0`` whoever moved, so the stored ``cur`` need not name the
    racer."""
    if getattr(state, "cur", tid) == tid:
        return state
    return state.replace(cur=tid)


@dataclass(frozen=True)
class RwRaceWitness:
    """A thread about to na-read a location with an unobserved write."""

    tid: int
    loc: str
    state: object

    def __str__(self) -> str:
        state = seen_by(self.state, self.tid)
        return f"rw-race: thread {self.tid} about to na-read {self.loc!r} in {state}"


@dataclass(frozen=True)
class RwReport:
    """The verdict of a read-write race check (mirror of
    :class:`~repro.races.wwrf.RaceReport`, with the full witness list —
    rw detection is a census, not just a freedom bit)."""

    race_free: bool
    witnesses: Tuple[RwRaceWitness, ...]
    exhaustive: bool
    state_count: int
    method: str = "exhaustive"
    stop_reason: Optional[str] = None
    #: POR downgrade reason (see :class:`~repro.races.wwrf.RaceReport`).
    downgrade: Optional[str] = None

    @property
    def confidence(self) -> Confidence:
        """Evidence strength, as for :class:`~repro.races.wwrf.RaceReport`."""
        return Confidence.PROVED if self.exhaustive else Confidence.BOUNDED

    def __bool__(self) -> bool:
        return self.race_free

    def __str__(self) -> str:
        if self.race_free:
            verdict = "race-free"
        else:
            verdict = f"RACY ({len(self.witnesses)} witnesses)"
        if self.method == "static":
            kind = "static"
        else:
            kind = "exhaustive" if self.exhaustive else "TRUNCATED"
        return f"RwReport({verdict}, {self.state_count} states, {kind})"


def rw_races(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    nonpreemptive: bool = False,
    session: Optional[ExplorationSession] = None,
) -> Tuple[RwRaceWitness, ...]:
    """All distinct (tid, loc) read-write race witnesses over the reachable
    states (at most one representative per pair).  A ``session`` (whose
    config then applies) shares the scanned graph with a ww-RF check."""
    # The scan lives with the ww-RF rule it shares (wwrf imports this
    # module's witness and report types).
    from repro.races.wwrf import _check

    return _check(program, config, nonpreemptive, session)[1].witnesses
