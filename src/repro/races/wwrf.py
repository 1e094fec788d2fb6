"""Write-write race freedom (paper Fig. 11).

A machine state ``W = (TP, t, M)`` *generates a write-write race*,
``W ⟹ ww-Race``, iff the current thread's next operation is a non-atomic
write to some ``x`` while the memory contains a concrete message on ``x``
that is neither one of the thread's own promises nor observed by its view:

.. code-block:: text

    nxt(σ) = W(na, x, _)    m ∈ (M \\ TP(t).P)    m.var = x    V.Trlx(x) < m.to
    ─────────────────────────────────────────────────────────────────────────
                            (TP, t, M) ⟹ ww-Race

``ww-RF(P)`` holds iff no *reachable* machine state generates a race.  The
subtlety the paper stresses (Fig. 4): races are checked only on states
reachable through certified machine steps — a thread whose outstanding
promise has become unfulfillable cannot take the step that would reach the
racy state, so the spurious race never materializes.  Our explorer only
ever produces certified states, so the check is exactly state-wise.

``ww-NPRF`` is the same check over the non-preemptive machine; Lemma 5.1
states the two are equivalent, which `tests/races/test_equivalence.py`
validates on the litmus suite.

One scan answers both race kinds: the rw-race predicate
(:mod:`repro.races.rwrace`) is this rule with a non-atomic *read* as the
next operation, so :func:`racing_access` returns the racing store or load
and :func:`scan_races` walks a built graph once for both.  On the
non-preemptive machine only ``cur`` is checked, as ww-NPRF defines it; on
an interleaving graph — ``por="none"`` or DPOR, whose ``cur`` carries no
meaning — a state races if *any* live thread would race as the current
thread, since Fig. 9 can switch to it (:mod:`repro.semantics.dpor`,
"Race scans").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.lang.syntax import AccessMode, Load, Program, Store
from repro.memory.memory import Memory
from repro.memory.timestamps import TS_ZERO
from repro.races.rwrace import RwRaceWitness, RwReport, seen_by
from repro.robust.confidence import Confidence
from repro.semantics.exploration import ExplorationSession, Explorer
from repro.semantics.thread import SemanticsConfig
from repro.semantics.threadstate import ThreadState, next_op


@dataclass(frozen=True)
class WwRaceWitness:
    """Evidence of a write-write race: who raced on what, and the state."""

    tid: int
    loc: str
    state: object

    def __str__(self) -> str:
        state = seen_by(self.state, self.tid)
        return f"ww-race: thread {self.tid} about to na-write {self.loc!r} in {state}"


@dataclass(frozen=True)
class RaceReport:
    """The verdict of a race-freedom check.

    ``method`` records how the verdict was obtained: ``"exhaustive"``
    state exploration, or ``"static"`` when
    :func:`repro.races.tiered.ww_rf_tiered` discharged the program with
    the thread-modular analysis alone (then ``state_count`` is 0 and
    ``exhaustive`` is True — the static ``RACE_FREE`` verdict is a proof).
    """

    race_free: bool
    witness: Optional[WwRaceWitness]
    exhaustive: bool
    state_count: int
    method: str = "exhaustive"
    stop_reason: Optional[str] = None
    #: Why the graph did not run the requested POR mode — the explorer's
    #: ``por_downgrade`` (e.g. ``"nonpreemptive"`` under ``--por=dpor``),
    #: or ``None``.
    downgrade: Optional[str] = None

    @property
    def confidence(self) -> Confidence:
        """Evidence strength: ``PROVED`` only for an exhaustive (or
        statically proved) verdict, else ``BOUNDED``."""
        return Confidence.PROVED if self.exhaustive else Confidence.BOUNDED

    def __bool__(self) -> bool:
        return self.race_free

    def __str__(self) -> str:
        verdict = "race-free" if self.race_free else f"RACY ({self.witness})"
        if self.method == "static":
            kind = "static"
        else:
            kind = "exhaustive" if self.exhaustive else "TRUNCATED"
        return f"RaceReport({verdict}, {self.state_count} states, {kind})"


def racing_access(
    program: Program, ts: ThreadState, mem: Memory
) -> Optional[Union[Store, Load]]:
    """The next operation of thread state ``ts`` if it races in ``mem``: a
    non-atomic store (ww-race) or load (rw-race) of a location holding a
    concrete message that is neither one of the thread's own promises nor
    observed by its view.  ``None`` otherwise."""
    op = next_op(program, ts.local)
    if not (isinstance(op, (Store, Load)) and op.mode is AccessMode.NA):
        return None
    floor = ts.view.trlx.get(op.loc)
    if floor is None:
        # A TimeMap defaults absent entries to 0, but duck-typed views
        # (plain dicts in tests or external clients) return None; comparing
        # against None would raise, so pin the explicit default timestamp.
        floor = TS_ZERO
    for message in mem.concrete(op.loc):
        if message.to > floor and message not in ts.promises:
            return op
    return None


def scan_races(
    program: Program, explorer: Explorer
) -> Tuple[Tuple[WwRaceWitness, ...], Tuple[RwRaceWitness, ...]]:
    """One pass over a built graph: a witness per distinct racing
    ``(tid, loc)``, write-write and read-write, in state order."""
    ww: Dict[Tuple[int, str], WwRaceWitness] = {}
    rw: Dict[Tuple[int, str], RwRaceWitness] = {}
    for state in explorer.states:
        tids = (state.cur,) if explorer.nonpreemptive else range(len(state.pool))
        for tid in tids:
            op = racing_access(program, state.pool[tid], state.mem)
            if op is None:
                continue
            found, kind = (ww, WwRaceWitness) if isinstance(op, Store) else (rw, RwRaceWitness)
            if (tid, op.loc) not in found:
                found[tid, op.loc] = kind(tid, op.loc, state)
    return tuple(ww.values()), tuple(rw.values())


def _check(
    program: Program,
    config: Optional[SemanticsConfig],
    nonpreemptive: bool,
    session: Optional[ExplorationSession],
) -> Tuple[RaceReport, RwReport]:
    """The ww-RF report and the rw census of ``program``, from one scan of
    its graph (shared through ``session``, whose config then applies)."""
    session = session or ExplorationSession(config)
    explorer = session.graph(program, nonpreemptive)
    ww, rw = scan_races(program, explorer)
    witness = ww[0] if ww else None
    graph = dict(
        exhaustive=explorer.exhaustive,
        state_count=len(explorer.states),
        stop_reason=explorer.stop_reason,
        downgrade=explorer.por_downgrade,
    )
    return RaceReport(not ww, witness, **graph), RwReport(not rw, rw, **graph)


def ww_rf(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    session: Optional[ExplorationSession] = None,
) -> RaceReport:
    """``ww-RF(P)`` — write-write race freedom under the interleaving
    machine (Fig. 11).  A ``session`` (whose config then applies) shares
    the scanned graph with the caller's other checks."""
    return _check(program, config, False, session)[0]


def ww_nprf(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    session: Optional[ExplorationSession] = None,
) -> RaceReport:
    """``ww-NPRF(P̂)`` — write-write race freedom under the non-preemptive
    machine (paper Sec. 5, Lemma 5.1)."""
    return _check(program, config, True, session)[0]
