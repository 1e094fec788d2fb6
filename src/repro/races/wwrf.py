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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang.syntax import AccessMode, Program, Store
from repro.memory.memory import Memory
from repro.memory.timestamps import TS_ZERO
from repro.robust.confidence import Confidence
from repro.semantics.exploration import ExplorationSession, require_scan_graph
from repro.semantics.thread import SemanticsConfig
from repro.semantics.threadstate import ThreadState, next_op


@dataclass(frozen=True)
class WwRaceWitness:
    """Evidence of a write-write race: who raced on what, and the state."""

    tid: int
    loc: str
    state: object

    def __str__(self) -> str:
        return f"ww-race: thread {self.tid} about to na-write {self.loc!r} in {self.state}"


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
    #: Why a requested POR mode was not used for this check (e.g.
    #: ``"state-graph-scan"`` when ``--por=dpor`` was downgraded to fused
    #: BFS because the detector scans every reachable state), or ``None``.
    downgrade: Optional[str] = None

    @property
    def confidence(self) -> Confidence:
        """Evidence strength: ``PROVED`` only for an exhaustive (or
        statically proved) verdict, ``SAMPLED`` when the degradation
        ladder produced it by sampling, else ``BOUNDED``."""
        if self.method == "sampled":
            return Confidence.SAMPLED
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


def thread_generates_ww_race(
    program: Program, tid: int, ts: ThreadState, mem: Memory
) -> Optional[str]:
    """Whether thread ``tid`` generates a ww-race in ``(ts, mem)``; returns
    the raced location, or ``None``."""
    op = next_op(program, ts.local)
    if not (isinstance(op, Store) and op.mode is AccessMode.NA):
        return None
    loc = op.loc
    floor = ts.view.trlx.get(loc)
    if floor is None:
        # A TimeMap defaults absent entries to 0, but duck-typed views
        # (plain dicts in tests or external clients) return None; comparing
        # against None would raise, so pin the explicit default timestamp.
        floor = TS_ZERO
    for message in mem.concrete(loc):
        if message.to > floor and message not in ts.promises:
            return loc
    return None


def ww_race_witness(program: Program, state) -> Optional[WwRaceWitness]:
    """``W ⟹ ww-Race`` for an (interleaving or non-preemptive) machine
    state, inspecting the current thread per Fig. 11."""
    tid = state.cur
    loc = thread_generates_ww_race(program, tid, state.pool[tid], state.mem)
    if loc is None:
        return None
    return WwRaceWitness(tid, loc, state)


def _check(
    program: Program,
    config: Optional[SemanticsConfig],
    nonpreemptive: bool,
    session: Optional[ExplorationSession],
) -> RaceReport:
    session = session or ExplorationSession(config)
    explorer = require_scan_graph(session.scan_graph(program, nonpreemptive))
    found = (ww_race_witness(program, state) for state in explorer.states)
    witness = next((w for w in found if w is not None), None)
    return RaceReport(
        witness is None,
        witness,
        explorer.exhaustive,
        len(explorer.states),
        stop_reason=explorer.stop_reason,
        downgrade=session.scan_downgrade,
    )


def ww_rf(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    session: Optional[ExplorationSession] = None,
) -> RaceReport:
    """``ww-RF(P)`` — write-write race freedom under the interleaving
    machine (Fig. 11).  A ``session`` (whose config then applies) shares
    the scanned graph with the caller's other checks."""
    return _check(program, config, False, session)


def ww_nprf(
    program: Program,
    config: Optional[SemanticsConfig] = None,
    session: Optional[ExplorationSession] = None,
) -> RaceReport:
    """``ww-NPRF(P̂)`` — write-write race freedom under the non-preemptive
    machine (paper Sec. 5, Lemma 5.1)."""
    return _check(program, config, True, session)
