"""The interleaving PS2.1 machine (paper Fig. 9).

Machine states are ``W = (TP, t, M)``.  Three rules:

* **(sw-step)** — re-target the current thread id, labeled ``sw``;
* **(τ-step)** — silent thread step(s) ending in a *consistent*
  configuration, labeled ``τ``;
* **(out-step)** — a ``print`` step, labeled ``out(v)`` (the paper's rule
  imposes no consistency requirement on out-steps, and neither do we).

The paper's τ-step allows a bundle ``→+`` of thread steps before the
consistency check.  We explore at single-step granularity — each silent
step must itself re-establish consistency.  Promise-set obligations are the
only source of inconsistency and both views and promise fulfillment evolve
monotonically, so intermediate states of any certifiable bundle are
certifiable by the bundle's own continuation; single-step granularity
therefore reaches the same consistent machine states while keeping the
state graph canonical (this is the standard presentation in the PS
literature, e.g. Kang et al. POPL'17).

Timestamps are integers with bounded in-gap headroom
(:mod:`repro.memory.timestamps`): whenever a successor state's memory is
*tight* (some free gap shrunk below ``MIN_GAP``), the successor is
renormalized — every timestamp in the whole state is remapped through one
order-preserving map — before it is handed to the explorer.  The current
state is never renormalized in place (the explorer indexes it by identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from repro.lang.syntax import Assign, Be, Call, Jmp, Program, Return, Skip
from repro.memory.memory import Memory
from repro.memory.timestamps import Timestamp, renormalize_map
from repro.perf.intern import HashConsed, intern_pool, seal
from repro.semantics.certification import CertificationStats, consistent
from repro.semantics.events import OutputEvent, SilentEvent
from repro.semantics.thread import SemanticsConfig, thread_steps
from repro.semantics.threadstate import (
    ThreadPool,
    ThreadState,
    initial_thread_state,
    update_pool,
)


@dataclass(frozen=True)
class SwitchEvent:
    """The ``sw`` program event — a context switch to thread ``target``."""

    target: int

    def __str__(self) -> str:
        return f"sw({self.target})"


#: Program events ``pe ::= τ | out(v) | sw``.
ProgEvent = Union[SilentEvent, OutputEvent, SwitchEvent]


class MachineState(HashConsed):
    """``W = (TP, t, M)``.

    The hash is precomputed at construction and the pool tuple is
    interned, hashed once for both (``intern_pool`` returns the pool's
    hash with the canonical pool): the explorer probes its visited set with every successor
    state, and a cached hash plus identity-sharing substructures turn
    that probe from a deep structural walk into near-O(1) work
    (:mod:`repro.perf.intern`).

    ``cur`` carries no meaning on a DPOR graph: DPOR never takes switch
    steps, so it stores every state with ``cur == 0``
    (:mod:`repro.semantics.dpor`, "State identity").
    """

    __slots__ = ("pool", "cur", "mem")

    _fields = ("pool", "cur", "mem")

    def __init__(self, pool: ThreadPool, cur: int, mem: Memory) -> None:
        pool, pool_hash = intern_pool(pool)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "cur", cur)
        object.__setattr__(self, "mem", mem)
        seal(self, ("W", pool_hash, cur, mem._hashcode))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not MachineState:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return self.cur == other.cur and self.mem == other.mem and self.pool == other.pool

    __hash__ = HashConsed.__hash__

    @property
    def current_thread(self) -> ThreadState:
        return self.pool[self.cur]

    @property
    def all_done(self) -> bool:
        """Every thread finished and fulfilled all its promises."""
        return all(ts.local.done and not ts.has_promises for ts in self.pool)

    def __str__(self) -> str:
        threads = ", ".join(f"t{i}:{ts.local}" for i, ts in enumerate(self.pool))
        return f"W(cur=t{self.cur}, [{threads}], M={self.mem})"


def renormalized_state(state):
    """``state`` with all timestamps renormalized, if its memory is tight.

    Builds **one** rank map over every timestamp in the state — memory
    intervals, the SC view, each thread's views and promise set — and
    remaps everything through it, so every cross-structure equality
    (views pointing at message timestamps, promises mirrored in memory)
    survives.  Order is preserved exactly, so the result is
    observationally identical with all gaps reopened to ``GRANULE``.

    Works for both machine flavors (anything with ``pool``/``mem`` fields
    and a ``replace`` method).  States whose memory is not tight are
    returned unchanged — the common case is a single attribute check.
    """
    if not state.mem.needs_renormalize:
        return state
    stamps: Set[Timestamp] = set()
    state.mem.collect_timestamps(stamps)
    for ts in state.pool:
        ts.collect_timestamps(stamps)
    mapping = renormalize_map(stamps)
    pool = tuple(ts.remap_timestamps(mapping) for ts in state.pool)
    return state.replace(pool=pool, mem=state.mem.remap_timestamps(mapping))


def initial_machine_state(program: Program, config: SemanticsConfig) -> MachineState:
    """``P ==init==> W`` — all threads at their entries, memory ``M0``."""
    pool = tuple(
        initial_thread_state(program, func, config.promise_budget)
        for func in program.threads
    )
    mem = Memory.initial(sorted(program.locations()))
    return MachineState(pool, 0, mem)


#: Instruction/terminator classes with exactly one silent, memory-free
#: successor: the pure-local steps a DPOR macro-step folds into its
#: suffix (:mod:`repro.semantics.dpor`).
_PURE_LOCAL = (Skip, Assign, Jmp, Be, Call, Return)


def machine_steps(
    program: Program,
    state: MachineState,
    config: SemanticsConfig,
    cert_cache: Optional[Dict] = None,
    cert_stats: Optional[CertificationStats] = None,
    cert_precheck=None,
) -> Iterator[Tuple[ProgEvent, MachineState]]:
    """Enumerate all machine steps from ``state`` (Fig. 9).

    Successor states with tight memories are renormalized before they are
    yielded (``state`` itself never is — see :func:`renormalized_state`).

    ``cert_precheck`` optionally carries a static
    :class:`repro.static.certcheck.FulfillMap` that lets ``consistent``
    refute unfulfillable promise sets without searching."""
    # (sw-step): switch to any other live thread.  The memory is shared
    # with ``state``, which was renormalized when it was created, so no
    # renormalization check is needed on switch successors.
    for tid, ts in enumerate(state.pool):
        if tid == state.cur:
            continue
        if ts.local.done and not ts.has_promises:
            continue
        yield SwitchEvent(tid), MachineState(state.pool, tid, state.mem)

    # (τ-step) / (out-step): steps of the current thread.
    ts = state.current_thread
    for event, new_ts, new_mem in thread_steps(program, ts, state.mem, config):
        new_state = MachineState(update_pool(state.pool, state.cur, new_ts), state.cur, new_mem)
        if new_mem.needs_renormalize:
            new_state = renormalized_state(new_state)
        if isinstance(event, OutputEvent):
            yield event, new_state
        else:
            if consistent(
                program, new_ts, new_mem, config, cert_cache, cert_stats, cert_precheck
            ):
                yield SilentEvent(), new_state
