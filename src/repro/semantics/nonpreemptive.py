"""The non-preemptive semantics (paper Fig. 10 and Sec. 4).

The machine state gains a *switch bit* ``β``: ``FREE`` (``◦``, switching
allowed) or ``LOCKED`` (``•``, inside a block of non-atomic accesses).  The
core constraints:

* an ``NA`` step (silent step or non-atomic access) sets ``β' = •``;
* an ``AT`` step (atomic access, CAS, fence, output) sets ``β' = ◦``;
* promise and reserve steps require ``β = β' = ◦`` — no promising inside a
  non-atomic block (promises for the block's writes must be made *before*
  entering it);
* cancel steps run at any ``β`` and preserve it;
* the ``sw`` rule fires only when ``β = ◦``.

Theorem 4.1 states this machine produces exactly the interleaving machine's
observable behaviors; `tests/semantics/test_equivalence.py` and the
``E-THM41`` benchmark check that equality on the litmus suite.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple

from repro.lang.syntax import Program
from repro.memory.memory import Memory
from repro.perf.intern import HashConsed, intern_pool, seal
from repro.semantics.certification import CertificationStats, consistent
from repro.semantics.events import (
    CancelEvent,
    EventClass,
    OutputEvent,
    PromiseEvent,
    ReserveEvent,
    SilentEvent,
    event_class,
)
from repro.semantics.machine import (
    ProgEvent,
    SwitchEvent,
    initial_machine_state,
    renormalized_state,
)
from repro.semantics.thread import SemanticsConfig, thread_steps
from repro.semantics.threadstate import ThreadPool, ThreadState, update_pool


class SwitchBit(enum.Enum):
    """``β ::= ◦ | •``"""

    FREE = "o"    # ◦ — switching allowed
    LOCKED = "x"  # • — inside a non-atomic block

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "◦" if self is SwitchBit.FREE else "•"


class NPMachineState(HashConsed):
    """``Ŵ = (TP, t, M, β)`` (hash-consed like
    :class:`~repro.semantics.machine.MachineState`)."""

    __slots__ = ("pool", "cur", "mem", "bit")

    _fields = ("pool", "cur", "mem", "bit")

    def __init__(
        self,
        pool: ThreadPool,
        cur: int,
        mem: Memory,
        bit: SwitchBit = SwitchBit.FREE,
    ) -> None:
        pool, pool_hash = intern_pool(pool)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "cur", cur)
        object.__setattr__(self, "mem", mem)
        object.__setattr__(self, "bit", bit)
        seal(self, ("NPW", pool_hash, cur, mem._hashcode, bit.value))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not NPMachineState:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return (
            self.cur == other.cur
            and self.bit is other.bit
            and self.mem == other.mem
            and self.pool == other.pool
        )

    __hash__ = HashConsed.__hash__

    @property
    def current_thread(self) -> ThreadState:
        return self.pool[self.cur]

    @property
    def all_done(self) -> bool:
        return all(ts.local.done and not ts.has_promises for ts in self.pool)

    def __str__(self) -> str:
        threads = ", ".join(f"t{i}:{ts.local}" for i, ts in enumerate(self.pool))
        return f"Ŵ(cur=t{self.cur}, β={self.bit}, [{threads}], M={self.mem})"


def initial_np_state(program: Program, config: SemanticsConfig) -> NPMachineState:
    """The initial non-preemptive machine state (switch bit ``◦``)."""
    base = initial_machine_state(program, config)
    return NPMachineState(base.pool, base.cur, base.mem, SwitchBit.FREE)


def _next_bit(event, bit: SwitchBit) -> Optional[SwitchBit]:
    """The switch-bit transition of Fig. 10; ``None`` if the step is
    forbidden at the current bit."""
    cls = event_class(event)
    if cls is EventClass.NA:
        return SwitchBit.LOCKED
    if cls is EventClass.AT:
        return SwitchBit.FREE
    # PRC: promise/reserve need β = β' = ◦; cancel keeps β.
    if isinstance(event, (PromiseEvent, ReserveEvent)):
        return SwitchBit.FREE if bit is SwitchBit.FREE else None
    if isinstance(event, CancelEvent):
        return bit
    raise AssertionError(f"unclassified event {event}")


def np_machine_steps(
    program: Program,
    state: NPMachineState,
    config: SemanticsConfig,
    cert_cache: Optional[Dict] = None,
    cert_stats: Optional[CertificationStats] = None,
    cert_precheck=None,
) -> Iterator[Tuple[ProgEvent, NPMachineState]]:
    """Enumerate all non-preemptive machine steps from ``state`` (Fig. 10).

    ``cert_precheck`` optionally carries a static
    :class:`repro.static.certcheck.FulfillMap` that lets ``consistent``
    refute unfulfillable promise sets without searching."""
    # (sw) — only when the switch bit is ◦.
    if state.bit is SwitchBit.FREE:
        for tid, ts in enumerate(state.pool):
            if tid == state.cur:
                continue
            if ts.local.done and not ts.has_promises:
                continue
            yield SwitchEvent(tid), NPMachineState(state.pool, tid, state.mem, SwitchBit.FREE)

    allow_promises = state.bit is SwitchBit.FREE
    ts = state.current_thread
    for event, new_ts, new_mem in thread_steps(
        program, ts, state.mem, config, allow_promises=allow_promises
    ):
        new_bit = _next_bit(event, state.bit)
        if new_bit is None:
            continue
        if new_ts.local.done and not new_ts.has_promises:
            # Thread exit ends any non-atomic block: the final `return` is an
            # NA-classified silent step, but a finished thread can take no
            # further step, so leaving β = • would deadlock the machine.
            # The paper's equivalence theorem implicitly requires exit to be
            # a switch point; we release the bit explicitly.
            new_bit = SwitchBit.FREE
        new_state = NPMachineState(
            update_pool(state.pool, state.cur, new_ts), state.cur, new_mem, new_bit
        )
        if new_mem.needs_renormalize:
            new_state = renormalized_state(new_state)
        if isinstance(event, OutputEvent):
            yield event, new_state
        else:
            if consistent(
                program, new_ts, new_mem, config, cert_cache, cert_stats, cert_precheck
            ):
                yield SilentEvent(), new_state
