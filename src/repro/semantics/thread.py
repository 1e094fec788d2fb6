"""The PS2.1 thread step relation ``ι ⊢ (TS, M) --te--> (TS', M')``.

:func:`thread_steps` enumerates *all* successor configurations of one
thread, one per non-deterministic choice: which message a read observes,
which canonical interval a write occupies, whether a write fulfills a
promise or creates a fresh message, which promise the oracle allows, and so
on.  The machine layers (:mod:`repro.semantics.machine`,
:mod:`repro.semantics.nonpreemptive`) lift these to machine steps and add
consistency checks and scheduling.

Mode semantics implemented here (paper Sec. 3):

* **read** ``r := x_or``: pick ``m = ⟨x: v@(f,t], Vm⟩`` with ``t`` at least
  the thread's ``T_na(x)`` (na) or ``T_rlx(x)`` (rlx/acq); update ``T_rlx``
  only (na) or both maps (rlx/acq); acquire additionally joins ``Vm``.
* **write** ``x_ow := e``: either fulfill a matching promise (na/rlx only)
  or insert a fresh message at a canonical free interval with
  ``to > T_rlx(x)``; both maps rise to ``to``.  Release writes carry the
  thread's view as message view and require no outstanding promise on
  ``x``; na/rlx messages carry ``V⊥`` (or the release-fence view).
* **CAS**: read + write with the new interval starting exactly at the read
  message's "to"-timestamp, so two CAS can never read the same write.
* **promise / reserve / cancel**: gated by the
  :class:`~repro.semantics.promises.PromiseOracle` and the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator, Optional, Tuple

from repro.lang.syntax import (
    AccessMode,
    Assign,
    Be,
    Call,
    Cas,
    Fence,
    FenceKind,
    Instr,
    Jmp,
    Load,
    Print,
    Program,
    Return,
    Skip,
    Store,
    eval_expr,
)
from repro.lang.values import Int32
from repro.memory.memory import Memory
from repro.memory.message import Message, Reservation
from repro.memory.timemap import BOTTOM_VIEW, View
from repro.memory.timestamps import successor
from repro.semantics.events import (
    CancelEvent,
    FenceEvent,
    OutputEvent,
    PromiseEvent,
    ReadEvent,
    ReserveEvent,
    SilentEvent,
    ThreadEvent,
    UpdateEvent,
    WriteEvent,
)
from repro.robust.budget import Budget
from repro.semantics.promises import NoPromises, PromiseOracle
from repro.semantics.threadstate import LocalState, ThreadState


@dataclass(frozen=True)
class SemanticsConfig:
    """Exploration-facing knobs of the semantics.

    ``promise_oracle`` bounds promise non-determinism (see
    :mod:`repro.semantics.promises`).  ``enable_reservations`` switches the
    reserve/cancel steps on (off by default: with canonical interval
    placement and CAS-adjacent insertion handled directly, reservations add
    no observable litmus behaviors, only state-space volume).
    ``certification_max_steps`` bounds the certification search;
    ``certification_cache_cap`` bounds the certification memo cache (FIFO
    eviction above the cap; 0 means unbounded);
    ``certification_precheck`` lets the explorer build the static
    fulfill map of :mod:`repro.static.certcheck` once per program and
    skip certification searches it refutes (sound — identical results,
    fewer searches; only relevant when promises are enabled);
    ``por`` selects the partial-order reduction the explorer applies:
    ``"none"`` (every interleaving) or ``"dpor"`` (persistent-set
    POR over the message-dependency relation, see
    :mod:`repro.semantics.dpor`).  The default is ``"none"``, the
    reference oracle every reduction is checked against; the race scans
    read either graph, and the ``explore``, ``validate`` and ``races``
    CLI commands default to ``dpor``.
    ``max_states`` / ``max_outputs`` bound exploration graph size and
    observable trace length.  ``budget`` optionally attaches a
    :class:`repro.robust.budget.Budget` (wall-clock deadline, state cap,
    memory ceiling) that every budget-aware consumer of this config — the
    explorer, the race checkers, the simulation checker — meters against
    with cooperative cancellation.
    """

    promise_oracle: PromiseOracle = field(default_factory=NoPromises)
    enable_reservations: bool = False
    gap_leaving_writes: bool = False
    certify_against_cap: bool = True
    por: str = "none"
    #: Under ``por="dpor"``, treat every transition as dependent on every
    #: other (the original promise treatment) — prunes nothing, but
    #: serves as the soundness oracle for the precise footprint relation
    #: (``--por-conservative``).
    por_conservative: bool = False
    certification_max_steps: int = 5000
    certification_cache_cap: int = 100_000
    certification_precheck: bool = True
    max_states: int = 2_000_000
    max_outputs: int = 8
    budget: Optional[Budget] = None

    @property
    def promise_budget(self) -> int:
        return self.promise_oracle.default_budget


StepResult = Tuple[ThreadEvent, ThreadState, Memory]


def _advance(local: LocalState) -> LocalState:
    """Move past the current instruction inside the block."""
    return LocalState._make(
        local.func, local.label, local.offset + 1, local.regs, local.stack, local.done
    )


def thread_steps(
    program: Program,
    ts: ThreadState,
    mem: Memory,
    config: SemanticsConfig,
    allow_promises: bool = True,
    promise_locations: Optional[Collection[str]] = None,
) -> Iterator[StepResult]:
    """Enumerate all PS2.1 steps of one thread from ``(ts, mem)``.

    ``allow_promises`` disables promise/reserve steps — used both by
    certification (a certifying run only fulfills) and by the
    non-preemptive machine when the switch bit is off.
    ``promise_locations``, when given, narrows the oracle's candidates to
    those locations (DPOR offers promises only where one can certify and
    be read, :mod:`repro.semantics.dpor`).
    """
    yield from _program_steps(program, ts, mem, config)
    if allow_promises:
        yield from _promise_steps(program, ts, mem, config, promise_locations)
        if config.enable_reservations:
            yield from _reserve_steps(program, ts, mem, config)
    # Cancel steps are always allowed (Fig. 10 permits them at any β), but
    # they only exist when reservations do.
    if config.enable_reservations:
        yield from _cancel_steps(ts, mem)


# ---------------------------------------------------------------------------
# Ordinary program steps
# ---------------------------------------------------------------------------


def _program_steps(
    program: Program, ts: ThreadState, mem: Memory, config: SemanticsConfig
) -> Iterator[StepResult]:
    local = ts.local
    if local.done:
        return
    block = program.function(local.func)[local.label]
    if local.offset < len(block.instrs):
        yield from _instr_steps(program, ts, mem, block.instrs[local.offset], config)
    else:
        yield from _terminator_steps(program, ts, mem, block.term)


def _instr_steps(
    program: Program, ts: ThreadState, mem: Memory, instr: Instr, config: SemanticsConfig
) -> Iterator[StepResult]:
    local = ts.local
    regs = local.reg_map

    if isinstance(instr, Skip):
        yield SilentEvent(), ts.with_local(_advance(local)), mem
        return

    if isinstance(instr, Assign):
        value = eval_expr(instr.expr, regs)
        new_local = _advance(local.set_reg(instr.dst, value))
        yield SilentEvent(), ts.with_local(new_local), mem
        return

    if isinstance(instr, Print):
        value = eval_expr(instr.expr, regs)
        yield OutputEvent(value), ts.with_local(_advance(local)), mem
        return

    if isinstance(instr, Fence):
        yield from _fence_steps(ts, mem, instr.kind)
        return

    if isinstance(instr, Load):
        yield from _read_steps(ts, mem, instr)
        return

    if isinstance(instr, Store):
        yield from _write_steps(ts, mem, instr, config)
        return

    if isinstance(instr, Cas):
        yield from _cas_steps(ts, mem, instr)
        return

    raise TypeError(f"not an instruction: {instr!r}")


def _fence_steps(ts: ThreadState, mem: Memory, kind: FenceKind) -> Iterator[StepResult]:
    """Fence semantics over the (cur, vrel, vacq) thread view and, for SC
    fences, the global SC time map carried in the shared state.

    * ``fence.acq``: promote buffered relaxed knowledge, ``cur := cur ⊔ vacq``;
    * ``fence.rel``: snapshot the view for future relaxed writes,
      ``vrel := cur``;
    * ``fence.sc``: acquire, then exchange with the global SC view
      (``m := sc ⊔ T_rlx;  cur := cur ⊔ m;  sc := m``), then release —
      the exchange is what totally orders SC fences and forbids SB across
      them.  SC fences additionally require an empty promise set (a thread
      may not order itself globally while holding unfulfilled promises).
    """
    view, vrel, vacq = ts.view, ts.vrel, ts.vacq
    new_mem = mem
    if kind in (FenceKind.ACQ, FenceKind.SC):
        view = view.join(vacq)
    if kind is FenceKind.SC:
        if ts.has_promises:
            return
        merged = mem.sc_view.join(view.trlx)
        view = View(view.tna.join(merged), merged)
        new_mem = mem.with_sc_view(merged)
    if kind in (FenceKind.REL, FenceKind.SC):
        vrel = vrel.join(view)
    new_ts = ts.replace(local=_advance(ts.local), view=view, vrel=vrel, vacq=vacq)
    yield FenceEvent(kind), new_ts, new_mem


def _read_steps(ts: ThreadState, mem: Memory, instr: Load) -> Iterator[StepResult]:
    mode = instr.mode
    if mode is AccessMode.NA:
        floor = ts.view.tna.get(instr.loc)
    else:
        floor = ts.view.trlx.get(instr.loc)
    advanced = _advance(ts.local)
    for message in mem.readable(instr.loc, floor):
        if mode is AccessMode.NA:
            view = ts.view.bump_read_na(instr.loc, message.to)
            vacq = ts.vacq
        else:
            view = ts.view.bump_read_atomic(instr.loc, message.to)
            vacq = ts.vacq.join(message.view)
            if mode is AccessMode.ACQ:
                view = view.join(message.view)
        new_local = advanced.set_reg(instr.dst, message.value)
        new_ts = ts.replace(local=new_local, view=view, vacq=vacq)
        yield ReadEvent(mode, instr.loc, message.value), new_ts, mem


def _write_steps(
    ts: ThreadState, mem: Memory, instr: Store, config: SemanticsConfig
) -> Iterator[StepResult]:
    mode = instr.mode
    loc = instr.loc
    value = eval_expr(instr.expr, ts.local.reg_map)
    floor = ts.view.trlx.get(loc)
    event = WriteEvent(mode, loc, value)
    new_local = _advance(ts.local)

    # (a) fulfill an outstanding promise (na/rlx writes only).
    if mode in (AccessMode.NA, AccessMode.RLX):
        for item in ts.promises:
            if not isinstance(item, Message):
                continue
            if item.var != loc or item.value != value or item.to <= floor:
                continue
            view = ts.view.bump_write(loc, item.to)
            new_ts = ts.replace(
                local=new_local, view=view, promises=ts.promises.remove(item)
            )
            yield event, new_ts, mem

    # (b) insert a fresh message at a canonical interval.
    if mode is AccessMode.REL and any(
        item.is_concrete and item.var == loc for item in ts.promises
    ):
        # A release write to x is forbidden while a promise on x is
        # outstanding (PS2.1 release-write condition).
        return
    for frm, to in mem.candidate_intervals(loc, floor, config.gap_leaving_writes):
        view = ts.view.bump_write(loc, to)
        msg_view = _message_view(ts, view, mode, loc)
        new_mem = mem.try_add(Message(loc, value, frm, to, msg_view))
        if new_mem is None:
            continue
        new_ts = ts.replace(local=new_local, view=view)
        yield event, new_ts, new_mem


def _message_view(ts: ThreadState, view_after: View, mode: AccessMode, loc: str) -> View:
    """The message view carried by a fresh write.

    Release writes carry the writer's (bumped) view — this is what makes
    release/acquire synchronization transfer knowledge.  Non-atomic writes
    carry ``V⊥``; relaxed writes carry the release-fence snapshot ``vrel``
    (``V⊥`` when no release fence happened, matching the paper's
    simplified presentation).
    """
    if mode is AccessMode.REL:
        return view_after
    if mode is AccessMode.RLX:
        return ts.vrel
    return BOTTOM_VIEW


def _cas_steps(ts: ThreadState, mem: Memory, instr: Cas) -> Iterator[StepResult]:
    regs = ts.local.reg_map
    expected = eval_expr(instr.expected, regs)
    new_value = eval_expr(instr.new, regs)
    loc = instr.loc
    floor = ts.view.trlx.get(loc)

    for message in mem.readable(loc, floor):
        if message.value != expected:
            # Failure branch: behaves as a read in mode ``mode_r``; dst := 0.
            view = ts.view.bump_read_atomic(loc, message.to)
            vacq = ts.vacq.join(message.view)
            if instr.mode_r is AccessMode.ACQ:
                view = view.join(message.view)
            new_local = _advance(ts.local.set_reg(instr.dst, Int32(0)))
            new_ts = ts.replace(local=new_local, view=view, vacq=vacq)
            yield ReadEvent(instr.mode_r, loc, message.value), new_ts, mem
            continue

        # Success branch: the write interval must start exactly at the read
        # message's "to"-timestamp.
        interval = mem.cas_interval(loc, message.to)
        if interval is None:
            continue
        if instr.mode_w is AccessMode.REL and any(
            item.is_concrete and item.var == loc for item in ts.promises
        ):
            continue
        frm, to = interval
        view = ts.view.bump_read_atomic(loc, message.to)
        vacq = ts.vacq.join(message.view)
        if instr.mode_r is AccessMode.ACQ:
            view = view.join(message.view)
        view = view.bump_write(loc, to)
        msg_view = _message_view(ts, view, instr.mode_w, loc)
        new_mem = mem.try_add(Message(loc, new_value, frm, to, msg_view))
        if new_mem is None:
            continue
        new_local = _advance(ts.local.set_reg(instr.dst, Int32(1)))
        new_ts = ts.replace(local=new_local, view=view, vacq=vacq)
        yield (
            UpdateEvent(instr.mode_r, instr.mode_w, loc, message.value, new_value),
            new_ts,
            new_mem,
        )


def _terminator_steps(
    program: Program, ts: ThreadState, mem: Memory, term
) -> Iterator[StepResult]:
    local = ts.local
    if isinstance(term, Jmp):
        new_local = local.replace(label=term.target, offset=0)
        yield SilentEvent(), ts.with_local(new_local), mem
        return
    if isinstance(term, Be):
        cond = eval_expr(term.cond, local.reg_map)
        target = term.then_target if cond != 0 else term.else_target
        new_local = local.replace(label=target, offset=0)
        yield SilentEvent(), ts.with_local(new_local), mem
        return
    if isinstance(term, Call):
        callee = program.function(term.func)
        new_local = local.replace(
            func=term.func,
            label=callee.entry,
            offset=0,
            stack=local.stack + ((local.func, term.ret_label),),
        )
        yield SilentEvent(), ts.with_local(new_local), mem
        return
    if isinstance(term, Return):
        if local.stack:
            caller_func, ret_label = local.stack[-1]
            new_local = local.replace(
                func=caller_func, label=ret_label, offset=0, stack=local.stack[:-1]
            )
        else:
            new_local = local.replace(done=True)
        yield SilentEvent(), ts.with_local(new_local), mem
        return
    raise TypeError(f"not a terminator: {term!r}")


# ---------------------------------------------------------------------------
# Promise / reserve / cancel steps
# ---------------------------------------------------------------------------


def _promise_steps(
    program: Program,
    ts: ThreadState,
    mem: Memory,
    config: SemanticsConfig,
    locations: Optional[Collection[str]] = None,
) -> Iterator[StepResult]:
    if ts.local.done or (locations is not None and not locations):
        return
    for loc, value in config.promise_oracle.candidates(program, ts, mem):
        if locations is not None and loc not in locations:
            continue
        floor = ts.view.trlx.get(loc)
        for frm, to in mem.candidate_intervals(loc, floor, config.gap_leaving_writes):
            message = Message(loc, value, frm, to, BOTTOM_VIEW)
            new_mem = mem.try_add(message)
            if new_mem is None:
                continue
            new_ts = ts.replace(
                promises=ts.promises.add(message),
                promise_budget=ts.promise_budget - 1,
            )
            yield PromiseEvent(loc, value), new_ts, new_mem


def _reserve_steps(
    program: Program, ts: ThreadState, mem: Memory, config: SemanticsConfig
) -> Iterator[StepResult]:
    """Reserve the free slot right after a location's latest message.

    Reservation placement is, like writes, canonicalized: reserving the slot
    adjacent to the latest message is the only use reservations have
    (protecting a CAS-adjacent interval).  Only concrete messages count,
    so a reservation is never stacked on a reservation: once the slot is
    taken, the location offers no further reserve step until a write
    lands past it."""
    if ts.local.done:
        return
    for loc in mem.locations():
        last = mem.concrete(loc)[-1].to
        reservation = Reservation(loc, last, successor(last))
        new_mem = mem.try_add(reservation)
        if new_mem is None:
            continue
        new_ts = ts.replace(promises=ts.promises.add(reservation))
        yield ReserveEvent(loc), new_ts, new_mem


def _cancel_steps(ts: ThreadState, mem: Memory) -> Iterator[StepResult]:
    for item in ts.promises:
        if not isinstance(item, Reservation):
            continue
        new_ts = ts.replace(promises=ts.promises.remove(item))
        yield CancelEvent(item.var), new_ts, mem.remove(item)
