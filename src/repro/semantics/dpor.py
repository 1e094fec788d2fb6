"""Persistent-set partial-order reduction for the interleaving machine.

The unreduced explorer (:mod:`repro.semantics.exploration`) enumerates
every interleaving of every thread step.  Most of those interleavings are
*equivalent*: steps of different threads that touch disjoint locations
commute, so any two schedules that differ only in the order of commuting
steps reach the same machine state and produce the same observable trace.
This module explores a subset of them with a stateful DFS that expands
each stored state once, running only a **persistent set** of its threads
(Godefroid 1996) — a set no thread outside it can interfere with before
some member moves.  The set is computed from the state alone
(:func:`persistent_set`):

* start from one live thread, and add every thread whose *future* is
  dependent with the footprint of a member's next macro-step; a thread's
  future is the set of locations it may still access
  (``FootprintIndex.live_locations``) together with its next step's
  reads and writes, read as a footprint that reads and writes all of them;
* a member that prints or runs an SC fence makes the set every live
  thread (future outputs and fences are not tracked), and so does the
  conservative :data:`FLAG_PRM`;
* each start thread is tried, and the smallest set wins.

**Why it is exact.**  A thread's future over-approximates every later step
it can take.  Certification runs only code reachable from the thread's
position, so it stays inside that future too, and a promise whose
fulfilling store is unreachable fails certification and yields nothing.
So no sequence of steps of threads outside the set touches what the
set's next steps read or write: each member's outcomes are the same
before and after such a sequence, and commute with it.  Together with the
cycle proviso below, persistent sets keep every deadlock and every order
of outputs — outputs are mutually dependent, so a set that prints is the
whole pool — hence the trace set.

**Dependency relation.**  Transitions are per-thread macro-steps — one
visible step plus the thread's deterministic pure-local suffix, with
promise opportunities deferred past the suffix (sound because a local
step changes neither memory nor promise candidates nor certification
verdicts, so it commutes with every step of every other thread), so
local chains never cost stored states.  The footprint of a step is
``(reads, writes, flags)`` with the location sets packed into bit masks
over the program's locations (:class:`FootprintIndex`).  Two footprints
are dependent iff

* they write-write or write-read overlap on some location,
* both are SC fences (they exchange with the global SC view),
* both are outputs (their relative order is the observable trace), or
* either carries the conservative :data:`FLAG_PRM` (see below).

**Certification-scoped promise dependence.**  A *potential promiser* —
a thread holding a promise, or one with budget left and a non-empty
candidate mask (below) — has every step followed by a certification run
(:func:`~repro.semantics.certification.consistent`).  The verdict of that
run depends only on the memory content of the thread's *certification
window* — the locations accessed by code reachable from its current
function and pending callers, plus its outstanding promise/reservation
locations (:func:`~repro.semantics.certification.certification_locations`)
— so its steps *read* that window rather than "everything".  Its promise
steps additionally *write* its candidate mask (placement and visibility
of the new message).  The mask is the
:class:`~repro.semantics.promises.SyntacticPromises` candidates of the
continuation functions that some continuation suffix, callees and
pending frames included, can still fulfil-store
(``FulfillMap.fulfillable`` of :mod:`repro.static.certcheck`); it is a
function of the thread's position alone, which keeps every footprint a
function of the thread state.  Any other thread certifies trivially, so
its footprint is just its next op's.  Unknown oracle classes and
reservation-enabled configs fall back to universal writes (a reserve
step may target any location), so their sets are the whole pool.
``--por-conservative`` (:attr:`SemanticsConfig.por_conservative`)
restores the old "depends on everything" :data:`TOP_FP` treatment — no
reduction at all — as a soundness oracle.

**Promises only where they can matter.**  Under a syntactic oracle,
DPOR narrows promise steps by four rules; ``none`` keeps the full oracle
as the reference.

* (a) the candidate mask above is per position
  (``FootprintIndex._position_masks``);
* (b) a thread whose candidate mask is empty is stored with promise
  budget 0 (``FootprintIndex.normalize``, counted by
  ``DporStats.budgets_dropped``);
* (c) the oracle offers a macro-step only its head's candidate mask, and
  nothing at a pure-local head (``FootprintIndex.offered``, passed to
  ``thread_steps`` as ``promise_locations``);
* (d) a macro-step is offered no location that no other live thread's
  future (``live_locations``) contains (``execute``, counted by
  ``DporStats.promises_withheld``).  The offer depends on the other
  threads, so it is part of both macro-step memo keys.

Why they are exact.  For (a)–(c): a promise no continuation can fulfil
fails certification (the fulfill map is a sound may-analysis), so
withholding it loses no state.  The fulfillable set only shrinks along a
run — a suffix from a later position is a suffix from an earlier one —
so once the mask is empty no later promise can certify either, and an
unspent budget would only keep apart states with the same future.  For
(d): only another thread can usefully read a promise.  Any read raises
the reader's ``trlx`` to the message (``bump_read_na``,
``bump_read_atomic``), and a write fulfils only above ``trlx``
(``_write_steps``), so a promiser that reads its own promise can never
certify.  A thread never accesses a location again once its future
excludes it, because futures only shrink.  A promise nobody reads can
then be replaced by a plain write of the same message at fulfilment
time, in the same free slot, with the same trace.  Persistent sets stay
exact: a non-member's step can only shrink a member's offer, and what it
withholds is such an unread promise.

**Finished threads.**  The interleaving machine never switches to a done,
promise-free thread, and a done thread with unfulfilled concrete promises
cannot certify — so finished threads are not scheduling units here.  The
one wrinkle is a thread finishing with reservations outstanding: its
cancel steps may only run while it is still the current thread, i.e. as
an uninterrupted suffix of its final macro-step, so they are folded into
that macro-step as alternative outcomes (``_cancel_closure``).

**State identity.**  A stored state stands for its future: the output
traces it can still produce (paper Sec. 3, Fig. 9).  Under DPOR that
future is fixed by the *live* part of the thread pool and the memory, so
everything else is normalized away before a successor is interned:

* ``MachineState.cur`` is 0 in every DPOR state, the same as the initial
  state.  DPOR runs whole per-thread macro-steps and never takes switch
  steps, so "who moved last" carries no meaning on a DPOR graph.
* A thread that has finished with no promises or reservations left is
  *retired* (``_retire``): its registers, stack, views and promise budget
  are dropped, keeping only its final position.
* A live thread whose candidate mask is empty keeps no promise budget
  (rule (b) above).
* A live thread keeps only the registers that are live at its position
  (``FootprintIndex.normalize``): a register is dead if every path
  overwrites it before reading it.  Liveness is semantic — a store's
  value, CAS operands, ``print``, an assign's expression and a branch
  condition all read — and registers are one file per thread, so at a
  ``call`` and at the ``return`` of any call target every register is
  live.  (The DCE facts of :mod:`repro.analysis.liveness` are *not*
  semantic liveness and must not be used here.)
* A location no live thread can load, store or CAS again from its
  position, and on which no thread holds a promise or reservation, is
  *dead*: its messages go, and so do its entries in every thread view,
  every message view and the SC view (``FootprintIndex.strip_thread``
  and ``strip_memory``).  At a ``call``, and at any ``return`` of a
  program with calls, every location counts as live.  Liveness only
  shrinks along a run, so a location dies on the step of the last
  thread that could access it: ``execute`` tests
  ``live(head) & ~live(new) & ~live(others)``, which is usually 0.  The
  initial state loses the locations no thread reaches at all.  With
  reservations (a reserve step may target any location) or a promise
  oracle other than :class:`~repro.semantics.promises.NoPromises` and
  :class:`~repro.semantics.promises.SyntacticPromises` (it may read
  anything), no location is dead; an unknown oracle keeps every register
  too.

All of this is sound for one reason: a PS2.1 step on ``y`` reads and
writes only ``y``'s messages and the ``y``-components of views,
certification runs only the thread's own code against the capped memory,
and outputs print registers — so the normalized state has exactly the
original's future.  Without it, the same future is explored once per
last mover, per leftover register value and per dead message history.
``none`` and the non-preemptive machine keep all of it: they are the
reference.

**Race scans.**  The ww-RF and rw race predicates (paper Fig. 11,
:mod:`repro.races.wwrf`) read the reduced graph directly, asking of each
stored state whether *any* live thread would race as the current
thread.  Three facts make that exact:

* Fig. 9 can switch to any live thread, so a racy ``(pool, mem)`` is a
  racy ``(pool, t, mem)`` of the unreduced machine;
* a macro-step ends where the thread's next operation stops being
  pure-local, so every non-atomic store or load is the head of a stored
  state;
* two same-location accesses, at least one a write, always land in one
  persistent set (each is in the other's future), so both orders are
  stored.

The differential against ``por="none"`` scans is
``tests/semantics/test_por.py``.

**Cycle proviso.**  A reduced expansion that reaches a state on the DFS
stack (a back edge, or a self-loop) is widened to every live thread, so
no thread is ignored forever around a cycle (the stack proviso).  So is
a reduced expansion with no successor: a macro-step can have zero
outcomes (every certification fails) while another thread can still
move.  ``full_expansions`` counts both.  A pure-local loop never leaves
its macro-step's suffix, so the suffix stops where the thread's local
state repeats: the macro-step is then a self-loop, which the proviso
widens.

**Macro-step memo.**  A thread step and its certification read only the
thread's own state and the shared memory (the machine step, Fig. 9), so
the outcomes of a macro-step are a pure function of ``(pool[tid], mem)``
and the promise locations it is offered (rule (d)).
The same pair recurs under many stored states (every interleaving of
independent steps of *other* threads leaves it unchanged), so each
build computes it once (``macro_outcomes``) and replays it on later
transitions (``memo_hits``); only the successor machine states are
rebuilt, renormalized and interned per transition.  Narrower still, a
macro-step reads and writes only the thread's live locations and the SC
view (a promise elsewhere cannot certify), so a miss of the
``(thread state, memory, offer)`` key tries a second one: the thread
state, the item groups of its live locations, the SC view and the
offer.  Its entries are stored as per-location deltas and re-applied to
the current memory.

The reduced graph is written into the owning
:class:`~repro.semantics.exploration.Explorer`'s ``states``/``edges``/
``terminal`` arrays, so the trace fixpoint, checkpointing, and all
downstream consumers work unchanged.  Validation: behavior-set equality
against the unreduced explorer over the litmus library and fuzz corpus —
including promise-bearing, reservation, and SC-fence configurations —
plus the ``--por-conservative`` differential
(``tests/semantics/test_dpor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lang.syntax import (
    Be,
    Call,
    Cas,
    Fence,
    FenceKind,
    Jmp,
    Load,
    Print,
    Program,
    Return,
    Store,
    expr_regs,
    instr_def,
    instr_uses,
)
from repro.memory.memory import Memory
from repro.memory.message import Message
from repro.memory.timemap import View
from repro.perf.intern import intern_thread_state
from repro.robust.budget import REASON_STATES, BudgetExhausted
from repro.semantics.certification import certification_locations, consistent
from repro.semantics.events import OutputEvent
from repro.semantics.machine import MachineState, _PURE_LOCAL, renormalized_state
from repro.semantics.promises import NoPromises, SyntacticPromises, syntactic_write_candidates
from repro.semantics.thread import SemanticsConfig, thread_steps
from repro.semantics.threadstate import LocalState, ThreadState, next_op, update_pool

if TYPE_CHECKING:
    from repro.static.certcheck import FulfillMap

#: Footprint flag: the step is an observable output (all outputs are
#: mutually dependent — their relative order is the trace).
FLAG_OUT = 1
#: Footprint flag: the step is an SC fence (exchanges with the SC view).
FLAG_SC = 2
#: Footprint flag: conservative promise treatment — depends on everything.
FLAG_PRM = 4

#: A transition footprint: ``(reads, writes, flags)``.  Reads and writes
#: are bit masks over the program's sorted location list (see
#: :class:`FootprintIndex`).
Footprint = Tuple[int, int, int]

#: One outcome of a macro-step: ``(output label or None, thread state,
#: memory, live location mask of that thread state)`` after the step, its
#: certification and its pure-local suffix.
Outcome = Tuple[Optional[int], ThreadState, object, int]

#: The empty footprint — independent of everything (pure-local steps).
EMPTY_FP: Footprint = (0, 0, 0)

#: The universal footprint — dependent on everything (conservative mode).
TOP_FP: Footprint = (0, 0, FLAG_PRM)

#: Flags whose future occurrences are not tracked: a persistent set with
#: such a member is the whole pool.
_UNTRACKED = FLAG_OUT | FLAG_SC


def dependent(a: Footprint, b: Footprint) -> bool:
    """Whether two transition footprints may fail to commute."""
    reads_a, writes_a, flags_a = a
    reads_b, writes_b, flags_b = b
    if (flags_a | flags_b) & FLAG_PRM:
        return True
    if flags_a & flags_b & (FLAG_OUT | FLAG_SC):
        return True
    if writes_a & writes_b:
        return True
    return bool(writes_a & reads_b) or bool(reads_a & writes_b)


class FootprintIndex:
    """Per-exploration footprint and liveness oracle: location bit
    assignment plus memoized per-instruction, certification-window and
    promise-candidate masks, and per-position live registers and live
    locations (see "State identity" in the module docs).

    ``thread_footprint`` must over-approximate the footprint of *every*
    step the thread could take next, and must be a function of the thread
    state alone (never of the shared memory): a persistent set is
    computed from the state before any of its members runs.
    """

    __slots__ = (
        "program",
        "config",
        "conservative",
        "stats",
        "loc_bit",
        "universe",
        "drops_registers",
        "drops_locations",
        "_oracle_kind",
        "_max_outstanding",
        "_fulfill",
        "_op_fp",
        "_window",
        "_syntactic",
        "_cand",
        "_reg_bit",
        "_call_targets",
        "_live",
        "_loc_names",
        "_stripped",
        "_facts",
        "_chosen",
    )

    def __init__(
        self,
        program: Program,
        config: SemanticsConfig,
        stats: Optional["DporStats"] = None,
        fulfill: Optional["FulfillMap"] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.conservative = config.por_conservative
        self.stats = stats
        self.loc_bit: Dict[str, int] = {
            loc: 1 << i for i, loc in enumerate(sorted(program.locations()))
        }
        self.universe = (1 << len(self.loc_bit)) - 1
        oracle = config.promise_oracle
        self._max_outstanding = 0
        #: The static fulfill map (:mod:`repro.static.certcheck`) behind
        #: the per-position promise candidates; a syntactic oracle only.
        self._fulfill: Optional["FulfillMap"] = None
        if type(oracle) is NoPromises:
            self._oracle_kind = "none"
        elif type(oracle) is SyntacticPromises:
            self._oracle_kind = "syntactic"
            self._max_outstanding = oracle.max_outstanding
            if fulfill is None:
                from repro.static.certcheck import build_fulfill_map

                fulfill = build_fulfill_map(program)
            self._fulfill = fulfill
        else:
            # Unknown oracle classes may promise anywhere — universal.
            self._oracle_kind = "other"
        self._op_fp: Dict[Tuple[str, str, int], Footprint] = {}
        self._window: Dict[FrozenSet[str], int] = {}
        self._syntactic: Dict[FrozenSet[str], int] = {}
        #: position ``(func, label, offset, stack)`` -> ``(candidate mask,
        #: offer mask)``; the offer is 0 where the next op is pure-local.
        self._cand: Dict[tuple, Tuple[int, int]] = {}
        # Liveness normalization.  An unknown oracle may read registers or
        # memory anywhere when it proposes promises, and a reserve step may
        # target any location, so those configs keep what they would drop.
        self.drops_registers = self._oracle_kind != "other"
        self.drops_locations = (
            self.drops_registers and not config.enable_reservations
        )
        #: Register bits, assigned as the liveness tables meet registers;
        #: "every register" is the all-ones mask -1.
        self._reg_bit: Dict[str, int] = {}
        self._call_targets: Optional[FrozenSet[str]] = None
        #: func -> {(label, offset): (live register mask, live location mask)}
        self._live: Dict[str, Dict[Tuple[str, int], Tuple[int, int]]] = {}
        self._loc_names: Dict[int, Tuple[str, ...]] = {}
        #: ``(thread state or memory, dead mask) -> stripped`` (a step
        #: killing a location strips the same bystanders on every
        #: transition out of a state).
        self._stripped: Dict[Tuple[object, int], object] = {}
        #: ``thread state -> (thread_footprint, live_locations)``: most
        #: thread states recur unchanged under many stored states.
        self._facts: Dict[ThreadState, Tuple[Optional[Footprint], int]] = {}
        #: ``(footprints, future masks) -> persistent_set(...)``.
        self._chosen: Dict[Tuple[tuple, tuple], Tuple[int, ...]] = {}

    def mask(self, locs) -> int:
        """The bit mask of a location set (unknown locations, which can
        only come from a checkpoint of a different program build, are
        conservatively treated as the whole universe)."""
        m = 0
        bits = self.loc_bit
        for loc in locs:
            b = bits.get(loc)
            m |= self.universe if b is None else b
        return m

    def _compute_op_fp(self, local: LocalState) -> Footprint:
        op = next_op(self.program, local)
        bits = self.loc_bit
        if isinstance(op, Load):
            return (bits[op.loc], 0, 0)
        if isinstance(op, Store):
            return (0, bits[op.loc], 0)
        if isinstance(op, Cas):
            b = bits[op.loc]
            return (b, b, 0)
        if isinstance(op, Print):
            return (0, 0, FLAG_OUT)
        if isinstance(op, Fence):
            if op.kind is FenceKind.SC:
                return (0, 0, FLAG_SC)
            return EMPTY_FP  # acquire/release fences only touch own views
        return EMPTY_FP  # Skip/Assign/Jmp/Be/Call/Return: pure-local

    def _continuation_funcs(self, local: LocalState) -> FrozenSet[str]:
        return frozenset({local.func} | {func for func, _ in local.stack})

    def _window_mask(self, local: LocalState) -> int:
        funcs = self._continuation_funcs(local)
        m = self._window.get(funcs)
        if m is None:
            m = self.mask(certification_locations(self.program, funcs))
            self._window[funcs] = m
        return m

    def _position_masks(self, local: LocalState) -> Tuple[int, int]:
        """``(candidate mask, offer mask)`` of a live position.

        The candidate mask holds the locations a promise made at
        ``local`` could certify on: the oracle's syntactic candidates of
        the continuation functions that some continuation suffix, callees
        and pending frames included, can still fulfil-store
        (``FulfillMap.fulfillable``).  A promise elsewhere fails
        certification.  It only shrinks along a run.  The offer mask is
        the same, or 0 where the next op is pure-local (a macro-step
        defers promises past its local chain)."""
        key = (local.func, local.label, local.offset, local.stack)
        masks = self._cand.get(key)
        if masks is None:
            funcs = self._continuation_funcs(local)
            syntactic = self._syntactic.get(funcs)
            if syntactic is None:
                syntactic = 0
                for func in funcs:
                    for loc, _value in syntactic_write_candidates(self.program, func):
                        syntactic |= self.loc_bit[loc]
                self._syntactic[funcs] = syntactic
            candidates = syntactic & self.mask(self._fulfill.fulfillable(local))
            local_op = isinstance(next_op(self.program, local), _PURE_LOCAL)
            masks = self._cand[key] = (candidates, 0 if local_op else candidates)
        return masks

    def _may_promise(self, ts: ThreadState) -> bool:
        """Whether ``ts``'s budget and outstanding allowance permit a
        promise step (a syntactic oracle's own gate)."""
        return ts.promise_budget > 0 and (
            sum(1 for item in ts.promises if item.is_concrete)
            < self._max_outstanding
        )

    @property
    def narrows_promises(self) -> bool:
        """Whether the oracle is narrowed per position (a syntactic one)."""
        return self._fulfill is not None

    def offered(self, ts: ThreadState) -> int:
        """The mask of locations a syntactic oracle may offer at the head
        of ``ts``'s next macro-step: its offer mask, 0 once the budget or
        the outstanding allowance is spent."""
        if ts.local.done or not self._may_promise(ts):
            return 0
        return self._position_masks(ts.local)[1]

    def thread_footprint(self, ts: ThreadState) -> Optional[Footprint]:
        """The footprint of ``ts``'s next macro-step, ``None`` if the
        thread is not a scheduling unit (finished — see module docs)."""
        local = ts.local
        if local.done:
            return None
        if self.conservative:
            return TOP_FP
        config = self.config
        key = (local.func, local.label, local.offset)
        base = self._op_fp.get(key)
        if base is None:
            base = self._op_fp[key] = self._compute_op_fp(local)
        reads, writes, flags = base
        if config.enable_reservations:
            # A reserve step may target any location, and reservations
            # block other threads' placements there: universal writes.
            writes |= self.universe
        promising = ts.has_promises
        if self._oracle_kind == "syntactic" and self._may_promise(ts):
            # A thread whose position offers no candidate is no potential
            # promiser: its steps certify trivially.
            candidates = self._position_masks(local)[0]
            if candidates:
                writes |= candidates
                promising = True
        elif self._oracle_kind == "other":
            writes |= self.universe
            reads |= self.universe
            promising = True
        if promising:
            # Every step of a (potentially) promising thread is followed
            # by a certification run whose verdict depends exactly on the
            # memory content of the certification window: a read of it.
            reads |= self._window_mask(local)
            bits = self.loc_bit
            for item in ts.promises:
                b = bits.get(item.var)
                reads |= self.universe if b is None else b
            if self.stats is not None:
                self.stats.promise_footprints += 1
        return (reads, writes, flags)

    # -- liveness (state identity) ---------------------------------------------

    def _function_liveness(self, func: str) -> Dict[Tuple[str, int], Tuple[int, int]]:
        """``(label, offset) -> (live registers, live locations)`` for one
        function, built on first use.

        A register is live if some path reads it (store value, CAS
        operands, ``print``, assign expression, branch condition) before a
        load, CAS or assign overwrites it; a location is live if some path
        loads, stores or CASes it.  Registers are one file per thread, so
        a ``call`` and the ``return`` of a call target make every register
        live; a ``call``, and any ``return`` of a program with calls, make
        every location live.  This is semantic liveness: unlike the DCE
        facts of :mod:`repro.analysis.liveness`, a register feeding a
        store stays live whatever the store's fate.
        """
        table = self._live.get(func)
        if table is not None:
            return table
        program = self.program
        if self._call_targets is None:
            self._call_targets = frozenset(
                block.term.func
                for _, heap in program.functions
                for _, block in heap.blocks
                if isinstance(block.term, Call)
            )
        reg_bit, loc_bit = self._reg_bit, self.loc_bit

        def regs(names) -> int:
            m = 0
            for name in names:
                m |= reg_bit.setdefault(name, 1 << len(reg_bit))
            return m

        everything = (-1, self.universe)
        at_return = (
            -1 if func in self._call_targets else 0,
            self.universe if self._call_targets else 0,
        )
        def step(instr) -> Tuple[int, int, int]:
            """(registers kept, registers read, location accessed)."""
            dst = instr_def(instr)
            kept = -1 if dst is None else ~regs((dst,))
            loc = loc_bit[instr.loc] if isinstance(instr, (Load, Store, Cas)) else 0
            return kept, regs(instr_uses(instr)), loc

        blocks = program.function(func).blocks
        transfer = {label: [step(instr) for instr in block.instrs] for label, block in blocks}
        cond = {
            label: regs(expr_regs(block.term.cond))
            for label, block in blocks
            if isinstance(block.term, Be)
        }
        entry = {label: (0, 0) for label, _ in blocks}
        table: Dict[Tuple[str, int], Tuple[int, int]] = {}
        changed = True
        while changed:
            changed = False
            for label, block in reversed(blocks):
                term = block.term
                if isinstance(term, Jmp):
                    live = entry[term.target]
                elif isinstance(term, Be):
                    (r1, l1), (r2, l2) = entry[term.then_target], entry[term.else_target]
                    live = (r1 | r2 | cond[label], l1 | l2)
                elif isinstance(term, Call):
                    live = everything
                else:
                    assert isinstance(term, Return)
                    live = at_return
                offset = len(block.instrs)
                table[label, offset] = live
                live_regs, live_locs = live
                for kept, used, loc in reversed(transfer[label]):
                    offset -= 1
                    live_regs = (live_regs & kept) | used
                    live_locs |= loc
                    table[label, offset] = (live_regs, live_locs)
                if (live_regs, live_locs) != entry[label]:
                    entry[label] = (live_regs, live_locs)
                    changed = True
        self._live[func] = table
        return table

    def live_locations(self, ts: ThreadState) -> int:
        """The mask of locations a future step of ``ts`` may access, plus
        those it holds promises or reservations on."""
        local = ts.local
        mask = 0
        if not local.done:
            table = self._live.get(local.func) or self._function_liveness(local.func)
            mask = table[local.label, local.offset][1]
        if ts.promises.items:
            mask |= self.mask(item.var for item in ts.promises.items)
        return mask

    def locations_of(self, mask: int) -> Tuple[str, ...]:
        """The sorted location names of a mask."""
        names = self._loc_names.get(mask)
        if names is None:
            names = tuple(loc for loc, bit in self.loc_bit.items() if bit & mask)
            self._loc_names[mask] = names
        return names

    def facts(self, ts: ThreadState) -> Tuple[Optional[Footprint], int]:
        """``(thread_footprint(ts), live_locations(ts))``, computed once
        per distinct thread state of the exploration."""
        facts = self._facts.get(ts)
        if facts is None:
            facts = self._facts[ts] = (
                self.thread_footprint(ts),
                self.live_locations(ts),
            )
        return facts

    def persistent(
        self, fps: Sequence[Footprint], futures: Sequence[int]
    ) -> Tuple[int, ...]:
        """:func:`persistent_set` of the live threads' footprints and
        future location masks, computed once per distinct pair."""
        key = (tuple(fps), tuple(futures))
        chosen = self._chosen.get(key)
        if chosen is None:
            chosen = self._chosen[key] = persistent_set(
                fps, [(future, future, 0) for future in futures]
            )
        return chosen

    def normalize(self, ts: ThreadState) -> ThreadState:
        """``ts`` with its dead registers dropped (``_retire`` if it has
        finished), as no future step reads them, and with its promise
        budget dropped where no promise could certify any more, and
        interned, so every memo probe keyed by it is an identity hit."""
        return intern_thread_state(self._drop_dead(ts))

    def _drop_dead(self, ts: ThreadState) -> ThreadState:
        local = ts.local
        if local.done:
            return _retire(ts)
        if (
            ts.promise_budget
            and self._fulfill is not None
            and not self._position_masks(local)[0]
        ):
            # The candidate mask only shrinks, so no later promise step
            # could certify: the unspent budget carries no meaning.
            ts = ts.replace(promise_budget=0)
            if self.stats is not None:
                self.stats.budgets_dropped += 1
        if not local.regs or not self.drops_registers:
            return ts
        live = self._function_liveness(local.func)[local.label, local.offset][0]
        bits = self._reg_bit
        # Bits are assigned per function table, so a register only code
        # in another function mentions may have none yet: it is live iff
        # the mask is "every register but ..." (negative).
        kept = tuple(
            entry
            for entry in local.regs
            if (live < 0 if bits.get(entry[0]) is None else bits[entry[0]] & live)
        )
        if len(kept) == len(local.regs):
            return ts
        return ts.with_local(
            LocalState._make(
                local.func, local.label, local.offset, kept, local.stack, False
            )
        )

    def strip_thread(self, ts: ThreadState, dead: int) -> ThreadState:
        """``ts`` without view entries on the ``dead`` locations."""
        key = (ts, dead)
        out = self._stripped.get(key)
        if out is None:
            names = self.locations_of(dead)
            view = _strip_view(ts.view, names)
            vrel = _strip_view(ts.vrel, names)
            vacq = _strip_view(ts.vacq, names)
            out = ts
            if view is not ts.view or vrel is not ts.vrel or vacq is not ts.vacq:
                out = intern_thread_state(ts.replace(view=view, vrel=vrel, vacq=vacq))
            self._stripped[key] = out
        return out

    def strip_memory(self, mem: Memory, dead: int) -> Memory:
        """``mem`` without the ``dead`` locations: their messages go, and
        so do their entries in every message view and the SC view."""
        key = (mem, dead)
        out = self._stripped.get(key)
        if out is None:
            names = self.locations_of(dead)
            if all(var in names for var in mem._by_var):
                # Every location dies (the last live thread finished):
                # message and SC views can mention no other.
                self._stripped[key] = _EMPTY_MEMORY
                return _EMPTY_MEMORY
            out = mem
            for name in names:
                group = out.per_loc(name)
                if group:
                    out = out._with_var_items(name, (), out._isum - _group_sum(group))
            for var, group in tuple(out._by_var.items()):
                kept = tuple(_strip_item(item, names) for item in group)
                if any(new is not old for new, old in zip(kept, group)):
                    isum = out._isum - _group_sum(group) + _group_sum(kept)
                    out = out._with_var_items(var, kept, isum)
            out = out.with_sc_view(_strip_timemap(out.sc_view, names))
            self._stripped[key] = out
        return out

    def initial_state(self, state: MachineState) -> MachineState:
        """The initial state without the locations no thread can access
        (declared but unused atomics, code no thread reaches): later states
        lose a location on the step that kills it (``dpor_build``)."""
        if not self.drops_locations:
            return state
        live = 0
        for ts in state.pool:
            live |= self.live_locations(ts)
        dead = self.mask(state.mem.locations()) & ~live
        if not dead:
            return state
        pool = tuple(self.strip_thread(ts, dead) for ts in state.pool)
        return MachineState(pool, state.cur, self.strip_memory(state.mem, dead))


_EMPTY_MEMORY = Memory(())

#: A local suffix ticks the budget meter once per this many steps: only a
#: suffix that runs a long local loop ever reaches it.
_SUFFIX_TICK = 256


def _group_sum(group) -> int:
    return sum(item._hashcode for item in group)


def _strip_timemap(timemap, names):
    for var, _ in timemap.entries:
        if var in names:
            for name in names:
                timemap = timemap.set(name, 0)
            break
    return timemap


def _strip_view(view: View, names) -> View:
    tna = _strip_timemap(view.tna, names)
    trlx = _strip_timemap(view.trlx, names)
    if tna is view.tna and trlx is view.trlx:
        return view
    return View(tna, trlx)


def _strip_item(item, names):
    if not isinstance(item, Message):
        return item
    view = _strip_view(item.view, names)
    if view is item.view:
        return item
    return Message(item.var, item.value, item.frm, item.to, view)


@dataclass
class DporStats:
    """Counters describing one DPOR exploration (``explore --stats``)."""

    #: States expanded (each stored state is expanded at most once).
    nodes: int = 0
    #: Macro-steps executed (one per expanded thread of an expanded state).
    transitions: int = 0
    #: Reduced expansions widened to every live thread: by the cycle
    #: proviso, or because the persistent set had no successor.
    full_expansions: int = 0
    #: Distinct thread states that are potential promisers — holding a
    #: promise, or with budget left and a non-empty candidate mask — so
    #: their footprint reads the certification window; footprints are
    #: computed once per thread state of a build (``FootprintIndex.facts``).
    promise_footprints: int = 0
    #: Transitions whose outcomes came from the macro-step memo (the
    #: ``(thread state, memory, offered promise locations)`` key, or the
    #: thread state with the same live memory slice, SC view and offered
    #: locations, had already been executed).
    memo_hits: int = 0
    #: Macro-step outcomes whose thread state was stored with its unspent
    #: promise budget dropped, as no promise could certify from its
    #: position (rule b); memo hits replay outcomes and are not counted.
    budgets_dropped: int = 0
    #: Candidate promise locations withheld from transitions because no
    #: other live thread's future contains them (rule d), summed over
    #: transitions.
    promises_withheld: int = 0

    @property
    def redundant_executions(self) -> int:
        """Always 0: persistent sets are computed from the state alone and
        each stored state is expanded once, so no exploration is started
        and then found redundant (sleep-set DPOR counted such blocked
        executions here)."""
        return 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict rendering for JSON output."""
        return {
            "nodes": self.nodes,
            "transitions": self.transitions,
            "full_expansions": self.full_expansions,
            "promise_footprints": self.promise_footprints,
            "memo_hits": self.memo_hits,
            "budgets_dropped": self.budgets_dropped,
            "promises_withheld": self.promises_withheld,
            "redundant_executions": self.redundant_executions,
        }


def persistent_set(
    fps: Sequence[Footprint], futures: Sequence[Footprint]
) -> Tuple[int, ...]:
    """The smallest persistent set (positions into ``fps``) this state
    admits among those grown from one thread.

    ``fps[i]`` is the footprint of thread ``i``'s next macro-step and
    ``futures[i]`` its future as a footprint that reads and writes every
    location the thread may still access.  From each start thread, every
    thread whose future is dependent with a member's footprint joins; a
    member that prints or runs an SC fence makes the set everything (a
    thread's future outputs and fences are not tracked), and so does a
    conservative :data:`FLAG_PRM` footprint, which is dependent with every
    future.  Ties go to the lowest start.
    """
    best = tuple(range(len(fps)))
    for start in range(len(fps)):
        members = [start]
        merged = fps[start]
        grew = True
        while grew and not merged[2] & _UNTRACKED and len(members) < len(best):
            grew = False
            for other, future in enumerate(futures):
                if other not in members and dependent(merged, future):
                    members.append(other)
                    reads, writes, flags = fps[other]
                    merged = (merged[0] | reads, merged[1] | writes, merged[2] | flags)
                    grew = True
        if len(members) < len(best) and not merged[2] & _UNTRACKED:
            best = tuple(sorted(members))
            if len(best) == 1:
                break
    return best


def _retire(ts: ThreadState) -> ThreadState:
    """``ts`` with everything no step reads dropped, if it has finished
    with no promises or reservations left: only its final position stays
    (no registers, no stack, bottom views, promise budget 0).  A thread
    still holding promises or reservations is returned unchanged."""
    local = ts.local
    if not local.done or len(ts.promises):
        return ts
    return _RETIRED.with_local(
        LocalState._make(local.func, local.label, local.offset, (), (), True)
    )


#: The fields every retired thread shares: bottom views, no promises, no
#: promise budget (``_retire`` fills in the final position).
_RETIRED = ThreadState(LocalState("", "", 0))


def _record_deltas(mem, outcomes: List[Outcome], names: FrozenSet[str]):
    """The outcomes of a macro-step over ``mem`` as ``(label, thread state,
    deltas, SC view, live mask)``, where each delta ``(location, items,
    hash delta)`` replaces one location's item group; ``None`` if some
    outcome changed a location outside ``names`` (then only the exact memo
    applies)."""
    recorded = []
    old_groups = mem._by_var
    for label, new_ts, new_mem, live in outcomes:
        deltas = []
        new_groups = new_mem._by_var
        for name in old_groups.keys() | new_groups.keys():
            old = old_groups.get(name, ())
            new = new_groups.get(name, ())
            if old is new or old == new:
                continue
            if name not in names:
                return None
            deltas.append((name, new, _group_sum(new) - _group_sum(old)))
        recorded.append((label, new_ts, tuple(deltas), new_mem.sc_view, live))
    return recorded


def _apply_deltas(mem, deltas, sc_view):
    """``mem`` with recorded per-location deltas and SC view applied."""
    for name, items, hash_delta in deltas:
        mem = mem._with_var_items(name, items, mem._isum + hash_delta)
    return mem.with_sc_view(sc_view)


def _cancel_closure(
    program, ts: ThreadState, mem, config: SemanticsConfig
) -> List[Tuple[ThreadState, object]]:
    """Configurations a freshly finished thread reaches by cancelling any
    of its remaining reservations (its only steps once done).  In the
    interleaving machine those cancels can only run while the thread is
    still current — an uninterrupted suffix of its final macro-step — so
    the DPOR executor folds them in as alternative outcomes."""
    out: List[Tuple[ThreadState, object]] = []
    seen = {(ts, mem)}
    frontier = [(ts, mem)]
    while frontier:
        cur_ts, cur_mem = frontier.pop()
        for _event, nxt_ts, nxt_mem in thread_steps(
            program, cur_ts, cur_mem, config
        ):
            key = (nxt_ts, nxt_mem)
            if key not in seen:
                seen.add(key)
                out.append(key)
                frontier.append(key)
    return out


def dpor_build(
    explorer,
    meter=None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 100_000,
) -> None:
    """Explore ``explorer.program`` with persistent sets, filling the
    explorer's ``states``/``edges``/``terminal`` arrays in place.

    A stateful DFS expands each stored state once.  Budget-aware exactly
    like the BFS: ``meter`` is ticked once per expansion (and every
    :data:`_SUFFIX_TICK` steps of a long local suffix), and a trip stops
    the search in a consistent, resumable shape (the DFS stack, the set of
    visited states and the stats are kept on the explorer as
    ``_dpor_state`` for :meth:`Explorer.snapshot`).
    """
    program: Program = explorer.program
    config: SemanticsConfig = explorer.config
    index = FootprintIndex(program, config, fulfill=explorer.cert_precheck)
    narrows = index.narrows_promises

    resume = explorer._dpor_resume
    if resume is not None:
        saved_stack, saved_visited, stats = resume
        explorer._dpor_resume = None
        # Copies: the checkpoint object may be resumed again.
        stack = [[idx, None if todo is None else list(todo)] for idx, todo in saved_stack]
        visited = set(saved_visited)
        stats = replace(stats)
    else:
        #: ``[state index, successors still to visit]``; ``None`` until
        #: the state is expanded.
        stack: List[list] = [[0, None]]
        #: Every state ever pushed: each is expanded once, on top of the
        #: stack, before anything else happens.
        visited: Set[int] = {0}
        stats = DporStats()
    index.stats = stats
    explorer.dpor_stats = stats
    explorer._dpor_state = (stack, visited, stats)
    on_stack: Set[int] = {idx for idx, _ in stack}

    def intern(state) -> Optional[int]:
        idx = explorer._index.get(state)
        if idx is not None:
            return idx
        if len(explorer.states) >= config.max_states:
            explorer.exhaustive = False
            explorer.stop_reason = explorer.stop_reason or "states"
            explorer.dropped_edges += 1
            return None
        idx = len(explorer.states)
        explorer._index[state] = idx
        explorer.states.append(state)
        explorer.edges.append([])
        explorer.terminal.append(state.all_done)
        return idx

    def local_suffix(ts: ThreadState, mem, certified: bool):
        """Extend a just-executed step through the thread's deterministic
        pure-local continuation, promises deferred.

        A pure-local step commutes with every other thread's steps and
        leaves memory, promise candidates, and certification verdicts
        unchanged, so folding the silent suffix into the macro-step neither loses
        behaviors nor invalidates the recorded footprint — it only stops
        local chains from costing one stored state (and one promise
        branching point) per step.

        ``certified`` says whether ``ts`` passed certification.  A
        deterministic pure-local step preserves ``consistent`` both ways
        (the certifying run from ``ts`` must take it first, and takes no
        more search steps from the successor), so only the first suffix
        step after an uncertified output step is checked.  The suffix
        stops where the thread's local state repeats: the macro-step then
        ends on the loop, and the cycle proviso lets the other threads
        run.  A suffix that never repeats ticks the budget meter, and
        stops the build once it is ``max_states`` steps long (the
        unreduced explorer would store a state per step)."""
        seen = None
        steps = 0
        while not ts.local.done and isinstance(
            next_op(program, ts.local), _PURE_LOCAL
        ):
            successors = list(
                thread_steps(program, ts, mem, config, allow_promises=False)
            )
            if len(successors) != 1:
                break
            _, next_ts, next_mem = successors[0]
            if not certified:
                if not consistent(
                    program,
                    next_ts,
                    next_mem,
                    config,
                    explorer.cert_cache,
                    explorer.cert_stats,
                    explorer.cert_precheck,
                ):
                    break
                certified = True
            if seen is None:
                seen = {ts.local}
            if next_ts.local in seen:
                break
            seen.add(next_ts.local)
            ts, mem = next_ts, next_mem
            steps += 1
            if not steps % _SUFFIX_TICK:
                if steps >= config.max_states:
                    raise BudgetExhausted(
                        REASON_STATES, detail=f"local suffix of {steps} steps"
                    )
                if meter is not None:
                    meter.tick(len(explorer.states))
        return ts, mem

    def macro_outcomes(head: ThreadState, mem, offer: Optional[int]) -> List[Outcome]:
        """Every outcome (``(label, new_ts, new_mem, live)``) a macro-step
        of ``head`` over ``mem`` reaches when the oracle may promise on the
        ``offer`` mask (``None``: anywhere): the certified visible steps,
        each extended through its pure-local suffix, plus the reservation
        cancel closure of a finishing thread.  A thread step and its
        certification read only the thread's own state and the shared
        memory, so this is a pure function of ``(head, mem, offer)``
        (``outcomes_of`` memoizes it).  Each outcome's thread state is
        normalized (``FootprintIndex.normalize``: dead registers and a
        budget no promise can spend dropped, a finished thread retired)
        and carries its live location mask, so the memo pays for both
        once per entry."""
        outcomes: List[Outcome] = []
        # A macro-step starting at a pure-local op is the deterministic
        # local chain itself: no promise branching at its head either
        # (deferral is sound for the same reason it is mid-chain), and
        # ``FootprintIndex.offered`` is 0 there.
        head_local = not head.local.done and isinstance(
            next_op(program, head.local), _PURE_LOCAL
        )
        for event, new_ts, new_mem in thread_steps(
            program,
            head,
            mem,
            config,
            allow_promises=not head_local,
            promise_locations=None if offer is None else index.locations_of(offer),
        ):
            is_out = isinstance(event, OutputEvent)
            if not is_out and not consistent(
                program,
                new_ts,
                new_mem,
                config,
                explorer.cert_cache,
                explorer.cert_stats,
                explorer.cert_precheck,
            ):
                continue
            label = int(event.value) if is_out else None
            new_ts, new_mem = local_suffix(new_ts, new_mem, not is_out)
            outcomes.append(outcome(label, new_ts, new_mem))
            if (
                config.enable_reservations
                and new_ts.local.done
                and len(new_ts.promises)
            ):
                # The closure cancels reservations, so it runs on the
                # unretired state; each result is retired afterwards.
                for closed_ts, closed_mem in _cancel_closure(
                    program, new_ts, new_mem, config
                ):
                    outcomes.append(outcome(None, closed_ts, closed_mem))
        return outcomes

    def outcome(label: Optional[int], ts: ThreadState, mem) -> Outcome:
        ts = index.normalize(ts)
        live = index.facts(ts)[1] if index.drops_locations else 0
        return (label, ts, mem, live)

    #: ``(thread state, memory, offered promise locations) ->
    #: macro_outcomes(...)`` for this build only: a resumed build refills
    #: it, checkpoints never carry it.  The offer depends on the other
    #: threads' futures (rule d), hence its place in both keys.
    memo: Dict[tuple, List[Outcome]] = {}
    #: ``(thread state, its live slice of the memory, SC view, offered
    #: promise locations) -> _record_deltas(...)``: the second key, tried
    #: when ``memo`` misses (see "Macro-step memo").
    slice_memo: Dict[tuple, List[tuple]] = {}

    def outcomes_of(
        head: ThreadState, mem, head_live: int, offer: Optional[int]
    ) -> List[Outcome]:
        """``macro_outcomes(head, mem, offer)``, from either memo if it
        can; ``head_live`` is ``head``'s live location mask."""
        triple = (head, mem, offer)
        outcomes = memo.get(triple)
        if outcomes is not None:
            stats.memo_hits += 1
            return outcomes
        if not index.drops_locations or head_live == index.universe:
            outcomes = memo[triple] = macro_outcomes(head, mem, offer)
            return outcomes
        names = index.locations_of(head_live)
        key = (head, tuple(mem.per_loc(name) for name in names), mem.sc_view, offer)
        recorded = slice_memo.get(key)
        if recorded is not None:
            stats.memo_hits += 1
            outcomes = memo[triple] = [
                (label, new_ts, _apply_deltas(mem, deltas, sc_view), live)
                for label, new_ts, deltas, sc_view, live in recorded
            ]
            return outcomes
        outcomes = memo[triple] = macro_outcomes(head, mem, offer)
        recorded = _record_deltas(mem, outcomes, frozenset(names))
        if recorded is not None:
            slice_memo[key] = recorded
        return outcomes

    def execute(
        idx: int, tid: int, masks: List[int], edges: Set[Tuple[Optional[int], int]]
    ) -> List[int]:
        """Run ``tid``'s macro-step from state ``idx``, whose threads have
        the live location ``masks``: intern the successors, record the
        edges not in ``edges`` yet, and return the successor indices."""
        stats.transitions += 1
        state = explorer.states[idx]
        succs: List[int] = []
        pool = state.pool
        head = pool[tid]
        head_live = masks[tid] if index.drops_locations else 0
        others = None
        offer = index.offered(head) if narrows else None
        if offer and index.drops_locations:
            # Rule (d): only another live thread can usefully read a
            # promise, so offer only locations some other future holds.
            others = 0
            for other, mask in enumerate(masks):
                if other != tid:
                    others |= mask
            stats.promises_withheld += bin(offer & ~others).count("1")
            offer &= others
        for label, new_ts, new_mem, new_live in outcomes_of(
            head, state.mem, head_live, offer
        ):
            new_pool = update_pool(pool, tid, new_ts)
            # A location dies only on the step of the last thread that
            # could access it: usually nothing dies and this costs one
            # mask test.
            gone = head_live & ~new_live
            if gone:
                if others is None:
                    others = 0
                    for other, mask in enumerate(masks):
                        if other != tid:
                            others |= mask
                dead = gone & ~others
                if dead:
                    new_pool = tuple(index.strip_thread(ts, dead) for ts in new_pool)
                    new_mem = index.strip_memory(new_mem, dead)
            # ``cur`` is always 0 (see "State identity" above).
            new_state = MachineState(new_pool, 0, new_mem)
            if new_mem.needs_renormalize:
                new_state = renormalized_state(new_state)
            succ_idx = intern(new_state)
            if succ_idx is None:
                continue
            edge = (label, succ_idx)
            if edge not in edges:
                edges.add(edge)
                explorer.edges[idx].append(edge)
                succs.append(succ_idx)
        return succs

    def expand(idx: int) -> List[int]:
        """Expand state ``idx`` (it is on the stack): run a persistent set
        of its live threads, or all of them when the reduced expansion
        closes a cycle through the stack or has no successor."""
        stats.nodes += 1
        pool = explorer.states[idx].pool
        live: List[int] = []
        fps: List[Footprint] = []
        futures: List[int] = []
        masks: List[int] = []
        for tid, ts in enumerate(pool):
            fp, live_mask = index.facts(ts)
            masks.append(live_mask)
            if fp is not None:
                live.append(tid)
                fps.append(fp)
                futures.append(live_mask | fp[0] | fp[1])
        chosen: Sequence[int] = range(len(live))
        if len(live) > 1:
            chosen = index.persistent(fps, futures)
        edges: Set[Tuple[Optional[int], int]] = set()
        succs: List[int] = []
        for pos in chosen:
            succs += execute(idx, live[pos], masks, edges)
        if len(chosen) < len(live) and (
            not succs or any(succ in on_stack for succ in succs)
        ):
            stats.full_expansions += 1
            for pos in range(len(live)):
                if pos not in chosen:
                    succs += execute(idx, live[pos], masks, edges)
        return succs

    if resume is None:
        initial = explorer.states[0]
        normal = index.initial_state(initial)
        if normal is not initial:
            del explorer._index[initial]
            explorer._index[normal] = 0
            explorer.states[0] = normal

    next_checkpoint = len(explorer.states) + checkpoint_interval
    while stack:
        if checkpoint_path and len(explorer.states) >= next_checkpoint:
            from repro.robust.checkpoint import save_checkpoint

            save_checkpoint(explorer.snapshot(), checkpoint_path)
            next_checkpoint = len(explorer.states) + checkpoint_interval

        frame = stack[-1]
        idx, todo = frame
        if todo is None:
            counts = dict(vars(stats))
            try:
                if meter is not None:
                    meter.tick(
                        len(explorer.states),
                        sample=explorer.states[-1] if explorer.states else None,
                    )
                # Successors are visited last first; reversing keeps the
                # DFS in outcome order.
                frame[1] = expand(idx)[::-1]
            except BudgetExhausted as exc:
                # A trip inside a local suffix leaves the state unexpanded:
                # drop its partial edges and counts so a resumed build
                # expands it anew (successors it already stored keep their
                # indices; the new expansion finds them again).
                explorer.edges[idx].clear()
                vars(stats).update(counts)
                explorer.exhaustive = False
                explorer.stop_reason = exc.reason
                return
        elif not todo:
            stack.pop()
            on_stack.discard(idx)
        else:
            succ = todo.pop()
            if succ not in visited:
                visited.add(succ)
                on_stack.add(succ)
                stack.append([succ, None])

    explorer._dpor_state = None
