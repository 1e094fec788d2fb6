"""Source-set dynamic partial-order reduction for the interleaving machine.

The unreduced explorer (:mod:`repro.semantics.exploration`) enumerates
every interleaving of every thread step.  Most of those interleavings are
*equivalent*: steps of different threads that touch disjoint locations
commute, so any two schedules that differ only in the order of commuting
steps reach the same machine state and produce the same observable trace.
This module explores one representative per equivalence class using

* **backtrack sets** (Flanagan–Godefroid DPOR): at each schedule node only
  a growing subset of the enabled threads is explored; whenever a later
  transition is found to be *dependent* with the transition chosen at an
  earlier node, a thread reversing that race is added to the earlier
  node's backtrack set (the *race clause*);

* **source sets + wakeup sequences** (Abdulla–Aronis–Jonsson–Sagonas):
  the race clause is refined so a backtrack point is only added when no
  *initial* of the not-happens-after suffix is already scheduled at the
  racing node — races whose reversal is subsumed by an existing branch
  are skipped (``source_skips``).  When a point *is* added, the suffix is
  recorded as a wakeup sequence that seeds and guides the new branch, so
  the reversal replays the known interleaving instead of re-deriving it
  (``wakeup_sequences`` / ``wakeup_nodes``); and

* **sleep sets** (Godefroid): a thread already explored at a node is put
  to sleep for the node's later siblings and stays asleep down the tree
  until some dependent transition executes, which prunes the redundant
  second half of each commuting diamond.  A node whose every enabled
  thread is asleep is a *redundant execution* — the optimality measure
  (``redundant_executions``, 0 on families the reduction is optimal for).

**Dependency relation.**  Transitions are per-thread macro-steps — one
visible step plus the thread's deterministic pure-local suffix, with
promise opportunities deferred past the suffix (sound because a local
step changes neither memory nor promise candidates nor certification
verdicts, so it commutes with every step of every other thread), so
local chains never cost schedule nodes.  The footprint of a step is ``(reads, writes, flags)``
with the location sets
packed into bit masks over the program's locations
(:class:`FootprintIndex`).  Two footprints are dependent iff

* they write-write or write-read overlap on some location,
* both are SC fences (they exchange with the global SC view),
* both are outputs (their relative order is the observable trace), or
* either carries the conservative :data:`FLAG_PRM` (see below).

**Certification-scoped promise dependence.**  A thread holding (or able
to make) promises has every step followed by a certification run
(:func:`~repro.semantics.certification.consistent`).  The verdict of that
run depends only on the memory content of the thread's *certification
window* — the locations accessed by code reachable from its current
function and pending callers, plus its outstanding promise/reservation
locations (:func:`~repro.semantics.certification.certification_locations`)
— so promise-bearing steps *read* that window rather than "everything".
Promise steps additionally *write* the oracle's candidate locations
(placement and visibility of the new message);
:class:`~repro.semantics.promises.SyntacticPromises` candidates are
memory-independent, which keeps every footprint a function of the thread
state alone — the invariant sleep-set validity rests on.  Unknown oracle
classes and reservation-enabled configs fall back to universal writes
(a reserve step may target any location).  ``--por-conservative``
(:attr:`SemanticsConfig.por_conservative`) restores the old
"depends on everything" :data:`TOP_FP` treatment as a soundness oracle.

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
last mover, per leftover register value and per dead message history;
with it every other reduction (sleep-set subsumption, the macro-step
memo) prunes more.  ``none`` and the non-preemptive machine keep all of
it: they are the reference.

**Race scans.**  The ww-RF and rw race predicates (paper Fig. 11,
:mod:`repro.races.wwrf`) read the reduced graph directly, asking of each
stored state whether *any* live thread would race as the current
thread.  Three facts make that exact:

* Fig. 9 can switch to any live thread, so a racy ``(pool, mem)`` is a
  racy ``(pool, t, mem)`` of the unreduced machine;
* a macro-step ends where the thread's next operation stops being
  pure-local, so every non-atomic store or load is the head of a stored
  state;
* two racing same-location accesses (at least one a write) are
  dependent under the footprint relation, so both orders are explored.

The differential against ``por="none"`` scans is
``tests/semantics/test_por.py``.

**Cycle proviso.**  A schedule hitting a state currently on the DFS stack
(a back edge) marks that ancestor *fully expanded* (backtrack = all
enabled, sleep cleared), so no transition can be ignored forever around a
cycle (the standard ignoring-problem fix).

**Stateful memoization.**  Re-reaching an already-explored state with a
sleep set that is a superset of a recorded visit is subsumed by that
visit and skipped; the skipped subtree's transition summary (which
threads executed which footprints below) is replayed against the current
stack so no race-clause backtrack point is lost.  Wakeup-sequence-guided
branches integrate for free: a guided replay that reaches a memoized
state skips with the same summary replay.

**Macro-step memo.**  A thread step and its certification read only the
thread's own state and the shared memory (the machine step, Fig. 9), so
the outcomes of a macro-step are a pure function of ``(pool[tid], mem)``.
The same pair recurs under many schedule nodes (every interleaving of
independent steps of *other* threads leaves it unchanged), so each
build computes it once (``macro_outcomes``) and replays it on later
transitions (``memo_hits``); only the successor machine states are
rebuilt, renormalized and interned per transition.  Narrower still, a
macro-step reads and writes only the thread's live locations and the SC
view (a promise elsewhere cannot certify), so a miss of the
``(thread state, memory)`` key tries a second one: the thread state, the
item groups of its live locations, and the SC view.  Its entries are
stored as per-location deltas and re-applied to the current memory.

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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
from repro.perf.intern import intern_footprint
from repro.robust.budget import BudgetExhausted
from repro.semantics.certification import certification_locations, consistent
from repro.semantics.events import OutputEvent
from repro.semantics.machine import MachineState, _PURE_LOCAL, renormalized_state
from repro.semantics.promises import NoPromises, SyntacticPromises, syntactic_write_candidates
from repro.semantics.thread import SemanticsConfig, thread_steps
from repro.semantics.threadstate import LocalState, ThreadState, next_op, update_pool

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
    state alone (never of the shared memory): a sleeping thread's
    footprint has to stay valid while independent transitions execute
    underneath it.
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
        "_op_fp",
        "_window",
        "_cand",
        "_reg_bit",
        "_call_targets",
        "_live",
        "_loc_names",
        "_stripped",
    )

    def __init__(
        self,
        program: Program,
        config: SemanticsConfig,
        stats: Optional["DporStats"] = None,
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
        if type(oracle) is NoPromises:
            self._oracle_kind = "none"
        elif type(oracle) is SyntacticPromises:
            self._oracle_kind = "syntactic"
            self._max_outstanding = oracle.max_outstanding
        else:
            # Unknown oracle classes may promise anywhere — universal.
            self._oracle_kind = "other"
        self._op_fp: Dict[Tuple[str, str, int], Footprint] = {}
        self._window: Dict[FrozenSet[str], int] = {}
        self._cand: Dict[FrozenSet[str], int] = {}
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

    def _candidate_mask(self, local: LocalState) -> int:
        funcs = self._continuation_funcs(local)
        m = self._cand.get(funcs)
        if m is None:
            m = 0
            for func in funcs:
                for loc, _value in syntactic_write_candidates(self.program, func):
                    m |= self.loc_bit[loc]
            self._cand[funcs] = m
        return m

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
        if self._oracle_kind == "syntactic":
            if ts.promise_budget > 0 and (
                sum(1 for item in ts.promises if item.is_concrete)
                < self._max_outstanding
            ):
                writes |= self._candidate_mask(local)
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
        return intern_footprint((reads, writes, flags))

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

    def normalize(self, ts: ThreadState) -> ThreadState:
        """``ts`` with its dead registers dropped (``_retire`` if it has
        finished): no future step reads them."""
        local = ts.local
        if local.done:
            return _retire(ts)
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
        local = LocalState(local.func, local.label, local.offset, kept, local.stack)
        return ThreadState(
            local, ts.view, ts.promises, ts.vrel, ts.vacq, ts.promise_budget
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
                out = ThreadState(
                    ts.local, view, ts.promises, vrel, vacq, ts.promise_budget
                )
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

    #: Schedule nodes pushed on the DFS stack.
    nodes: int = 0
    #: Macro-transitions executed (per chosen thread, all successors).
    transitions: int = 0
    #: Subtrees skipped because a recorded visit subsumed the sleep set.
    sleep_skips: int = 0
    #: Nodes where every enabled thread was asleep (pruned redundant runs).
    sleep_blocked: int = 0
    #: Threads added to an ancestor's backtrack set by the race clause.
    backtrack_points: int = 0
    #: Nodes forced to full expansion by the cycle proviso.
    full_expansions: int = 0
    #: Footprints widened to a certification window (promise-bearing).
    promise_footprints: int = 0
    #: Races skipped because an initial was already scheduled (source sets).
    source_skips: int = 0
    #: Wakeup sequences recorded to guide race-reversing branches.
    wakeup_sequences: int = 0
    #: Total nodes across all recorded wakeup sequences (tree size).
    wakeup_nodes: int = 0
    #: Transitions whose outcomes came from the macro-step memo (the
    #: ``(thread state, memory)`` pair, or the thread state with the same
    #: live memory slice and SC view, had already been executed).
    memo_hits: int = 0

    @property
    def redundant_executions(self) -> int:
        """Sleep-blocked explorations — executions an optimal reduction
        would not have started; 0 on families the reduction is optimal
        for (asserted by the disjoint benchmark families)."""
        return self.sleep_blocked

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict rendering for JSON output."""
        return {
            "nodes": self.nodes,
            "transitions": self.transitions,
            "sleep_skips": self.sleep_skips,
            "sleep_blocked": self.sleep_blocked,
            "backtrack_points": self.backtrack_points,
            "full_expansions": self.full_expansions,
            "promise_footprints": self.promise_footprints,
            "source_skips": self.source_skips,
            "wakeup_sequences": self.wakeup_sequences,
            "wakeup_nodes": self.wakeup_nodes,
            "memo_hits": self.memo_hits,
            "redundant_executions": self.redundant_executions,
        }


@dataclass
class _Node:
    """One schedule node on the DPOR DFS stack.

    ``backtrack``/``done`` realize the Flanagan–Godefroid sets; ``sleep``
    is the entry sleep set; ``summary`` accumulates ``{tid: footprint}``
    for every transition executed in the subtree below (merged upward on
    pop, replayed for the race clause when a memoized subtree is skipped).
    ``scripts`` maps a backtracked thread to the wakeup sequence that
    should follow it; ``hint`` is the remaining wakeup sequence this node
    was entered under, and ``child_hint`` the portion forwarded to the
    successors of the currently chosen transition.
    """

    idx: int
    enabled: Tuple[int, ...]
    fp: Dict[int, Footprint]
    sleep: FrozenSet[int]
    backtrack: Set[int] = field(default_factory=set)
    done: Set[int] = field(default_factory=set)
    summary: Dict[int, Footprint] = field(default_factory=dict)
    full: bool = False
    chosen: Optional[int] = None
    queue: List[int] = field(default_factory=list)
    child_sleep: FrozenSet[int] = frozenset()
    scripts: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hint: Tuple[int, ...] = ()
    child_hint: Tuple[int, ...] = ()


def _merge_fp(summary: Dict[int, Footprint], tid: int, fp: Footprint) -> None:
    old = summary.get(tid)
    if old is None:
        summary[tid] = fp
    elif old != fp:
        summary[tid] = (old[0] | fp[0], old[1] | fp[1], old[2] | fp[2])


def _merge_summary(into: Dict[int, Footprint], new: Dict[int, Footprint]) -> None:
    for tid, fp in new.items():
        _merge_fp(into, tid, fp)


def _race_clause(stack: List[_Node], tid: int, fp: Footprint, stats: DporStats) -> None:
    """Add backtrack points for a (future) transition of ``tid`` with
    footprint ``fp`` against every stack ancestor whose chosen transition
    is dependent with it.

    This is the conservative all-ancestors variant of the Flanagan–
    Godefroid race clause, kept for summary replay (where the precise
    event order inside the skipped subtree is no longer known, so the
    source-set suffix analysis does not apply): over-approximating the
    set of racing ancestors only adds exploration, never loses a
    schedule.
    """
    for node in stack:
        chosen = node.chosen
        if chosen is None or chosen == tid:
            continue
        if not dependent(node.fp[chosen], fp):
            continue
        if tid in node.fp:
            if tid not in node.backtrack:
                node.backtrack.add(tid)
                stats.backtrack_points += 1
        else:
            for other in node.enabled:
                if other not in node.backtrack:
                    node.backtrack.add(other)
                    stats.backtrack_points += 1


class _SourceClause:
    """Source-set race analysis for one node push.

    For a race between ancestor ``e`` (the chosen transition at stack
    position ``pos``) and a next transition of ``tid``, the reversal only
    needs exploring if no *initial* of ``v`` — the subsequence of events
    after ``e`` not happens-after it, followed by ``tid``'s event — is
    already in the ancestor's backtrack set (Abdulla et al., *Optimal
    DPOR*, POPL'14).  The per-ancestor suffix analysis depends only on
    ``pos``, so it is computed lazily and shared across all enabled
    threads of the push.
    """

    __slots__ = ("stack", "stats", "_segments")

    def __init__(self, stack: List[_Node], stats: DporStats) -> None:
        self.stack = stack
        self.stats = stats
        self._segments: Dict[int, List[Tuple[int, Footprint]]] = {}

    def _segment(self, pos: int) -> List[Tuple[int, Footprint]]:
        """The chosen events after position ``pos`` that are *not*
        happens-after the event chosen at ``pos``, in execution order."""
        seg = self._segments.get(pos)
        if seg is None:
            node = self.stack[pos]
            e_thr = node.chosen
            e_fp = node.fp[e_thr]
            after: List[Tuple[int, Footprint]] = []
            seg = []
            for anc in self.stack[pos + 1:]:
                thr = anc.chosen
                f = anc.fp[thr]
                if (
                    thr == e_thr
                    or dependent(e_fp, f)
                    or any(
                        thr == g_thr or dependent(g_fp, f) for g_thr, g_fp in after
                    )
                ):
                    after.append((thr, f))
                else:
                    seg.append((thr, f))
            self._segments[pos] = seg
        return seg

    def apply(self, node: _Node, pos: int, tid: int, fp: Footprint) -> None:
        """Handle the race between ``node.chosen`` (at ``pos``) and the
        next ``tid`` transition with footprint ``fp``."""
        stats = self.stats
        notdep = self._segment(pos)
        # Initials of v = notdep · (tid, fp): threads whose first event in
        # v has no same-thread or dependent predecessor within v — those
        # could equally be scheduled first at the racing node.
        initials: List[int] = []
        seen: Set[int] = set()
        for j, (thr, efp) in enumerate(notdep):
            if thr in seen:
                continue
            seen.add(thr)
            if all(not dependent(g_fp, efp) for _, g_fp in notdep[:j]):
                initials.append(thr)
        if any(q in node.backtrack for q in initials):
            stats.source_skips += 1
            return
        tid_initial = tid not in seen and all(
            not dependent(g_fp, fp) for _, g_fp in notdep
        )
        if tid_initial and tid in node.fp:
            q = tid
        else:
            q = next((t for t in initials if t in node.fp), None)
        if q is None:
            # No initial is enabled at the racing node: conservative
            # Flanagan–Godefroid fallback (add every enabled thread).
            for other in node.enabled:
                if other not in node.backtrack:
                    node.backtrack.add(other)
                    stats.backtrack_points += 1
            return
        node.backtrack.add(q)
        stats.backtrack_points += 1
        # Record v (with q moved to the front) as the wakeup sequence
        # guiding the new branch: q seeds the node, the rest is the hint
        # forwarded down the chain.
        seq = [thr for thr, _ in notdep]
        seq.append(tid)
        k = seq.index(q)
        script = tuple(seq[:k] + seq[k + 1:])
        if script and q not in node.scripts:
            node.scripts[q] = script
            stats.wakeup_sequences += 1
            stats.wakeup_nodes += len(script) + 1


def _retire(ts: ThreadState) -> ThreadState:
    """``ts`` with everything no step reads dropped, if it has finished
    with no promises or reservations left: only its final position stays
    (no registers, no stack, bottom views, promise budget 0).  A thread
    still holding promises or reservations is returned unchanged."""
    local = ts.local
    if not local.done or len(ts.promises):
        return ts
    return ThreadState(LocalState(local.func, local.label, local.offset, done=True))


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
    """Explore ``explorer.program`` with source-set DPOR, filling the
    explorer's ``states``/``edges``/``terminal`` arrays in place.

    Budget-aware exactly like the BFS: ``meter`` is ticked between atomic
    operations and a trip stops the search in a consistent, resumable
    shape (the live DFS stack, memo tables and stats are kept on the
    explorer as ``_dpor_state`` for :meth:`Explorer.snapshot`).
    """
    program: Program = explorer.program
    config: SemanticsConfig = explorer.config
    index = FootprintIndex(program, config)

    resume = explorer._dpor_resume
    if resume is not None:
        stack, visited, summaries, stats = resume
        explorer._dpor_resume = None
    else:
        stack = []
        #: idx -> entry sleep sets of completed explorations of that state.
        visited: Dict[int, List[FrozenSet[int]]] = {}
        #: idx -> merged subtree summary over those explorations.
        summaries: Dict[int, Dict[int, Footprint]] = {}
        stats = DporStats()
    index.stats = stats
    explorer.dpor_stats = stats
    explorer._dpor_state = (stack, visited, summaries, stats)
    on_stack: Dict[int, _Node] = {node.idx: node for node in stack}
    edge_seen: Set[Tuple[int, Optional[int], int]] = {
        (idx, label, succ)
        for idx, out in enumerate(explorer.edges)
        for label, succ in out
    }

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

    def push(idx: int, sleep: FrozenSet[int], hint: Tuple[int, ...] = ()) -> None:
        state = explorer.states[idx]
        stats.nodes += 1
        enabled: List[int] = []
        fps: Dict[int, Footprint] = {}
        for tid, ts in enumerate(state.pool):
            fp = index.thread_footprint(ts)
            if fp is None:
                continue
            enabled.append(tid)
            fps[tid] = fp
        node = _Node(idx=idx, enabled=tuple(enabled), fp=fps, sleep=sleep)
        source = _SourceClause(stack, stats)
        for tid in enabled:
            fp = fps[tid]
            for pos, anc in enumerate(stack):
                chosen = anc.chosen
                if chosen is None or chosen == tid:
                    continue
                if not dependent(anc.fp[chosen], fp):
                    continue
                if tid in anc.backtrack:
                    continue  # classic FG: the racing thread is scheduled
                source.apply(anc, pos, tid, fp)
        if enabled:
            awake = [tid for tid in enabled if tid not in sleep]
            if not awake:
                stats.sleep_blocked += 1
            elif hint and hint[0] in fps and hint[0] not in sleep:
                # Wakeup-guided: the hinted thread is the sole seed, so
                # the race-reversing branch replays the recorded suffix
                # instead of wandering off it.
                node.hint = hint
                node.backtrack.add(hint[0])
            else:
                # Seed the backtrack set with one awake thread, preferring
                # one whose next step is pure-local (empty footprint):
                # nothing is ever dependent with it, so the race clause
                # can never force a sibling and the node stays a singleton
                # — eager local steps fall out of DPOR as a special case.
                seed = next(
                    (tid for tid in awake if fps[tid] == EMPTY_FP), awake[0]
                )
                node.backtrack.add(seed)
        stack.append(node)
        on_stack[idx] = node

    def local_suffix(ts: ThreadState, mem):
        """Extend a just-executed step through the thread's deterministic
        pure-local continuation, promises deferred.

        A pure-local step commutes with every other thread's steps and
        leaves memory, promise candidates, and certification verdicts
        unchanged, so folding the silent suffix into the macro-step neither loses
        behaviors nor invalidates the recorded footprint — it only stops
        local chains from costing one schedule node (and one promise
        branching point) per step."""
        while not ts.local.done and isinstance(
            next_op(program, ts.local), _PURE_LOCAL
        ):
            steps = list(
                thread_steps(program, ts, mem, config, allow_promises=False)
            )
            if len(steps) != 1:
                break
            _, next_ts, next_mem = steps[0]
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
            ts, mem = next_ts, next_mem
        return ts, mem

    def macro_outcomes(head: ThreadState, mem) -> List[Outcome]:
        """Every outcome (``(label, new_ts, new_mem, live)``) a macro-step
        of ``head`` over ``mem`` reaches: the certified visible steps, each
        extended through its pure-local suffix, plus the reservation cancel
        closure of a finishing thread.  A thread step and its certification
        read only the thread's own state and the shared memory, so this is
        a pure function of ``(head, mem)`` (``outcomes_of`` memoizes it).
        Each outcome's thread state is normalized
        (``FootprintIndex.normalize``: dead registers dropped, a finished
        thread retired) and carries its live location mask, so the memo
        pays for both once per entry."""
        outcomes: List[Outcome] = []
        # A macro-step starting at a pure-local op is the deterministic
        # local chain itself: no promise branching at its head either
        # (deferral is sound for the same reason it is mid-chain).
        head_local = not head.local.done and isinstance(
            next_op(program, head.local), _PURE_LOCAL
        )
        for event, new_ts, new_mem in thread_steps(
            program, head, mem, config, allow_promises=not head_local
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
            new_ts, new_mem = local_suffix(new_ts, new_mem)
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
        live = index.live_locations(ts) if index.drops_locations else 0
        return (label, ts, mem, live)

    #: ``(thread state, memory) -> macro_outcomes(...)`` for this build
    #: only: a resumed build refills it, checkpoints never carry it.
    memo: Dict[Tuple[ThreadState, object], List[Outcome]] = {}
    #: ``(thread state, its live slice of the memory, SC view) ->
    #: _record_deltas(...)``: the second key, tried when ``memo`` misses
    #: (see "Macro-step memo").
    slice_memo: Dict[tuple, List[tuple]] = {}

    def outcomes_of(head: ThreadState, mem, head_live: int) -> List[Outcome]:
        """``macro_outcomes(head, mem)``, from either memo if it can;
        ``head_live`` is ``head``'s live location mask."""
        pair = (head, mem)
        outcomes = memo.get(pair)
        if outcomes is not None:
            stats.memo_hits += 1
            return outcomes
        if not index.drops_locations or head_live == index.universe:
            outcomes = memo[pair] = macro_outcomes(head, mem)
            return outcomes
        names = index.locations_of(head_live)
        key = (head, tuple(mem.per_loc(name) for name in names), mem.sc_view)
        recorded = slice_memo.get(key)
        if recorded is not None:
            stats.memo_hits += 1
            outcomes = memo[pair] = [
                (label, new_ts, _apply_deltas(mem, deltas, sc_view), live)
                for label, new_ts, deltas, sc_view, live in recorded
            ]
            return outcomes
        outcomes = memo[pair] = macro_outcomes(head, mem)
        recorded = _record_deltas(mem, outcomes, frozenset(names))
        if recorded is not None:
            slice_memo[key] = recorded
        return outcomes

    def execute(node: _Node, tid: int) -> List[int]:
        state = explorer.states[node.idx]
        succs: List[int] = []
        seen: Set[int] = set()
        pool = state.pool
        head = pool[tid]
        head_live = index.live_locations(head) if index.drops_locations else 0
        others = None
        for label, new_ts, new_mem, new_live in outcomes_of(head, state.mem, head_live):
            new_pool = update_pool(pool, tid, new_ts)
            # A location dies only on the step of the last thread that
            # could access it: usually nothing dies and this costs one
            # mask test.
            gone = head_live & ~new_live
            if gone:
                if others is None:
                    others = 0
                    for other, ts in enumerate(pool):
                        if other != tid:
                            others |= index.live_locations(ts)
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
            key = (node.idx, label, succ_idx)
            if key not in edge_seen:
                edge_seen.add(key)
                explorer.edges[node.idx].append((label, succ_idx))
            if succ_idx not in seen:
                seen.add(succ_idx)
                succs.append(succ_idx)
        return succs

    if not stack:
        initial = explorer.states[0]
        normal = index.initial_state(initial)
        if normal is not initial:
            del explorer._index[initial]
            explorer._index[normal] = 0
            explorer.states[0] = normal
        push(0, frozenset())

    next_checkpoint = len(explorer.states) + checkpoint_interval
    while stack:
        if meter is not None:
            try:
                meter.tick(
                    len(explorer.states),
                    sample=explorer.states[-1] if explorer.states else None,
                )
            except BudgetExhausted as exc:
                explorer.exhaustive = False
                explorer.stop_reason = exc.reason
                return
        if checkpoint_path and len(explorer.states) >= next_checkpoint:
            from repro.robust.checkpoint import save_checkpoint

            save_checkpoint(explorer.snapshot(), checkpoint_path)
            next_checkpoint = len(explorer.states) + checkpoint_interval

        node = stack[-1]
        if node.queue:
            succ = node.queue.pop()
            target = on_stack.get(succ)
            if target is not None:
                # Back edge: cycle proviso — fully expand the cycle target
                # so no transition is ignored around the loop.
                if not target.full:
                    target.full = True
                    target.sleep = frozenset()
                    target.backtrack = set(target.enabled)
                    stats.full_expansions += 1
                continue
            records = visited.get(succ)
            if records is not None and any(s <= node.child_sleep for s in records):
                # A previous exploration with a smaller sleep set subsumes
                # this visit; replay its transition summary for the race
                # clause and skip the subtree.
                stats.sleep_skips += 1
                summ = summaries.get(succ, {})
                for tid, fp in summ.items():
                    _race_clause(stack, tid, fp, stats)
                _merge_summary(node.summary, summ)
                continue
            push(succ, node.child_sleep, node.child_hint)
            continue

        if node.chosen is not None:
            node.done.add(node.chosen)
            _merge_fp(node.summary, node.chosen, node.fp[node.chosen])
            node.chosen = None

        nxt = None
        for tid in sorted(node.backtrack):
            if tid not in node.done and tid not in node.sleep:
                nxt = tid
                break
        if nxt is None:
            stack.pop()
            del on_stack[node.idx]
            visited.setdefault(node.idx, []).append(node.sleep)
            _merge_summary(summaries.setdefault(node.idx, {}), node.summary)
            if stack:
                _merge_summary(stack[-1].summary, node.summary)
            continue

        node.chosen = nxt
        stats.transitions += 1
        node.queue = execute(node, nxt)
        script = node.scripts.get(nxt)
        if script:
            node.child_hint = script
        elif node.hint and node.hint[0] == nxt:
            node.child_hint = node.hint[1:]
        else:
            node.child_hint = ()
        chosen_fp = node.fp[nxt]
        node.child_sleep = frozenset(
            tid
            for tid in (node.sleep | node.done)
            if tid != nxt
            and tid in node.fp
            and not dependent(node.fp[tid], chosen_fp)
        )

    explorer._dpor_state = None
