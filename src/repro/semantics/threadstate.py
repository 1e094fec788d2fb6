"""Thread-local states (paper Fig. 8: ``LocalState σ``, ``ThrdState TS``).

A :class:`LocalState` is the purely sequential part of a thread: which
function/block/offset it is executing, its register file, and its call
stack.  A :class:`ThreadState` bundles the local state with the PS2.1 view
``V`` and promise set ``P``; we additionally carry the release/acquire fence
views of the full PS2.1 thread-view structure (``vrel``, ``vacq``), which the
paper elides together with fences (footnote 1).

Everything is an immutable ``__slots__`` struct with an in-process hash
sealed at construction (:mod:`repro.perf.intern`).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, Union

from repro.lang.syntax import Instr, Program, Terminator
from repro.lang.values import Int32
from repro.memory.memory import Memory
from repro.memory.timemap import BOTTOM_VIEW, View
from repro.memory.timestamps import Timestamp
from repro.perf.intern import HashConsed, intern_view, seal


def _reject_unknown(state, changes: Dict[str, object]) -> None:
    """Raise ``TypeError`` for a ``replace`` keyword that names no field of
    ``state``, as re-running the constructor would."""
    if not changes.keys() <= state._field_set:
        unknown = ", ".join(sorted(changes.keys() - state._field_set))
        raise TypeError(f"{type(state).__name__} has no field {unknown}")


class LocalState(HashConsed):
    """The sequential control state ``σ`` of one thread.

    ``stack`` holds ``(function, return_label)`` frames for pending calls.
    ``done`` marks a thread that executed ``return`` with an empty stack.
    """

    __slots__ = ("func", "label", "offset", "regs", "stack", "done")

    _fields = ("func", "label", "offset", "regs", "stack", "done")
    _field_set = frozenset(_fields)

    def __init__(
        self,
        func: str,
        label: str,
        offset: int,
        regs: Tuple[Tuple[str, Int32], ...] = (),
        stack: Tuple[Tuple[str, str], ...] = (),
        done: bool = False,
    ) -> None:
        cleaned = tuple(
            sorted((name, Int32(value)) for name, value in dict(regs).items() if value != 0)
        )
        self._set(func, label, offset, cleaned, stack, done)

    def _set(
        self,
        func: str,
        label: str,
        offset: int,
        regs: Tuple[Tuple[str, Int32], ...],
        stack: Tuple[Tuple[str, str], ...],
        done: bool,
    ) -> None:
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "done", done)
        seal(self, ("Local", func, label, offset, regs, stack, done))

    @classmethod
    def _make(
        cls,
        func: str,
        label: str,
        offset: int,
        regs: Tuple[Tuple[str, Int32], ...],
        stack: Tuple[Tuple[str, str], ...],
        done: bool,
    ) -> "LocalState":
        """Field-level builder: ``regs`` must already be in the
        constructor's normal form (sorted by name, ``Int32`` values, no
        zeros), which every existing state's register tuple is."""
        local = object.__new__(cls)
        local._set(func, label, offset, regs, stack, done)
        return local

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not LocalState:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return (
            self.offset == other.offset
            and self.label == other.label
            and self.func == other.func
            and self.regs == other.regs
            and self.stack == other.stack
            and self.done == other.done
        )

    __hash__ = HashConsed.__hash__

    @property
    def reg_map(self) -> Dict[str, Int32]:
        """The register file as a plain dict (absent registers are 0)."""
        return dict(self.regs)

    def get_reg(self, name: str) -> Int32:
        """The register's value (0 if unset)."""
        for reg, value in self.regs:
            if reg == name:
                return value
        return Int32(0)

    def set_reg(self, name: str, value: Int32) -> "LocalState":
        """A copy with the register bound to ``value``."""
        value = Int32(value)
        regs = self.regs
        pos = 0
        while pos < len(regs) and regs[pos][0] < name:
            pos += 1
        rest = pos + 1 if pos < len(regs) and regs[pos][0] == name else pos
        entry = ((name, value),) if value != 0 else ()
        return LocalState._make(
            self.func,
            self.label,
            self.offset,
            regs[:pos] + entry + regs[rest:],
            self.stack,
            self.done,
        )

    def replace(self, **changes) -> "LocalState":
        """A copy with the given fields replaced; the register tuple is
        re-normalized only when ``regs`` is among them."""
        _reject_unknown(self, changes)
        if "regs" in changes:
            return super().replace(**changes)
        return LocalState._make(
            changes.get("func", self.func),
            changes.get("label", self.label),
            changes.get("offset", self.offset),
            self.regs,
            changes.get("stack", self.stack),
            changes.get("done", self.done),
        )

    def __str__(self) -> str:
        if self.done:
            return f"<{self.func}: done>"
        return f"<{self.func}:{self.label}+{self.offset}>"


def next_op(program: Program, local: LocalState) -> Optional[Union[Instr, Terminator]]:
    """``nxt(σ)`` — the next instruction or terminator, ``None`` if done.

    Used both by the step relation and by the write-write race detector
    (paper Fig. 11 inspects ``nxt(σ)``).
    """
    if local.done:
        return None
    block = program.function(local.func)[local.label]
    if local.offset < len(block.instrs):
        return block.instrs[local.offset]
    return block.term


_EMPTY_PROMISES = Memory(())


def _interned(view: View) -> View:
    # Duck-typed view stand-ins (the races API accepts any object with
    # tna/trlx) are neither internable nor hash-consed: skip them.
    return intern_view(view) if isinstance(view, View) else view


def _any_concrete(promises: Memory) -> bool:
    return any(item.is_concrete for item in promises)


class ThreadState(HashConsed):
    """``TS = (σ, V, P)`` plus the fence views of the full PS2.1 model.

    ``promises`` is a :class:`~repro.memory.memory.Memory` holding this
    thread's outstanding promise messages and reservations.
    ``promise_budget`` counts how many promise steps the thread may still
    take; it is part of the state so exploration stays finite (see
    :mod:`repro.semantics.promises`).

    Construction interns the three views (most thread states share
    ``V⊥`` or a handful of joined views) and precomputes the hash and
    ``has_promises``; :meth:`replace` and :meth:`with_local` redo only
    the part a changed field needs.
    """

    __slots__ = (
        "local", "view", "promises", "vrel", "vacq", "promise_budget", "has_promises"
    )

    _fields = ("local", "view", "promises", "vrel", "vacq", "promise_budget")
    _field_set = frozenset(_fields)

    #: Whether any *concrete* promise (not a mere reservation) remains;
    #: computed once at construction.
    has_promises: bool

    def __init__(
        self,
        local: LocalState,
        view: View = BOTTOM_VIEW,
        promises: Memory = _EMPTY_PROMISES,
        vrel: View = BOTTOM_VIEW,
        vacq: View = BOTTOM_VIEW,
        promise_budget: int = 0,
    ) -> None:
        self._set(
            local,
            _interned(view),
            promises,
            _interned(vrel),
            _interned(vacq),
            promise_budget,
            _any_concrete(promises),
        )

    def _set(
        self,
        local: LocalState,
        view: View,
        promises: Memory,
        vrel: View,
        vacq: View,
        promise_budget: int,
        has_promises: bool,
    ) -> None:
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "view", view)
        object.__setattr__(self, "promises", promises)
        object.__setattr__(self, "vrel", vrel)
        object.__setattr__(self, "vacq", vacq)
        object.__setattr__(self, "promise_budget", promise_budget)
        object.__setattr__(self, "has_promises", has_promises)
        seal(
            self,
            (
                "TS",
                local._hashcode,
                getattr(view, "_hashcode", 0),
                promises._hashcode,
                getattr(vrel, "_hashcode", 0),
                getattr(vacq, "_hashcode", 0),
                promise_budget,
            ),
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not ThreadState:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return (
            self.local == other.local
            and self.view == other.view
            and self.promises == other.promises
            and self.vrel == other.vrel
            and self.vacq == other.vacq
            and self.promise_budget == other.promise_budget
        )

    __hash__ = HashConsed.__hash__

    def replace(self, **changes) -> "ThreadState":
        """A copy with the given fields replaced.  Only a view that changed
        is re-interned, and ``has_promises`` is rescanned only when the
        promise set changed: the unchanged fields are already normal."""
        _reject_unknown(self, changes)
        view, vrel, vacq = self.view, self.vrel, self.vacq
        if "view" in changes and changes["view"] is not view:
            view = _interned(changes["view"])
        if "vrel" in changes and changes["vrel"] is not vrel:
            vrel = _interned(changes["vrel"])
        if "vacq" in changes and changes["vacq"] is not vacq:
            vacq = _interned(changes["vacq"])
        promises = changes.get("promises", self.promises)
        fresh = object.__new__(ThreadState)
        fresh._set(
            changes.get("local", self.local),
            view,
            promises,
            vrel,
            vacq,
            changes.get("promise_budget", self.promise_budget),
            self.has_promises if promises is self.promises else _any_concrete(promises),
        )
        return fresh

    def with_local(self, local: LocalState) -> "ThreadState":
        """A copy with the sequential state replaced."""
        fresh = object.__new__(ThreadState)
        fresh._set(
            local,
            self.view,
            self.promises,
            self.vrel,
            self.vacq,
            self.promise_budget,
            self.has_promises,
        )
        return fresh

    def with_view(self, view: View) -> "ThreadState":
        """A copy with the thread view replaced."""
        return self.replace(view=view)

    def collect_timestamps(self, into: Set[Timestamp]) -> None:
        """Add every timestamp in the views and promise set to ``into``."""
        for view in (self.view, self.vrel, self.vacq):
            if isinstance(view, View):
                view.collect_timestamps(into)
        self.promises.collect_timestamps(into)

    def remap_timestamps(self, mapping: Dict[Timestamp, Timestamp]) -> "ThreadState":
        """The thread state with every timestamp pushed through ``mapping``."""
        return ThreadState(
            self.local,
            self.view.remap_timestamps(mapping),
            self.promises.remap_timestamps(mapping),
            self.vrel.remap_timestamps(mapping),
            self.vacq.remap_timestamps(mapping),
            self.promise_budget,
        )

    def __str__(self) -> str:
        return f"TS({self.local}, V={self.view}, P={self.promises})"


def initial_thread_state(program: Program, func: str, promise_budget: int = 0) -> ThreadState:
    """``Init(π, f)`` — the initial thread state for a thread running ``func``."""
    heap = program.function(func)
    local = LocalState(func=func, label=heap.entry, offset=0)
    return ThreadState(local=local, promise_budget=promise_budget)


#: A thread pool ``TP ∈ Tid → ThrdState`` as a tuple indexed by thread id.
ThreadPool = Tuple[ThreadState, ...]


def update_pool(pool: ThreadPool, tid: int, state: ThreadState) -> ThreadPool:
    """``TP{t ↦ TS}`` — functional update of a thread pool."""
    return pool[:tid] + (state,) + pool[tid + 1:]
