"""The PS2.1 memory: a set of messages and reservations (paper Fig. 8).

The memory keeps every historical write.  This module provides the
disjointness-checked immutable memory, *gap* enumeration (the free timestamp
intervals into which a new write may be placed), canonical interval
placement for new writes, and the **capped memory** construction used by
promise certification (paper Sec. 3, "Promise certification").

Canonical placement
-------------------

PS2.1 lets a write pick any unoccupied interval, which is an infinite choice
over the dense rationals.  Only the *relative order* of messages is ever
observable (reads compare timestamps against views; views only ever hold
timestamps of existing messages), so for exhaustive exploration it suffices
to enumerate one representative placement per distinguishable position:

* inside each free gap ``(lo, hi)``: the interval ``(lo, mid(lo, hi)]`` —
  note the *upper half* of the gap stays free, so a later write can still be
  placed either before or after this one inside the same original gap;
* past the end: ``(t_max, successor(t_max)]``.

This is the finite-branching substitution documented in DESIGN.md.

Timestamps are integers spaced ``GRANULE`` apart
(:mod:`repro.memory.timestamps`); a memory whose free gaps have shrunk
below ``MIN_GAP`` is flagged *tight* (``needs_renormalize``) so the machine
layer can renormalize the enclosing state before placements run dry.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.memory.message import MemoryItem, Message, Reservation, init_message
from repro.memory.timemap import BOTTOM_TIMEMAP, TimeMap
from repro.memory.timestamps import (
    MIN_GAP,
    TS_ZERO,
    Timestamp,
    midpoint,
    successor,
)
from repro.perf.intern import HASH_MASK, HashConsed, hash_mix, intern_items

_MEM_TAG = hash("Memory") & HASH_MASK


def _var_tight(items: Tuple[MemoryItem, ...]) -> bool:
    """Whether one location's (sorted) items leave a nearly-closed gap."""
    prev_to = TS_ZERO
    for m in items:
        if prev_to < m.frm < prev_to + MIN_GAP:
            return True
        if m.to > prev_to:
            prev_to = m.to
    return False


class Memory(HashConsed):
    """An immutable, hashable set of memory items with disjoint intervals.

    ``sc_view`` is the global SC time map of full PS2.1: SC fences join
    their thread's view with it and publish back (see
    ``repro.semantics.thread._fence_steps``).  It lives here because it is
    part of the *shared* state exactly like the message set; every
    structural operation below preserves it.

    Construction hash-conses: the sorted item tuple (and each per-location
    tuple) is interned so equal memories share storage and compare by
    identity.  The hash is the order-independent sum of the item hashes
    mixed with the SC view's hash, so the single-item operations
    (:meth:`add`, :meth:`try_add`, :meth:`remove`, :meth:`with_sc_view`)
    produce their successor's hash by *delta* instead of re-walking the
    whole item set.
    """

    __slots__ = ("items", "sc_view", "_by_var", "_isum", "_tight")

    _fields = ("items", "sc_view")

    def __init__(
        self,
        items: Tuple[MemoryItem, ...] = (),
        sc_view: Optional[TimeMap] = None,
    ) -> None:
        ordered = intern_items(tuple(sorted(items, key=lambda m: (m.var, m.to, m.frm))))
        if sc_view is None:
            sc_view = BOTTOM_TIMEMAP
        grouped: Dict[str, List[MemoryItem]] = {}
        isum = 0
        for item in ordered:
            grouped.setdefault(item.var, []).append(item)
            isum += item._hashcode
        by_var = {var: intern_items(tuple(group)) for var, group in grouped.items()}
        tight = any(_var_tight(group) for group in by_var.values())
        self._seal(ordered, sc_view, by_var, isum & HASH_MASK, tight)

    def _seal(
        self,
        ordered: Tuple[MemoryItem, ...],
        sc_view: TimeMap,
        by_var: Dict[str, Tuple[MemoryItem, ...]],
        isum: int,
        tight: bool,
    ) -> None:
        object.__setattr__(self, "items", ordered)
        object.__setattr__(self, "sc_view", sc_view)
        object.__setattr__(self, "_by_var", by_var)
        object.__setattr__(self, "_isum", isum)
        object.__setattr__(self, "_tight", tight)
        object.__setattr__(
            self, "_hashcode", hash_mix(_MEM_TAG, isum, sc_view._hashcode)
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Memory:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return self.items == other.items and self.sc_view == other.sc_view

    __hash__ = HashConsed.__hash__

    # -- construction --------------------------------------------------------

    @staticmethod
    def initial(locations: Sequence[str]) -> "Memory":
        """The initial memory ``M0 = {⟨x: 0@(0,0], V⊥⟩ | x ∈ locations}``."""
        return Memory(tuple(init_message(var) for var in sorted(set(locations))))

    def with_sc_view(self, sc_view: TimeMap) -> "Memory":
        """A copy with the global SC view replaced (SC fence steps)."""
        if sc_view == self.sc_view:
            return self
        fresh = object.__new__(Memory)
        fresh._seal(self.items, sc_view, self._by_var, self._isum, self._tight)
        return fresh

    # -- queries -------------------------------------------------------------

    def __contains__(self, item: MemoryItem) -> bool:
        return item in self.items

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[MemoryItem]:
        return iter(self.items)

    @property
    def needs_renormalize(self) -> bool:
        """Whether some free gap is too narrow for further placements."""
        return self._tight

    def per_loc(self, var: str) -> Tuple[MemoryItem, ...]:
        """All items for ``var``, sorted by "to"-timestamp (O(1): the
        per-location index is built once at construction)."""
        return self._by_var.get(var, ())

    def concrete(self, var: Optional[str] = None) -> Tuple[Message, ...]:
        """Concrete messages (optionally restricted to one location)."""
        items = self.items if var is None else self.per_loc(var)
        return tuple(m for m in items if isinstance(m, Message))

    def locations(self) -> Tuple[str, ...]:
        """All locations that have at least one item."""
        return tuple(sorted(self._by_var))

    def latest_ts(self, var: str) -> Timestamp:
        """The greatest "to"-timestamp among ``var``'s items (0 if none)."""
        items = self.per_loc(var)
        return items[-1].to if items else TS_ZERO

    def message_at(self, var: str, to: Timestamp) -> Optional[Message]:
        """The concrete message of ``var`` with the given "to"-timestamp."""
        for m in self.per_loc(var):
            if m.to == to and isinstance(m, Message):
                return m
        return None

    def readable(self, var: str, floor: Timestamp) -> Tuple[Message, ...]:
        """Concrete messages of ``var`` a thread with view-floor ``floor``
        may read (``to ≥ floor``)."""
        return tuple(m for m in self.concrete(var) if m.to >= floor)

    # -- interval arithmetic ---------------------------------------------------

    def _disjoint(self, item: MemoryItem) -> bool:
        """Whether ``item``'s interval is disjoint from all existing items of
        the same location.  Intervals are half-open ``(frm, to]``; the
        zero-length initialization interval ``(0, 0]`` never conflicts."""
        if item.frm == item.to:
            return all(not (m.frm == item.frm and m.to == item.to) for m in self.per_loc(item.var))
        for m in self.per_loc(item.var):
            if m.frm == m.to:
                continue
            if item.frm < m.to and m.frm < item.to:
                return False
        return True

    def _with_var_items(
        self, var: str, var_items: Tuple[MemoryItem, ...], isum: int
    ) -> "Memory":
        """Rebuild around one location's updated item tuple (delta hash)."""
        by_var = dict(self._by_var)
        if var_items:
            by_var[var] = intern_items(var_items)
        else:
            by_var.pop(var, None)
        # ``items`` is sorted by (var, to, frm), so this location's items
        # occupy one contiguous segment, after every group with a smaller
        # name — splice the new tuple over it (C-level slicing) instead of
        # regrouping every location.
        items = self.items
        lo = 0
        for name, group in self._by_var.items():
            if name < var:
                lo += len(group)
        hi = lo + len(self._by_var.get(var, ()))
        # A narrow gap elsewhere stays narrow; only this location's layout
        # changed, so tightness is the old flag joined with a local check.
        # (Renormalization rebuilds via __init__ and recomputes it exactly.)
        tight = self._tight or _var_tight(var_items)
        fresh = object.__new__(Memory)
        fresh._seal(
            intern_items(items[:lo] + var_items + items[hi:]),
            self.sc_view,
            by_var,
            isum & HASH_MASK,
            tight,
        )
        return fresh

    def _inserted(self, item: MemoryItem) -> "Memory":
        group = self._by_var.get(item.var, ())
        key = (item.to, item.frm)
        pos = 0
        while pos < len(group) and (group[pos].to, group[pos].frm) < key:
            pos += 1
        var_items = group[:pos] + (item,) + group[pos:]
        return self._with_var_items(item.var, var_items, self._isum + item._hashcode)

    def add(self, item: MemoryItem) -> "Memory":
        """A copy with ``item`` inserted; raises on interval overlap."""
        if not self._disjoint(item):
            raise ValueError(f"interval overlap inserting {item}")
        return self._inserted(item)

    def try_add(self, item: MemoryItem) -> Optional["Memory"]:
        """A copy with ``item`` inserted, or ``None`` on interval overlap."""
        if not self._disjoint(item):
            return None
        return self._inserted(item)

    def remove(self, item: MemoryItem) -> "Memory":
        """A copy with ``item`` removed; raises if absent (used by cancel)."""
        group = self._by_var.get(item.var, ())
        if item not in group:
            raise ValueError(f"cannot remove absent item {item}")
        remaining = list(group)
        remaining.remove(item)
        return self._with_var_items(
            item.var, tuple(remaining), self._isum - item._hashcode
        )

    def replace(self, old: MemoryItem, new: MemoryItem) -> "Memory":
        """Atomically swap ``old`` for ``new`` (used by promise lowering)."""
        return self.remove(old).add(new)

    def gaps(self, var: str) -> Tuple[Tuple[Timestamp, Timestamp], ...]:
        """The free open gaps ``(lo, hi)`` between ``var``'s intervals.

        Gaps before the first item and between consecutive items are
        returned; the unbounded region past the last item is *not* (callers
        use :meth:`latest_ts` + ``successor`` for appends).
        """
        out: List[Tuple[Timestamp, Timestamp]] = []
        prev_to = TS_ZERO
        for m in self.per_loc(var):
            if m.frm > prev_to:
                out.append((prev_to, m.frm))
            prev_to = max(prev_to, m.to)
        return tuple(out)

    def candidate_intervals(
        self, var: str, floor: Timestamp, leave_gaps: bool = False
    ) -> Tuple[Tuple[Timestamp, Timestamp], ...]:
        """Canonical ``(frm, to]`` placements for a new write to ``var`` by a
        thread whose relaxed view of ``var`` is ``floor``.

        PS2.1 requires ``to`` strictly above ``floor`` and the interval
        disjoint from existing items.  One representative is produced per
        free gap (its lower half), plus the append position.

        With ``leave_gaps`` a second representative per position is added
        whose "from" sits strictly above the gap's base, leaving an unused
        interval underneath.  Gap-leaving placements are observationally
        equivalent to the plain ones (only relative message order is
        visible), so ordinary exploration omits them; the simulation
        checker's *source* side needs them to establish ``I_dce``'s
        unused-interval condition (paper Sec. 7.1).
        """
        candidates: List[Tuple[Timestamp, Timestamp]] = []
        for lo, hi in self.gaps(var):
            to = midpoint(lo, hi)
            if to > floor:
                candidates.append((lo, to))
                if leave_gaps:
                    candidates.append((midpoint(lo, to), to))
        last = self.latest_ts(var)
        to = successor(last)
        if to > floor:
            candidates.append((last, to))
            if leave_gaps:
                candidates.append((midpoint(last, to), to))
        return tuple(candidates)

    def cas_interval(
        self, var: str, read_to: Timestamp
    ) -> Optional[Tuple[Timestamp, Timestamp]]:
        """The canonical placement for a CAS write that read the message with
        "to"-timestamp ``read_to``: the new interval must start exactly at
        ``read_to``.  ``None`` if that position is already occupied."""
        items = self.per_loc(var)
        following = [m for m in items if m.frm >= read_to and m.to > read_to]
        if not following:
            return (read_to, successor(read_to))
        nxt = min(following, key=lambda m: m.frm)
        if nxt.frm == read_to:
            return None
        return (read_to, midpoint(read_to, nxt.frm))

    # -- renormalization -------------------------------------------------------

    def collect_timestamps(self, into: Set[Timestamp]) -> None:
        """Add every timestamp occurring in this memory to ``into``."""
        for item in self.items:
            item.collect_timestamps(into)
        self.sc_view.collect_timestamps(into)

    def remap_timestamps(self, mapping: Dict[Timestamp, Timestamp]) -> "Memory":
        """The memory with every timestamp pushed through ``mapping``.

        ``mapping`` must be strictly monotone on the timestamps present
        (e.g. from :func:`repro.memory.timestamps.renormalize_map`), so
        disjointness, ordering and adjacency are preserved.
        """
        return Memory(
            tuple(item.remap_timestamps(mapping) for item in self.items),
            self.sc_view.remap_timestamps(mapping),
        )

    # -- capped memory ---------------------------------------------------------

    def cap(self, promises: "Memory") -> "Memory":
        """The capped memory ``M̂`` (paper Sec. 3).

        Two steps: (1) fill every gap between the timestamp intervals of the
        same location with reservations; (2) for every location insert the
        cap reservation ``⟨x: (t, t̂]⟩`` past the latest message.

        ``promises`` is the certifying thread's promise set: the paper's
        construction caps the *whole* memory, which includes the thread's
        own outstanding promises (they are in ``M`` already); the argument
        is accepted so alternative cap styles can exclude them in
        ablations — pass ``Memory(())`` for the paper's behavior.
        """
        # One pass: the reservations fill each location's gaps exactly and
        # sit past its end, so they are disjoint by construction and each
        # location's group is the merge of its items with them.
        by_var: Dict[str, Tuple[MemoryItem, ...]] = {}
        ordered: List[MemoryItem] = []
        isum = self._isum
        tight = self._tight
        for var in sorted(self._by_var):
            group = self._by_var[var]
            added = [
                Reservation(var, lo, hi)
                for lo, hi in self.gaps(var)
                if not any(p.var == var and p.frm <= lo and hi <= p.to for p in promises)
            ]
            last = group[-1].to
            added.append(Reservation(var, last, successor(last)))
            isum += sum(reservation._hashcode for reservation in added)
            var_items = intern_items(
                tuple(sorted(group + tuple(added), key=lambda m: (m.to, m.frm)))
            )
            by_var[var] = var_items
            ordered.extend(var_items)
            tight = tight or _var_tight(var_items)
        capped = object.__new__(Memory)
        capped._seal(
            intern_items(tuple(ordered)), self.sc_view, by_var, isum & HASH_MASK, tight
        )
        return capped

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.items) + "}"


def capped_memory(memory: Memory) -> Memory:
    """The paper's capped memory ``M̂`` of ``memory``."""
    return memory.cap(Memory(()))
