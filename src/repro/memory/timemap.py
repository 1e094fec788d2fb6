"""Time maps and thread views (paper Fig. 8).

A :class:`TimeMap` maps each variable to the timestamp of the most recent
write observed for it (``T ∈ Var → Time``, defaulting to 0).  A thread
:class:`View` bundles two time maps: ``tna`` governing non-atomic reads and
``trlx`` governing relaxed/acquire reads.

Both types are immutable, slotted and hashable — they appear inside machine
states that are memoized during exhaustive exploration.  Time maps are
stored sparsely: variables at timestamp 0 are not represented, so the
bottom map is the empty tuple regardless of the variable universe.

Hashing is the exploration hot path (every visited-set probe hashes whole
machine states), so both types precompute an in-process hash at
construction (:mod:`repro.perf.intern`).  A time map's hash is the
order-independent sum of its entry hashes, which lets ``set``/``bump``
compute the successor's hash as a *delta* (subtract the old entry's hash,
add the new one) instead of re-walking the map; a view mixes its two
component hashes.  Views intern their component time maps so equal maps
share identity.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Set, Tuple

from repro.memory.timestamps import TS_ZERO, Timestamp
from repro.perf.intern import (
    HASH_MASK,
    HashConsed,
    hash_mix,
    hash_pair,
    intern_timemap,
)

_TM_TAG = hash("TimeMap") & HASH_MASK
_VIEW_TAG = hash("View") & HASH_MASK


class TimeMap(HashConsed):
    """A sparse, immutable ``Var → Time`` map (absent vars are at 0)."""

    __slots__ = ("entries", "_hsum")

    _fields = ("entries",)

    def __init__(self, entries: Tuple[Tuple[str, Timestamp], ...] = ()) -> None:
        cleaned = tuple(
            sorted((var, t) for var, t in dict(entries).items() if t != TS_ZERO)
        )
        hsum = 0
        for var, t in cleaned:
            hsum += hash_pair(var, t)
        self._seal(cleaned, hsum & HASH_MASK)

    def _seal(self, cleaned: Tuple[Tuple[str, Timestamp], ...], hsum: int) -> None:
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_hsum", hsum)
        object.__setattr__(self, "_hashcode", hash_mix(_TM_TAG, hsum))

    @classmethod
    def _make(
        cls, cleaned: Tuple[Tuple[str, Timestamp], ...], hsum: int
    ) -> "TimeMap":
        """Fast path for internally produced (already normalized) entries."""
        timemap = object.__new__(cls)
        timemap._seal(cleaned, hsum)
        return timemap

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not TimeMap:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return self.entries == other.entries

    __hash__ = HashConsed.__hash__

    @staticmethod
    def of(mapping: Mapping[str, Timestamp]) -> "TimeMap":
        """Build a time map from a plain dict."""
        return TimeMap(tuple(mapping.items()))

    def get(self, var: str) -> Timestamp:
        """``T(x)`` — the recorded timestamp for ``var`` (0 if absent)."""
        for name, t in self.entries:
            if name == var:
                return t
        return TS_ZERO

    def set(self, var: str, t: Timestamp) -> "TimeMap":
        """A copy with ``var`` mapped to ``t`` (delta-hashed)."""
        old = self.get(var)
        if old == t:
            return self
        hsum = self._hsum
        if old != TS_ZERO:
            hsum -= hash_pair(var, old)
        if t != TS_ZERO:
            hsum += hash_pair(var, t)
        entry = (var, t)
        kept = tuple(e for e in self.entries if e[0] != var)
        if t == TS_ZERO:
            cleaned = kept
        else:
            pos = 0
            while pos < len(kept) and kept[pos] < entry:
                pos += 1
            cleaned = kept[:pos] + (entry,) + kept[pos:]
        return TimeMap._make(cleaned, hsum & HASH_MASK)

    def bump(self, var: str, t: Timestamp) -> "TimeMap":
        """A copy with ``var`` raised to at least ``t`` (no-op if already ≥)."""
        return self if self.get(var) >= t else self.set(var, t)

    def join(self, other: "TimeMap") -> "TimeMap":
        """Pointwise maximum ``T1 ⊔ T2``."""
        if self is other or not other.entries:
            return self
        if not self.entries:
            return other
        joined = self
        for var, t in other.entries:
            joined = joined.bump(var, t)
        return joined

    def leq(self, other: "TimeMap") -> bool:
        """Pointwise order ``T1 ≤ T2``."""
        return all(other.get(var) >= t for var, t in self.entries)

    def vars(self) -> Tuple[str, ...]:
        """Variables with a nonzero recorded timestamp."""
        return tuple(var for var, _ in self.entries)

    def collect_timestamps(self, into: Set[Timestamp]) -> None:
        """Add every timestamp in the map to ``into`` (renormalization)."""
        for _, t in self.entries:
            into.add(t)

    def remap_timestamps(self, mapping: Dict[Timestamp, Timestamp]) -> "TimeMap":
        """The map with every timestamp pushed through ``mapping``."""
        if not self.entries:
            return self
        return TimeMap(tuple((var, mapping[t]) for var, t in self.entries))

    def __iter__(self) -> Iterator[Tuple[str, Timestamp]]:
        return iter(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "{⊥}"
        inner = ", ".join(f"{var}@{t}" for var, t in self.entries)
        return "{" + inner + "}"


#: The bottom time map ``T0 = {x ↦ 0 | x ∈ Var}``.
BOTTOM_TIMEMAP = TimeMap()


class View(HashConsed):
    """A thread view ``V = (T_na, T_rlx)`` (paper Fig. 8).

    ``tna`` bounds non-atomic reads, ``trlx`` bounds relaxed and acquire
    reads.  The semantics maintains the invariant ``tna ≤ trlx`` for thread
    views (a non-atomic read may not travel further back than atomic
    knowledge allows); message views of release writes record the writer's
    full view.
    """

    __slots__ = ("tna", "trlx")

    _fields = ("tna", "trlx")

    def __init__(self, tna: TimeMap = BOTTOM_TIMEMAP, trlx: TimeMap = BOTTOM_TIMEMAP) -> None:
        tna = intern_timemap(tna)
        trlx = intern_timemap(trlx)
        object.__setattr__(self, "tna", tna)
        object.__setattr__(self, "trlx", trlx)
        object.__setattr__(
            self, "_hashcode", hash_mix(_VIEW_TAG, tna._hashcode, trlx._hashcode)
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not View:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return self.tna == other.tna and self.trlx == other.trlx

    __hash__ = HashConsed.__hash__

    def join(self, other: "View") -> "View":
        """``V1 ⊔ V2`` — pointwise join of both components."""
        return View(self.tna.join(other.tna), self.trlx.join(other.trlx))

    def bump_write(self, var: str, t: Timestamp) -> "View":
        """Record that this thread wrote ``var`` at ``t``: both components
        rise (the write is the thread's newest knowledge of ``var``)."""
        return View(self.tna.bump(var, t), self.trlx.bump(var, t))

    def bump_read_na(self, var: str, t: Timestamp) -> "View":
        """Record a non-atomic read of ``var`` at ``t``: only ``trlx`` rises
        (paper Sec. 3: '... or just ``T_rlx`` if ``or = na``').

        The read itself was *checked* against ``tna``; leaving ``tna``
        untouched is what makes consecutive racy non-atomic reads free to
        observe older messages, while raising ``trlx`` forbids later atomic
        reads from travelling behind an already-observed non-atomic read.
        """
        return View(self.tna, self.trlx.bump(var, t))

    def bump_read_atomic(self, var: str, t: Timestamp) -> "View":
        """Record a relaxed/acquire read of ``var`` at ``t``: both rise."""
        return View(self.tna.bump(var, t), self.trlx.bump(var, t))

    def leq(self, other: "View") -> bool:
        """Pointwise order on both components."""
        return self.tna.leq(other.tna) and self.trlx.leq(other.trlx)

    def collect_timestamps(self, into: Set[Timestamp]) -> None:
        """Add every timestamp in either component to ``into``."""
        self.tna.collect_timestamps(into)
        self.trlx.collect_timestamps(into)

    def remap_timestamps(self, mapping: Dict[Timestamp, Timestamp]) -> "View":
        """The view with every timestamp pushed through ``mapping``."""
        return View(
            self.tna.remap_timestamps(mapping), self.trlx.remap_timestamps(mapping)
        )

    def __str__(self) -> str:
        return f"(na:{self.tna}, rlx:{self.trlx})"


#: The bottom view ``V⊥ = (T0, T0)``.
BOTTOM_VIEW = View()


def view_of(mapping: Mapping[str, Timestamp]) -> View:
    """A view with both components equal to ``mapping`` — handy in tests."""
    timemap = TimeMap.of(mapping)
    return View(timemap, timemap)
