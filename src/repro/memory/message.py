"""Messages and reservations (paper Fig. 8).

A concrete :class:`Message` ``⟨x: v@(f, t], V⟩`` records a write of value
``v`` to location ``x`` over the timestamp interval ``(f, t]`` with message
view ``V`` (nontrivial only for release writes).  A :class:`Reservation`
``⟨x: (f, t]⟩`` claims a timestamp interval without writing a value; threads
use reservations to protect intervals they plan to use, and the capped
memory is built out of them.

Both are immutable ``__slots__`` structs with an in-process hash sealed at
construction (:mod:`repro.perf.intern`) — memories hash as the sum of their
item hashes, so per-item hashes are computed exactly once.
"""

from __future__ import annotations

from typing import Dict, Set, Union

from repro.lang.values import Int32
from repro.memory.timemap import BOTTOM_VIEW, View
from repro.memory.timestamps import Timestamp
from repro.perf.intern import HashConsed, seal_summand


class Message(HashConsed):
    """A concrete write message ``⟨var: value@(frm, to], view⟩``.

    The "to"-timestamp identifies the message; the "from"-timestamp makes
    the interval, which exists to forbid two successful CAS operations from
    reading the same write (their intervals would overlap).  ``view`` is the
    message view: the writer's view for release writes, ``V⊥`` for
    non-atomic and relaxed writes.
    """

    __slots__ = ("var", "value", "frm", "to", "view")

    _fields = ("var", "value", "frm", "to", "view")

    def __init__(
        self,
        var: str,
        value: int,
        frm: Timestamp,
        to: Timestamp,
        view: View = BOTTOM_VIEW,
    ) -> None:
        value = Int32(value)
        if not (frm <= to):
            raise ValueError(f"bad interval ({frm}, {to}]")
        if frm == to and to != 0:
            raise ValueError("only the initialization message may have an empty interval")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "frm", frm)
        object.__setattr__(self, "to", to)
        object.__setattr__(self, "view", view)
        seal_summand(self, ("Msg", var, value, frm, to, view._hashcode))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Message:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return (
            self.var == other.var
            and self.value == other.value
            and self.frm == other.frm
            and self.to == other.to
            and self.view == other.view
        )

    __hash__ = HashConsed.__hash__

    @property
    def is_reservation(self) -> bool:
        return False

    @property
    def is_concrete(self) -> bool:
        return True

    def collect_timestamps(self, into: Set[Timestamp]) -> None:
        """Add the interval endpoints and message-view timestamps to ``into``."""
        into.add(self.frm)
        into.add(self.to)
        self.view.collect_timestamps(into)

    def remap_timestamps(self, mapping: Dict[Timestamp, Timestamp]) -> "Message":
        """The message with interval and view pushed through ``mapping``."""
        return Message(
            self.var,
            self.value,
            mapping[self.frm],
            mapping[self.to],
            self.view.remap_timestamps(mapping),
        )

    def __str__(self) -> str:
        return f"<{self.var}: {int(self.value)}@({self.frm}, {self.to}]>"


class Reservation(HashConsed):
    """A reservation ``⟨var: (frm, to]⟩`` — an interval claim, no value."""

    __slots__ = ("var", "frm", "to")

    _fields = ("var", "frm", "to")

    def __init__(self, var: str, frm: Timestamp, to: Timestamp) -> None:
        if not (frm < to):
            raise ValueError(f"bad reservation interval ({frm}, {to}]")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "frm", frm)
        object.__setattr__(self, "to", to)
        seal_summand(self, ("Rsv", var, frm, to))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Reservation:
            return NotImplemented
        if self._hashcode != other._hashcode:
            return False
        return self.var == other.var and self.frm == other.frm and self.to == other.to

    __hash__ = HashConsed.__hash__

    @property
    def is_reservation(self) -> bool:
        return True

    @property
    def is_concrete(self) -> bool:
        return False

    def collect_timestamps(self, into: Set[Timestamp]) -> None:
        """Add the interval endpoints to ``into``."""
        into.add(self.frm)
        into.add(self.to)

    def remap_timestamps(self, mapping: Dict[Timestamp, Timestamp]) -> "Reservation":
        """The reservation with its interval pushed through ``mapping``."""
        return Reservation(self.var, mapping[self.frm], mapping[self.to])

    def __str__(self) -> str:
        return f"<{self.var}: ({self.frm}, {self.to}]>"


#: A memory item is either a concrete message or a reservation.
MemoryItem = Union[Message, Reservation]


def init_message(var: str) -> Message:
    """The initialization message ``⟨x: 0@(0, 0], V⊥⟩``."""
    return Message(var, Int32(0), Timestamp(0), Timestamp(0), BOTTOM_VIEW)
