"""The flat constant lattice of the value analysis.

:class:`FlatValue` is the classic flat lattice ``⊥ ⊑ const(v) ⊑ ⊤`` used
by the value analysis behind ConstProp.  The other analyses carry
their lattice operations in their
:class:`~repro.static.absint.domain.Domain` classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang.values import Int32


@dataclass(frozen=True)
class FlatValue:
    """``⊥`` (undefined / unreachable), a known constant, or ``⊤`` (unknown).

    Encoded by ``kind`` in {"bot", "const", "top"}; ``value`` is only
    meaningful for constants.
    """

    kind: str
    value: Optional[Int32] = None

    def __post_init__(self) -> None:
        if self.kind not in ("bot", "const", "top"):
            raise ValueError(f"bad FlatValue kind {self.kind!r}")
        if self.kind == "const" and self.value is None:
            raise ValueError("const FlatValue needs a value")
        if self.value is not None:
            object.__setattr__(self, "value", Int32(self.value))

    @property
    def is_const(self) -> bool:
        return self.kind == "const"

    @property
    def is_top(self) -> bool:
        return self.kind == "top"

    @property
    def is_bot(self) -> bool:
        return self.kind == "bot"

    def __str__(self) -> str:
        if self.kind == "const":
            return f"#{int(self.value)}"
        return "⊥" if self.kind == "bot" else "⊤"


FLAT_BOT = FlatValue("bot")
FLAT_TOP = FlatValue("top")


def flat_const(value: int) -> FlatValue:
    """The flat-lattice element for a known constant."""
    return FlatValue("const", Int32(value))


def flat_join(a: FlatValue, b: FlatValue) -> FlatValue:
    """Join in the flat lattice."""
    if a.is_bot:
        return b
    if b.is_bot:
        return a
    if a.is_const and b.is_const and a.value == b.value:
        return a
    return FLAT_TOP
