"""Available load/expression equalities with the acquire-read kill
(paper Sec. 7.2: CSE and LICM may cross relaxed accesses and release
writes, but **not acquire reads**).

Facts (a *must* analysis — intersection at joins):

* ``("load", r, x)`` — register ``r`` holds the value of a non-atomic read
  of ``x`` that is still *re-performable*: the message it read remains
  readable because nothing since has raised the thread's non-atomic view
  of ``x``.  Replacing a later ``r' := x.na`` with ``r' := r`` is then
  redundant-read elimination, which is sound in PS even under read-write
  races (paper Sec. 2.5).
* ``("expr", r, e)`` — register ``r`` equals the pure register expression
  ``e`` (no memory involved).
* ``("stval", x, e)`` — this thread's *latest own write* to ``x`` stored
  ``e``, and pinning the next own read of ``x`` to that message is still
  a sound refinement: nothing since could have raised the thread's view
  of ``x`` past its own message (other threads cannot raise our view
  except through our own acquire operations and same-location reads,
  which kill the fact).  This is the store-to-load forwarding fact of
  the paper's RaW Merge lemma; forwarding targets must be reads of mode
  ``⊑ rlx``, which the *consumers* enforce.

What kills what, and why (the paper's crossing matrix):

===========================  =====================================
own na read of y             ``("stval", y, _)`` (the read may land
                             on a newer message, raising the view)
own na write to x            ``("load", _, x)`` (raises ``T_na(x)``);
                             replaces ``("stval", x, _)``
own rlx read of y            ``("stval", y, _)`` (same view-raising
                             nondeterminism); load facts survive
own rlx/rel write to x       replaces ``("stval", x, _)``; load facts
                             survive — crossing allowed
own rel write / rel fence    no load fact — a release publishes, it
                             does not acquire knowledge
own acq read / acq CAS /     every ``("load", ...)`` and
acq or sc fence              ``("stval", ...)`` fact — the join with
                             the message view may raise the view of
                             *any* location
own CAS on x                 ``("stval", x, _)`` (reads and may
                             rewrite ``x``; the write may fail, so no
                             new fact is generated)
redefinition of r            every fact mentioning ``r``
call                         everything (unknown callee)
===========================  =====================================
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple, cast

from repro.lang.syntax import (
    AccessMode,
    Assign,
    Be,
    Call,
    Cas,
    Expr,
    Fence,
    FenceKind,
    Instr,
    Jmp,
    Load,
    Print,
    Program,
    Reg,
    Return,
    Skip,
    Store,
    Terminator,
    expr_regs,
)
from repro.static.absint.domain import Direction, Domain
from repro.static.absint.engine import FixpointResult, solve

#: A fact: ("load", reg, loc), ("expr", reg, expr) or ("stval", loc, expr).
Fact = Tuple[str, str, object]

#: ``None`` is the top element (unreached); otherwise the fact set.
AvailFacts = Optional[FrozenSet[Fact]]


def _join(a: AvailFacts, b: AvailFacts) -> AvailFacts:
    """Must-analysis join: intersection, with ``None`` as identity."""
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _kill_reg(facts: FrozenSet[Fact], reg: str) -> FrozenSet[Fact]:
    """Remove facts invalidated by a redefinition of ``reg``."""
    keep: Set[Fact] = set()
    for fact in facts:
        kind, subject, payload = fact
        if kind != "stval" and subject == reg:
            continue  # the fact's register is clobbered (stval subjects are locations)
        if kind in ("expr", "stval") and reg in expr_regs(cast(Expr, payload)):
            continue
        keep.add(fact)
    return frozenset(keep)


def _kill_loads(facts: FrozenSet[Fact], loc: Optional[str] = None) -> FrozenSet[Fact]:
    """Remove load facts — all of them (acquire kill) or only ``loc``'s."""
    return frozenset(
        fact for fact in facts if fact[0] != "load" or (loc is not None and fact[2] != loc)
    )


def _kill_stval(facts: FrozenSet[Fact], loc: str) -> FrozenSet[Fact]:
    """Remove the stored-value fact for ``loc`` (overwritten, or its
    message may no longer be the thread's view frontier)."""
    return frozenset(
        fact for fact in facts if fact[0] != "stval" or fact[1] != loc
    )


def _kill_acquire(facts: FrozenSet[Fact]) -> FrozenSet[Fact]:
    """The acquire kill: every view-dependent fact — all load facts and
    all stored-value facts (the joined message view may raise the
    thread's view of any location)."""
    return frozenset(fact for fact in facts if fact[0] not in ("load", "stval"))


def transfer_instruction(
    instr: Instr, facts: AvailFacts, acquire_kills: bool = True
) -> AvailFacts:
    """Forward transfer of one instruction over the fact set.

    ``acquire_kills=False`` disables the acquire-read kill — this is the
    deliberately *unsound* analysis used to build the paper's naive LICM of
    Fig. 1 and reproduce its refinement failure (experiment E-FIG1).
    """
    if facts is None:
        return None
    if isinstance(instr, (Skip, Print)):
        return facts
    if isinstance(instr, Assign):
        out = _kill_reg(facts, instr.dst)
        if instr.dst not in expr_regs(instr.expr):
            out = out | {("expr", instr.dst, instr.expr)}
        return out
    if isinstance(instr, Load):
        out = _kill_stval(_kill_reg(facts, instr.dst), instr.loc)
        if instr.mode is AccessMode.NA:
            return out | {("load", instr.dst, instr.loc)}
        if instr.mode is AccessMode.ACQ and acquire_kills:
            return _kill_acquire(out)
        return out  # relaxed read: crossing allowed (load facts survive)
    if isinstance(instr, Store):
        out = _kill_stval(facts, instr.loc)
        out = out | {("stval", instr.loc, instr.expr)}
        if instr.mode is AccessMode.NA:
            out = _kill_loads(out, instr.loc)
            if isinstance(instr.expr, Reg):
                out = out | {("load", instr.expr.name, instr.loc)}
        return out  # relaxed or release write: load facts survive
    if isinstance(instr, Cas):
        out = _kill_stval(_kill_reg(facts, instr.dst), instr.loc)
        if instr.mode_r is AccessMode.ACQ and acquire_kills:
            out = _kill_acquire(out)
        return out
    if isinstance(instr, Fence):
        if instr.kind in (FenceKind.ACQ, FenceKind.SC) and acquire_kills:
            return _kill_acquire(facts)
        return facts
    raise TypeError(f"not an instruction: {instr!r}")


def transfer_terminator(term: Terminator, facts: AvailFacts) -> AvailFacts:
    """Forward transfer of a terminator (calls clobber everything)."""
    if facts is None:
        return None
    if isinstance(term, (Jmp, Be, Return)):
        return facts
    if isinstance(term, Call):
        return frozenset()
    raise TypeError(f"not a terminator: {term!r}")


class AvailDomain(Domain[AvailFacts]):
    """The availability analysis as a forward domain (a must-analysis:
    ``None`` is the unreached element and joins intersect)."""

    name = "availability"
    direction = Direction.FORWARD

    def __init__(self, acquire_kills: bool = True) -> None:
        self.acquire_kills = acquire_kills

    def bottom(self) -> AvailFacts:
        return None

    def boundary(self) -> AvailFacts:
        return frozenset()

    def join(self, a: AvailFacts, b: AvailFacts) -> AvailFacts:
        return _join(a, b)

    def is_bottom(self, fact: AvailFacts) -> bool:
        return fact is None

    def transfer(self, instr: Instr, fact: AvailFacts) -> AvailFacts:
        return transfer_instruction(instr, fact, self.acquire_kills)

    def transfer_terminator(self, term: Terminator, fact: AvailFacts) -> AvailFacts:
        return transfer_terminator(term, fact)


def available_analysis(
    program: Program, func: str, acquire_kills: bool = True
) -> FixpointResult[AvailFacts]:
    """Run the availability analysis on one function."""
    return solve(program.function(func), AvailDomain(acquire_kills))


def lookup_load(facts: AvailFacts, loc: str, exclude: str) -> Optional[str]:
    """A register (≠ ``exclude``) known to hold a readable value of ``loc``."""
    if facts is None:
        return None
    for kind, reg, payload in sorted(facts, key=str):
        if kind == "load" and payload == loc and reg != exclude:
            return reg
    return None


def lookup_expr(facts: AvailFacts, expr: Expr, exclude: str) -> Optional[str]:
    """A register (≠ ``exclude``) known to equal the pure expression."""
    if facts is None:
        return None
    for kind, reg, payload in sorted(facts, key=str):
        if kind == "expr" and payload == expr and reg != exclude:
            return reg
    return None


def stored_value(facts: AvailFacts, loc: str) -> Optional[Expr]:
    """The expression this thread's latest own write provably stored to
    ``loc`` — the store-to-load forwarding source — or ``None``.

    At most one ``stval`` fact per location survives the transfer (a new
    write replaces the old fact), so the first hit is the answer.
    """
    if facts is None:
        return None
    for kind, subject, payload in sorted(facts, key=str):
        if kind == "stval" and subject == loc:
            return cast(Expr, payload)
    return None
