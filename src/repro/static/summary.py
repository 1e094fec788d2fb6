"""Per-thread access summaries on the abstract-interpretation engine.

Both static race detectors (:mod:`repro.static.wwraces`,
:mod:`repro.static.rwraces`) consume the same thread-modular facts: the
sites where a thread may non-atomically access memory, annotated with
what the thread may have *published* (stored nonzero to an atomic flag)
before reaching each site.  This module computes them by running the
ownership/publication domain
(:class:`~repro.static.absint.domains.locksets.AccessDomain`) over the
thread's entry function, with callee effects folded in through
:class:`~repro.static.absint.domains.modref.ModRef` summaries — so a
call no longer wholesale defeats the entry-function facts.

Precision ledger (all conservative):

* sites in *called* functions carry ``released = None`` — their
  position relative to publications is unknown (one summary per
  function, no calling context);
* a thread entry that is itself a call target (including recursion into
  the entry) drops entry-function facts too: the same site may execute
  under arbitrary register/publication context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lang.syntax import AccessMode, Load, Program, Store
from repro.static.absint import solve
from repro.static.absint.domains.locksets import AccessDomain, AccessFact
from repro.static.absint.domains.modref import ModRef, modref_summaries
from repro.static.absint.interproc import (
    called_functions,
    reachable_functions,
    reachable_labels,
)

#: Site kinds.
READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class AccessSite:
    """One static non-atomic access occurrence of a thread.

    ``released`` is the set of flags possibly published before this
    point (``None`` when unavailable — the site sits in a called
    function, or the entry function is itself re-enterable by call).
    """

    loc: str
    func: str
    label: str
    index: int
    kind: str = WRITE
    released: Optional[FrozenSet[str]] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.loc} @ {self.func}:{self.label}+{self.index}"


@dataclass(frozen=True)
class ThreadAccessSummary:
    """The per-thread result of the ownership/publication analysis."""

    tid: int
    entry: str
    functions: Tuple[str, ...]
    has_calls: bool
    writes: Tuple[AccessSite, ...]
    reads: Tuple[AccessSite, ...] = ()

    def write_locs(self) -> FrozenSet[str]:
        """Non-atomic locations this thread may write."""
        return frozenset(site.loc for site in self.writes)

    def read_locs(self) -> FrozenSet[str]:
        """Non-atomic locations this thread may read."""
        return frozenset(site.loc for site in self.reads)


def build_access_summary(program: Program, tid: int) -> ThreadAccessSummary:
    """Summarize thread ``tid``'s non-atomic accesses and their
    publication contexts."""
    entry = program.threads[tid]
    functions = reachable_functions(program, entry)
    has_calls = any(called_functions(program, func) for func in functions)
    # Entry-function facts are per-execution-of-the-thread: they are
    # invalid if the entry can also be *entered via call* (then a site
    # in it runs under an unknown context).
    entry_called = any(
        entry in called_functions(program, func) for func in functions
    )
    modref = modref_summaries(program, functions)

    facts = None
    if not entry_called:
        facts = solve(program.function(entry), AccessDomain(modref))

    writes: List[AccessSite] = []
    reads: List[AccessSite] = []
    for func in functions:
        heap = program.function(func)
        reach = reachable_labels(heap)
        for label, block in heap.blocks:
            if label not in reach:
                continue
            points: Optional[List[AccessFact]] = None
            if func == entry and facts is not None:
                points = facts.before_instructions(label)
            for index, instr in enumerate(block.instrs):
                released: Optional[FrozenSet[str]] = None
                if points is not None and not points[index].is_unreached:
                    released = points[index].published
                if isinstance(instr, Store) and instr.mode is AccessMode.NA:
                    writes.append(
                        AccessSite(instr.loc, func, label, index, WRITE, released)
                    )
                elif isinstance(instr, Load) and instr.mode is AccessMode.NA:
                    reads.append(
                        AccessSite(instr.loc, func, label, index, READ, released)
                    )
    return ThreadAccessSummary(
        tid, entry, functions, has_calls, tuple(writes), tuple(reads)
    )


def build_access_summaries(program: Program) -> Tuple[ThreadAccessSummary, ...]:
    """One summary per thread."""
    return tuple(
        build_access_summary(program, tid) for tid in range(len(program.threads))
    )


def summaries_modref(program: Program) -> Dict[str, ModRef]:
    """Mod-ref summaries for every function of ``program`` (used by
    clients that need whole-program effect totals)."""
    return modref_summaries(program, tuple(name for name, _ in program.functions))
