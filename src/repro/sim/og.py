"""Owicki–Gries-style invariant certification of a transformation.

The exhaustive checkers of :mod:`repro.sim` verify a transformation by
*exploring* the product of source and target.  This module verifies the
same invariants **statically**: the per-program-point annotation is not
hand-picked per test but re-derived from the sound dataflow analyses
(:mod:`repro.analysis.value`, :mod:`repro.analysis.availexpr`,
:mod:`repro.analysis.liveness`, :mod:`repro.opt.copyprop`), and each
source/target instruction pair becomes an *obligation* discharged from
those facts.  Interference freedom — the OG half — is discharged from the
interprocedural mod-ref summaries: the analyses consulted are exactly the
ones whose transfer functions already encode the paper's crossing
discipline (acquire reads kill availability, release writes barrier
liveness), so facts are stable under every step an environment thread can
take.

The obligations, per aligned program point, by declared profile:

* **equal** — identical instructions discharge trivially (``I_id``);
* **constants / availability / copy** — same-shape instructions whose
  expressions differ discharge when the value analysis folds them
  together, an ``("expr", r, e)`` availability fact equates them, or
  copy-chain resolution unifies their registers (``I_id``);
* **redundant-read** — a source na-load replaced by ``skip`` or a
  register copy discharges from a ``("load", r, x)`` availability fact
  (the read is re-performable, Sec. 7.2);
* **dead-code** — a source instruction replaced by ``skip`` discharges
  when the release-barrier liveness proves it dead (``I_dce``); an
  eliminated *store* additionally owes interference freedom: no other
  thread may na-write the location;
* **branch-decided** — a ``be`` folded to ``jmp`` discharges when the
  constants domain decides the condition;
* **permutation** (``I_reorder``) — a block whose instruction *multiset*
  is preserved discharges when the target order keeps every
  :func:`repro.static.crossing.must_preserve_order` pair of the source;
* **merge-rar / merge-forward / merge-waw / merge-fence** (``I_merge``)
  — offsets :func:`repro.static.crossing.explain_merges` verifies as
  adjacent Merge-lemma instances (shape plus access-mode side
  condition) discharge structurally;
* **store-forward** (``I_merge``) — a plain load rewritten to an
  expression discharges when the ``("stval", x, e)`` availability fact
  proves the thread's own latest write to ``x`` stored that value
  (mode-monotone expression equivalence via :func:`_expr_equiv`);
* **unused-read** (``I_unused``) — a plain load replaced by ``skip``
  discharges from deadness of its destination plus thread-modular
  interference freedom (no environment thread writes the location);
  acquire-or-stronger reads are refused outright — their view join is
  an event no deadness argument can remove.

Anything not discharged leaves the report ``not ok`` — the certifier
then falls back to exploration; this checker is deliberately incomplete
but must never discharge an unsound step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.availexpr import AvailFacts, available_analysis, stored_value
from repro.analysis.liveness import LiveSet, liveness_analysis
from repro.analysis.value import Env, eval_abstract, value_analysis
from repro.lang.syntax import (
    AccessMode,
    Assign,
    BasicBlock,
    Be,
    BinOp,
    Cas,
    Expr,
    Instr,
    Jmp,
    Load,
    Print,
    Program,
    Reg,
    Skip,
    Store,
    Terminator,
)
from repro.opt.constprop import entry_env_for, fold_expr
from repro.opt.copyprop import CopyFacts, copy_analysis, _resolve as copy_resolve
from repro.opt.dce import instruction_is_dead
from repro.static.absint.domains.modref import environment_writes
from repro.static.absint.engine import FixpointResult
from repro.static.crossing import (
    CrossingProfile,
    explain_merges,
    must_preserve_order,
)


@dataclass(frozen=True)
class Obligation:
    """One proof obligation at an aligned program point."""

    invariant: str  #: which invariant family it belongs to (I_id/I_dce/I_reorder)
    kind: str  #: the discharge rule applied (or attempted)
    function: str
    label: str
    offset: int  #: instruction index; ``-1`` marks a block/terminator obligation
    discharged: bool
    detail: str = ""

    @property
    def site(self) -> str:
        return f"{self.function}:{self.label}[{self.offset}]"

    def __str__(self) -> str:
        mark = "✓" if self.discharged else "✗"
        note = f" — {self.detail}" if self.detail else ""
        return f"{mark} {self.site} {self.invariant}/{self.kind}{note}"


@dataclass(frozen=True)
class OGReport:
    """The full obligation ledger of one source/target pair."""

    invariant: str
    obligations: Tuple[Obligation, ...] = ()

    @property
    def ok(self) -> bool:
        """All obligations discharged (vacuously true when none arose)."""
        return all(ob.discharged for ob in self.obligations)

    @property
    def undischarged(self) -> Tuple[Obligation, ...]:
        return tuple(ob for ob in self.obligations if not ob.discharged)

    def __str__(self) -> str:
        done = sum(1 for ob in self.obligations if ob.discharged)
        head = f"OG[{self.invariant}]: {done}/{len(self.obligations)} obligations discharged"
        lines = [str(ob) for ob in self.undischarged]
        return "\n".join([head] + lines)


@dataclass
class _FunctionFacts:
    """Lazily computed source-side analyses for one function.

    Each accessor lists one fact per program point of the block, the
    last being the point just before the terminator (``live_after``:
    one per instruction, the fact after it)."""

    program: Program
    func: str
    _value: Optional[FixpointResult[Env]] = field(default=None, repr=False)
    _avail: Optional[FixpointResult[AvailFacts]] = field(default=None, repr=False)
    _live: Optional[FixpointResult[LiveSet]] = field(default=None, repr=False)
    _copies: Optional[FixpointResult[CopyFacts]] = field(default=None, repr=False)

    def value_envs(self, label: str) -> List[Env]:
        if self._value is None:
            self._value = value_analysis(
                self.program, self.func, entry_env_for(self.program, self.func)
            )
        return self._value.before_instructions(label)

    def avail_before(self, label: str) -> List[AvailFacts]:
        if self._avail is None:
            self._avail = available_analysis(self.program, self.func, True)
        return self._avail.before_instructions(label)

    def live_after(self, label: str) -> List[LiveSet]:
        if self._live is None:
            self._live = liveness_analysis(self.program, self.func)
        return self._live.before_instructions(label)[1:]

    def copies_before(self, label: str) -> List[CopyFacts]:
        if self._copies is None:
            self._copies = copy_analysis(self.program, self.func)
        return self._copies.before_instructions(label)


def _copy_equiv(src: Expr, tgt: Expr, facts: CopyFacts) -> bool:
    """Structural equivalence modulo copy-chain resolution."""
    if facts is None:
        facts = frozenset()
    if isinstance(src, Reg) and isinstance(tgt, Reg):
        return copy_resolve(src.name, facts) == copy_resolve(tgt.name, facts)
    if isinstance(src, BinOp) and isinstance(tgt, BinOp):
        return (
            src.op == tgt.op
            and _copy_equiv(src.left, tgt.left, facts)
            and _copy_equiv(src.right, tgt.right, facts)
        )
    return src == tgt


def _expr_equiv(
    src_e: Expr,
    tgt_e: Expr,
    env: Env,
    avail: AvailFacts,
    copies: CopyFacts,
) -> Optional[str]:
    """A discharge reason when the two expressions provably evaluate
    equally at this point, else ``None``."""
    if src_e == tgt_e:
        return "syntactic"
    if not env.is_unreached:
        folded = fold_expr(src_e, env)
        if folded == tgt_e or folded == fold_expr(tgt_e, env):
            return "constants"
    if avail is not None and isinstance(tgt_e, Reg):
        if ("expr", tgt_e.name, src_e) in avail:
            return "availability"
    if _copy_equiv(src_e, tgt_e, copies):
        return "copy"
    return None


def _env_writes(program: Program, func: str) -> FrozenSet[str]:
    """Non-atomic locations the *other* threads may write while ``func``
    runs — the interference footprint of the OG side conditions (shared
    with the unused-read pass via
    :func:`repro.static.absint.domains.modref.environment_writes`)."""
    return environment_writes(program, func)


def _same_shape(src: Instr, tgt: Instr) -> bool:
    """Same instruction class with identical memory locations, modes and
    destination — only the *expressions* may differ."""
    if isinstance(src, Assign) and isinstance(tgt, Assign):
        return src.dst == tgt.dst
    if isinstance(src, Store) and isinstance(tgt, Store):
        return src.loc == tgt.loc and src.mode == tgt.mode
    if isinstance(src, Print) and isinstance(tgt, Print):
        return True
    if isinstance(src, Cas) and isinstance(tgt, Cas):
        return (
            src.dst == tgt.dst
            and src.loc == tgt.loc
            and src.mode_r == tgt.mode_r
            and src.mode_w == tgt.mode_w
        )
    return False

def _shape_exprs(src: Instr, tgt: Instr) -> List[Tuple[Expr, Expr]]:
    if isinstance(src, Assign) and isinstance(tgt, Assign):
        return [(src.expr, tgt.expr)]
    if isinstance(src, Store) and isinstance(tgt, Store):
        return [(src.expr, tgt.expr)]
    if isinstance(src, Print) and isinstance(tgt, Print):
        return [(src.expr, tgt.expr)]
    if isinstance(src, Cas) and isinstance(tgt, Cas):
        return [(src.expected, tgt.expected), (src.new, tgt.new)]
    raise TypeError(f"not same-shape: {src!r} / {tgt!r}")


def _check_permutation(
    invariant: str,
    func: str,
    label: str,
    src_block: BasicBlock,
    tgt_block: BasicBlock,
) -> Obligation:
    """The ``I_reorder`` rule: the target block is a dependence-preserving
    permutation of the source block (terminators already equal)."""
    src, tgt = list(src_block.instrs), list(tgt_block.instrs)
    # Greedy earliest-occurrence matching: position of each src index in tgt.
    used = [False] * len(tgt)
    position: List[Optional[int]] = []
    for instr in src:
        found = None
        for j, cand in enumerate(tgt):
            if not used[j] and cand == instr:
                found = j
                break
        if found is None:
            return Obligation(
                invariant, "permutation", func, label, -1, False,
                f"not a permutation: {instr} missing from target",
            )
        used[found] = True
        position.append(found)
    if not all(used):
        return Obligation(
            invariant, "permutation", func, label, -1, False,
            "not a permutation: target has extra instructions",
        )
    for i in range(len(src)):
        for j in range(i + 1, len(src)):
            if must_preserve_order(src[i], src[j]) and position[i] > position[j]:  # type: ignore[operator]
                return Obligation(
                    invariant, "permutation", func, label, -1, False,
                    f"dependent pair reordered: ({src[i]}; {src[j]})",
                )
    return Obligation(invariant, "permutation", func, label, -1, True)


def _check_terminator(
    invariant: str,
    func: str,
    label: str,
    src_t: Terminator,
    tgt_t: Terminator,
    env: Env,
) -> Optional[Obligation]:
    """``None`` when the terminators are identical; otherwise the
    obligation justifying (or failing) the rewrite."""
    if src_t == tgt_t:
        return None
    if isinstance(src_t, Be) and isinstance(tgt_t, Jmp) and not env.is_unreached:
        cond = eval_abstract(src_t.cond, env)
        if cond.is_const:
            taken = src_t.then_target if cond.value != 0 else src_t.else_target
            if tgt_t.target == taken:
                return Obligation(
                    invariant, "branch-decided", func, label, -1, True,
                    f"cond = {cond.value}",
                )
    if isinstance(src_t, Be) and isinstance(tgt_t, Be):
        if (src_t.then_target, src_t.else_target) == (tgt_t.then_target, tgt_t.else_target):
            if not env.is_unreached and fold_expr(src_t.cond, env) == tgt_t.cond:
                return Obligation(invariant, "branch-folded", func, label, -1, True)
    return Obligation(
        invariant, "terminator", func, label, -1, False,
        f"cannot justify {src_t} → {tgt_t}",
    )


def _check_instruction(
    invariant: str,
    profile: CrossingProfile,
    func: str,
    label: str,
    offset: int,
    src_i: Instr,
    tgt_i: Instr,
    env: Env,
    avail: AvailFacts,
    copies: CopyFacts,
    live_after: LiveSet,
    env_writes: FrozenSet[str],
) -> List[Obligation]:
    """Obligations for one aligned instruction pair (equal pairs excluded
    by the caller)."""
    # Redundant-read elimination: na-load dropped or turned into a copy.
    if isinstance(src_i, Load) and src_i.mode is AccessMode.NA and profile.may_eliminate_reads:
        if isinstance(tgt_i, Skip) and avail is not None and ("load", src_i.dst, src_i.loc) in avail:
            return [Obligation(invariant, "redundant-read", func, label, offset, True,
                               f"{src_i.dst} already holds {src_i.loc}")]
        if (
            isinstance(tgt_i, Assign)
            and tgt_i.dst == src_i.dst
            and isinstance(tgt_i.expr, Reg)
            and avail is not None
            and ("load", tgt_i.expr.name, src_i.loc) in avail
        ):
            return [Obligation(invariant, "redundant-read", func, label, offset, True,
                               f"{tgt_i.expr.name} holds {src_i.loc}")]
    # Store-to-load forwarding (I_merge): a plain load rewritten to the
    # value its thread's own latest write stored, justified by the
    # stored-value availability fact (acquire reads never forward — the
    # pass refuses them, and no stval fact can discharge the view join).
    if (
        profile.may_merge_accesses
        and isinstance(src_i, Load)
        and src_i.mode is AccessMode.NA
        and isinstance(tgt_i, Assign)
        and tgt_i.dst == src_i.dst
    ):
        stored = stored_value(avail, src_i.loc) if avail is not None else None
        if stored is not None:
            reason = _expr_equiv(stored, tgt_i.expr, env, avail, copies)
            if reason is not None:
                return [Obligation(invariant, "store-forward", func, label, offset, True,
                                   f"{src_i.loc} still holds {stored} ({reason})")]
        # A merge chain may route the value through a register that holds
        # an *available read* of the location (a RaR link whose head was
        # itself forwarded): the ``("load", r, x)`` fact is the same
        # re-performable-read justification CSE uses.
        if (
            isinstance(tgt_i.expr, Reg)
            and avail is not None
            and ("load", tgt_i.expr.name, src_i.loc) in avail
        ):
            return [Obligation(invariant, "store-forward", func, label, offset, True,
                               f"{tgt_i.expr.name} holds an available read of {src_i.loc}")]
        return [Obligation(invariant, "store-forward", func, label, offset, False,
                           f"no stored-value fact equates {src_i.loc} with {tgt_i.expr}")]
    # Unused plain read elimination (I_unused): a load whose destination
    # is dead may be dropped — deadness plus interference freedom, and
    # only for *plain* (na) reads (an acquire-or-stronger read performs
    # a view join no deadness argument removes).
    if (
        profile.may_eliminate_unused_reads
        and isinstance(src_i, Load)
        and isinstance(tgt_i, Skip)
    ):
        if src_i.mode is not AccessMode.NA:
            return [Obligation(invariant, "unused-read", func, label, offset, False,
                               f"refuse to drop non-plain read {src_i}")]
        dead = instruction_is_dead(src_i, live_after)
        obs = [Obligation(
            invariant, "unused-read", func, label, offset, dead,
            f"{src_i.dst} is dead" if dead else f"cannot prove {src_i.dst} dead",
        )]
        interference_free = src_i.loc not in env_writes
        obs.append(Obligation(
            invariant, "interference", func, label, offset, interference_free,
            f"no environment writer of {src_i.loc}" if interference_free
            else f"environment may write {src_i.loc}",
        ))
        return obs
    # Dead code elimination (I_dce): anything replaced by skip.
    if isinstance(tgt_i, Skip) and not isinstance(src_i, Skip):
        eliminates_write = isinstance(src_i, Store)
        allowed = (
            profile.may_eliminate_writes
            if eliminates_write
            else (profile.may_eliminate_reads or profile.may_eliminate_writes)
        )
        if allowed and instruction_is_dead(src_i, live_after):
            obs = [Obligation(invariant, "dead-code", func, label, offset, True,
                              f"{src_i} is dead")]
            if eliminates_write:
                loc = src_i.loc
                interference_free = loc not in env_writes
                obs.append(Obligation(
                    invariant, "interference", func, label, offset, interference_free,
                    f"no environment writer of {loc}" if interference_free
                    else f"environment may write {loc}",
                ))
            return obs
        return [Obligation(invariant, "dead-code", func, label, offset, False,
                           f"cannot prove {src_i} dead")]
    # Same-shape rewrites: discharge each expression difference.
    if _same_shape(src_i, tgt_i):
        obs = []
        for src_e, tgt_e in _shape_exprs(src_i, tgt_i):
            reason = _expr_equiv(src_e, tgt_e, env, avail, copies)
            obs.append(Obligation(
                invariant, reason or "expr-equiv", func, label, offset,
                reason is not None,
                f"{src_e} ≡ {tgt_e}" if reason else f"cannot equate {src_e} and {tgt_e}",
            ))
        return obs
    return [Obligation(invariant, "aligned", func, label, offset, False,
                       f"cannot justify {src_i} → {tgt_i}")]


def check_og(
    source: Program, target: Program, profile: CrossingProfile
) -> OGReport:
    """Statically discharge the invariant obligations of ``source → target``.

    Both programs must have the same functions; within a function, blocks
    are aligned by label and instructions by offset (the permutation rule
    of ``I_reorder`` relaxes the per-offset alignment when the profile
    declares ``may_reorder``).  CFG-restructuring passes are out of scope
    here — their block-level legality is the crossing oracle's job — so a
    shape mismatch simply yields an undischarged obligation.
    """
    invariant = f"I_{profile.invariant}"
    obligations: List[Obligation] = []
    src_funcs = dict(source.functions)
    tgt_funcs = dict(target.functions)
    if set(src_funcs) != set(tgt_funcs):
        return OGReport(invariant, (Obligation(
            invariant, "cfg-mismatch", "<program>", "", -1, False,
            "function sets differ",
        ),))

    for func, src_heap in sorted(src_funcs.items()):
        tgt_heap = tgt_funcs[func]
        facts = _FunctionFacts(source, func)
        src_labels = [label for label, _ in src_heap.blocks]
        tgt_labels = [label for label, _ in tgt_heap.blocks]
        if src_labels != tgt_labels or src_heap.entry != tgt_heap.entry:
            obligations.append(Obligation(
                invariant, "cfg-mismatch", func, "", -1, False,
                "block structure differs",
            ))
            continue
        env_writes = _env_writes(source, func)
        for label, src_block in src_heap.blocks:
            tgt_block = tgt_heap[label]
            if len(src_block.instrs) != len(tgt_block.instrs):
                obligations.append(Obligation(
                    invariant, "cfg-mismatch", func, label, -1, False,
                    "instruction counts differ",
                ))
                continue
            if src_block == tgt_block:
                continue  # identical block: nothing to discharge
            envs = facts.value_envs(label)
            term_ob = _check_terminator(
                invariant, func, label, src_block.term, tgt_block.term, envs[-1]
            )
            aligned: List[Obligation] = []
            merged: Dict[int, str] = {}
            if profile.may_merge_accesses:
                # Offsets the crossing oracle's merge explainer verifies
                # as adjacent Merge-lemma instances discharge structurally
                # (shape + access-mode side condition already checked).
                merged = explain_merges(src_block, tgt_block)
                for off in sorted(merged):
                    aligned.append(Obligation(
                        invariant, f"merge-{merged[off]}", func, label, off, True,
                        f"{src_block.instrs[off]} absorbed by an adjacent access",
                    ))
            block_facts = None  # computed lazily at the first difference
            for offset, (src_i, tgt_i) in enumerate(zip(src_block.instrs, tgt_block.instrs)):
                if src_i == tgt_i or offset in merged:
                    continue
                if block_facts is None:
                    block_facts = (
                        facts.avail_before(label),
                        facts.copies_before(label),
                        facts.live_after(label),
                    )
                avails, copies, lives = block_facts
                aligned.extend(_check_instruction(
                    invariant, profile, func, label, offset, src_i, tgt_i,
                    envs[offset], avails[offset], copies[offset], lives[offset],
                    env_writes,
                ))
            if (
                profile.may_reorder
                and any(not ob.discharged for ob in aligned)
                and src_block.term == tgt_block.term
            ):
                perm = _check_permutation(invariant, func, label, src_block, tgt_block)
                if perm.discharged:
                    aligned = [perm]
            obligations.extend(aligned)
            if term_ob is not None:
                obligations.append(term_ob)
    return OGReport(invariant, tuple(obligations))
