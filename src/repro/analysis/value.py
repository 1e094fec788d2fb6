"""Constant-value analysis for ConstProp (forward, flat lattice).

Each register is tracked in the flat lattice ``⊥ ⊑ #v ⊑ ⊤``.  Memory reads
of any mode map the destination to ``⊤`` — in a weak memory model the value
of a shared location is never statically known to a thread-local analysis
without a races-and-synchronization argument, and the paper's ConstProp
optimizes register computations only (memory accesses are left untouched,
making it a trace-preserving transformation in Ševčík's classification,
which Sec. 7.2 lists as supported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.analysis.lattice import (
    FLAT_BOT,
    FLAT_TOP,
    FlatValue,
    flat_const,
    flat_join,
)
from repro.lang.syntax import (
    Assign,
    BinOp,
    Call,
    Cas,
    Const,
    Expr,
    Instr,
    Load,
    Program,
    Reg,
    Terminator,
    eval_binop,
)

if TYPE_CHECKING:
    from repro.static.absint.engine import FixpointResult

#: Environment: register → flat value (absent registers are ``#0`` at
#: function entry — CSimpRTL registers are zero-initialized — and ``⊤``
#: after a boundary where their value is unknown).
ConstEnv = Optional[Tuple[Tuple[str, FlatValue], ...]]


def _env_get(env: Dict[str, FlatValue], reg: str, default: FlatValue) -> FlatValue:
    return env.get(reg, default)


@dataclass(frozen=True)
class Env:
    """An immutable register→FlatValue environment with a default.

    ``default`` is ``#0`` for the entry environment of a thread's first
    function (registers start at zero) and ``⊤`` after calls/returns.
    ``None`` entries denote the unreached (bottom) environment.
    """

    entries: Optional[Tuple[Tuple[str, FlatValue], ...]]
    default: FlatValue = FLAT_TOP

    @staticmethod
    def unreached() -> "Env":
        return Env(None)

    @staticmethod
    def initial() -> "Env":
        return Env((), flat_const(0))

    @property
    def is_unreached(self) -> bool:
        return self.entries is None

    def get(self, reg: str) -> FlatValue:
        """The abstract value of ``reg`` (⊥ when unreached)."""
        if self.entries is None:
            return FLAT_BOT
        for name, value in self.entries:
            if name == reg:
                return value
        return self.default

    def set(self, reg: str, value: FlatValue) -> "Env":
        """A copy with ``reg`` bound to ``value`` (no-op when unreached)."""
        if self.entries is None:
            return self
        items = dict(self.entries)
        items[reg] = value
        return Env(tuple(sorted(items.items())), self.default)

    def top_everything(self) -> "Env":
        """Everything unknown — after a call boundary."""
        if self.entries is None:
            return self
        return Env((), FLAT_TOP)

    def join(self, other: "Env") -> "Env":
        """Pointwise flat-lattice join of two environments."""
        if self.entries is None:
            return other
        if other.entries is None:
            return self
        regs = {name for name, _ in self.entries} | {name for name, _ in other.entries}
        default = flat_join(self.default, other.default)
        items = tuple(
            sorted((reg, flat_join(self.get(reg), other.get(reg))) for reg in regs)
        )
        # Drop entries equal to the default to keep the representation small.
        items = tuple((reg, val) for reg, val in items if val != default)
        return Env(items, default)


def eval_abstract(expr: Expr, env: Env) -> FlatValue:
    """Abstract evaluation of an expression in the flat lattice."""
    if isinstance(expr, Const):
        return flat_const(expr.value)
    if isinstance(expr, Reg):
        return env.get(expr.name)
    if isinstance(expr, BinOp):
        left = eval_abstract(expr.left, env)
        right = eval_abstract(expr.right, env)
        if left.is_bot or right.is_bot:
            return FLAT_BOT
        if left.is_const and right.is_const:
            return flat_const(eval_binop(expr.op, left.value, right.value))
        return FLAT_TOP
    raise TypeError(f"not an expression: {expr!r}")


def transfer_instruction(instr: Instr, env: Env) -> Env:
    """Forward transfer of one instruction over the constant environment."""
    if env.is_unreached:
        return env
    if isinstance(instr, Assign):
        return env.set(instr.dst, eval_abstract(instr.expr, env))
    if isinstance(instr, (Load, Cas)):
        return env.set(instr.dst, FLAT_TOP)
    return env  # Store / Print / Skip / Fence touch no registers


def transfer_terminator(term: Terminator, env: Env) -> Env:
    """Forward transfer of a terminator (calls clobber every register)."""
    if env.is_unreached:
        return env
    if isinstance(term, Call):
        # The callee shares the register file: everything becomes unknown.
        return env.top_everything()
    return env


def value_analysis(
    program: Program, func: str, initial: Optional[Env] = None
) -> FixpointResult[Env]:
    """Run the constant-value analysis on one function.

    ``initial`` defaults to the zero-initialized entry environment; pass
    ``Env((), FLAT_TOP)`` for functions that may be entered via ``call``
    with arbitrary register contents.  Functions that are both thread
    entries and call targets must use the ``⊤`` default, which
    :func:`repro.opt.constprop.entry_env_for` decides.

    The fixpoint runs on the shared abstract-interpretation engine
    (:mod:`repro.static.absint`); the lattice and transfers above are
    the domain.  Imported lazily — the constants domain module imports
    this one for them.
    """
    from repro.static.absint import solve
    from repro.static.absint.domains.constants import ConstantsDomain

    return solve(program.function(func), ConstantsDomain(initial))
