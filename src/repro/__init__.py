"""repro — an executable reproduction of *Verifying Optimizations of
Concurrent Programs in the Promising Semantics* (Zha, Liang, Feng;
PLDI 2022).

The library provides, as runnable Python:

* the **CSimpRTL** concurrent intermediate language (paper Fig. 7) with a
  parser, printer, CFG utilities and a builder API (:mod:`repro.lang`);
* the **PS2.1 promising semantics** — timestamped messages, views,
  promises, reservations, capped-memory certification — as an exhaustive
  interpreter (:mod:`repro.memory`, :mod:`repro.semantics`);
* the **non-preemptive semantics** of paper Sec. 4 and behavior-set
  equivalence checking (Thm. 4.1);
* **write-write race freedom** detectors for both machines (paper Sec. 5,
  Lemma 5.1) (:mod:`repro.races`);
* CompCert-style **dataflow analyses**, each a domain of the one
  abstract-interpretation fixpoint engine, and the paper's four verified
  optimizations — ConstProp, DCE, CSE, LICM — with the weak-memory
  crossing rules of Sec. 7 (:mod:`repro.analysis`,
  :mod:`repro.static.absint`, :mod:`repro.opt`);
* the **thread-local simulation** machinery of Sec. 6 — invariants,
  timestamp mappings, delayed write sets, a game-solving simulation
  checker — and a translation-validation pipeline (:mod:`repro.sim`);
* the paper's litmus programs and a random ww-RF program generator
  (:mod:`repro.litmus`).

Quickstart::

    from repro import parse_program, behaviors

    sb = parse_program('''
        atomics x, y;
        fn t1 { entry: x.rlx := 1; r1 := y.rlx; print(r1); return; }
        fn t2 { entry: y.rlx := 1; r2 := x.rlx; print(r2); return; }
        threads t1, t2;
    ''')
    print(sorted(behaviors(sb).outputs()))   # [(0,0), (0,1), (1,0), (1,1)]
"""

from repro.lang import (
    AccessMode,
    FunctionBuilder,
    Int32,
    Program,
    ProgramBuilder,
    format_program,
    parse_program,
)
from repro.semantics import (
    BehaviorSet,
    NoPromises,
    SemanticsConfig,
    SyntacticPromises,
    behaviors,
    np_behaviors,
)
from repro.races import rw_races, ww_nprf, ww_rf
from repro.opt import CSE, ConstProp, DCE, LICM, LInv, Optimizer, compose, naive_licm
from repro.sim import (
    check_equivalence,
    check_refinement,
    check_thread_simulation,
    dce_invariant,
    identity_invariant,
    validate_corpus,
    validate_optimizer,
)
from repro.sim.validate import verify_optimizer_by_simulation
from repro.csimp import format_csimp, lower_program, parse_csimp
from repro.fuzz import FuzzReport, fuzz_optimizer
from repro.litmus import LITMUS_SUITE, random_wwrf_program

__version__ = "1.0.0"

__all__ = [
    "AccessMode",
    "BehaviorSet",
    "CSE",
    "ConstProp",
    "DCE",
    "FunctionBuilder",
    "Int32",
    "LICM",
    "LITMUS_SUITE",
    "LInv",
    "NoPromises",
    "Optimizer",
    "Program",
    "ProgramBuilder",
    "SemanticsConfig",
    "SyntacticPromises",
    "behaviors",
    "check_equivalence",
    "check_refinement",
    "check_thread_simulation",
    "compose",
    "dce_invariant",
    "format_program",
    "FuzzReport",
    "format_csimp",
    "fuzz_optimizer",
    "identity_invariant",
    "lower_program",
    "naive_licm",
    "parse_csimp",
    "np_behaviors",
    "parse_program",
    "random_wwrf_program",
    "rw_races",
    "validate_corpus",
    "validate_optimizer",
    "verify_optimizer_by_simulation",
    "ww_nprf",
    "ww_rf",
]
