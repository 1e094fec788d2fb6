"""Dataflow analysis framework (CompCert-style; paper Sec. 7).

The paper's four optimizations are *analyses-based*: each runs a dataflow
analysis to a fixpoint and then applies a per-instruction transformation
justified by the analysis result.  Every analysis here is a
:class:`~repro.static.absint.domain.Domain` solved by the one fixpoint
engine, :func:`repro.static.absint.solve`, and returns its
:class:`~repro.static.absint.engine.FixpointResult`.  This package
provides:

* :mod:`repro.analysis.lattice` — the flat constant lattice;
* :mod:`repro.analysis.value` — constant-value analysis (for ConstProp);
* :mod:`repro.analysis.liveness` — liveness of registers and non-atomic
  locations with the paper's *release-write barrier* ("no variable is dead
  before a release write", Sec. 7.1) — the rule that makes DCE sound in
  PS2.1;
* :mod:`repro.analysis.availexpr` — available load/expression equalities
  with the paper's *acquire-read kill* (CSE/LICM may cross relaxed accesses
  and release writes but not acquire reads, Sec. 7.2);
* :mod:`repro.analysis.loops` — natural-loop analysis and loop-invariant
  load detection (for LInv/LICM).
"""

from repro.analysis.lattice import FlatValue
from repro.analysis.value import ConstEnv, value_analysis
from repro.analysis.liveness import LiveSet, LivenessDomain, liveness_analysis
from repro.analysis.availexpr import AvailDomain, AvailFacts, available_analysis
from repro.analysis.loops import LoopInfo, find_invariant_loads, loop_info

__all__ = [
    "AvailDomain",
    "AvailFacts",
    "ConstEnv",
    "FlatValue",
    "LiveSet",
    "LivenessDomain",
    "LoopInfo",
    "available_analysis",
    "find_invariant_loads",
    "liveness_analysis",
    "loop_info",
    "value_analysis",
]
