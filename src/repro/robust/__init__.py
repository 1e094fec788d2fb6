"""Resource-governed execution layer for the verification pipeline.

The exhaustive explorations behind every checked theorem are exponential
and can diverge on small inputs; this package makes the pipeline survive
them:

* :mod:`repro.robust.budget` — composable :class:`Budget` limits
  (deadline, state cap, memory ceiling) with cooperative cancellation
  (:class:`BudgetExhausted`);
* :mod:`repro.robust.confidence` — the ``PROVED | BOUNDED | SAMPLED``
  verdict-confidence taxonomy and the CLI exit-code contract;
* :mod:`repro.robust.checkpoint` — serialize/resume BFS frontiers so
  long explorations survive interruption;
* :mod:`repro.robust.isolation` — the governed fork worker behind the
  parallel sweep and the service supervisor (imported lazily).

The degradation ladder itself lives in the job layer
(:data:`repro.jobs.LADDER`).  Only the leaf modules (budget, confidence,
checkpoint) are imported eagerly; the other symbols resolve on first
attribute access so that lower layers (``repro.semantics``) can import
this package without a cycle.
"""

from repro.robust.budget import (
    Budget,
    BudgetExhausted,
    BudgetMeter,
    REASON_DEADLINE,
    REASON_MEMORY,
    REASON_STATES,
)
from repro.robust.checkpoint import (
    CheckpointError,
    ExplorationCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.robust.confidence import Confidence, derive_confidence, exit_code

_LAZY = {
    "RetryPolicy": "repro.robust.retry",
    "ChaosError": "repro.robust.chaos",
    "ChaosInjector": "repro.robust.chaos",
    "FaultRule": "repro.robust.chaos",
    "chaos_rules": "repro.robust.chaos",
    "fault_point": "repro.robust.chaos",
    "ForkWorker": "repro.robust.isolation",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Budget",
    "BudgetExhausted",
    "BudgetMeter",
    "REASON_DEADLINE",
    "REASON_MEMORY",
    "REASON_STATES",
    "CheckpointError",
    "ExplorationCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "Confidence",
    "derive_confidence",
    "exit_code",
] + sorted(_LAZY)
