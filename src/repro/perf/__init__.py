"""Performance subsystem: parallel sweeps and hash-consing.

Two layers (``docs/performance.md``):

* :mod:`repro.perf.intern` — state hash-consing: precomputed structural
  hashes on the frozen state dataclasses plus intern tables for shared
  substructures (views, time maps, per-location message tuples), so the
  explorer's visited-set probes stop recomputing deep structural
  tuple hashes;
* :mod:`repro.perf.pool`   — the process-pool sweep scheduler behind
  ``--jobs N`` on the sweep commands, with deterministic aggregation and
  wall-clock budget propagation to workers.

The persistent verdict store behind ``--cache DIR`` is the service's
:class:`repro.serve.store.ContentStore`, keyed and filled by the job
layer (:mod:`repro.jobs`); the semantics version and digests it keys on
live in :mod:`repro.semantics.version`.

This package initializer re-exports lazily (PEP 562): :mod:`intern` is
imported by the core state modules, so eagerly importing :mod:`pool`
here would create an import cycle through the semantics.
"""

from __future__ import annotations

_SUBMODULE_EXPORTS = {
    "Interner": "repro.perf.intern",
    "interner_stats": "repro.perf.intern",
    "clear_interners": "repro.perf.intern",
    "SweepJob": "repro.perf.pool",
    "SweepOutcome": "repro.perf.pool",
    "SweepResult": "repro.perf.pool",
    "run_sweep": "repro.perf.pool",
}

__all__ = sorted(_SUBMODULE_EXPORTS)


def __getattr__(name: str):
    module_name = _SUBMODULE_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
