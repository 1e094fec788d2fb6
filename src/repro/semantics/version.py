"""What a stored verdict depends on: the semantics revision and config.

* :data:`SEMANTICS_VERSION` names the revision of the semantics code.
  Verdict keys (:func:`repro.jobs.verdict_key`) and exploration
  checkpoints record it, so a stored verdict or a saved frontier never
  outlives a change to the step relation, certification, or exploration.
  Readers look it up at call time (``version.SEMANTICS_VERSION``), so a
  test can patch this one attribute.
* :func:`config_digest` digests every semantics-affecting knob of a
  :class:`~repro.semantics.thread.SemanticsConfig`.
* :func:`behavior_digest` digests the observable content of a behavior
  set, so explorations run in different processes compare by one string.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Bump when the semantics/exploration code changes meaning.  Stored
#: verdicts from other versions are silent misses, never reused.
#: ``-2``: integer timestamps + sleep-set DPOR landed — behavior *sets*
#: are unchanged, but state counts and trace digests of truncated runs
#: are not comparable across the boundary, so ``-1`` entries must miss.
#: ``-3``: source-set/wakeup-tree DPOR with certification-scoped promise
#: footprints; DPOR became the default for validate/races sweeps and its
#: reduced graphs (state counts, truncated-run digests) differ from the
#: sleep-set-only core, so ``-2`` entries must miss.
#: ``-4``: DPOR keys states by their future — ``cur`` is always 0 and
#: finished promise-free threads are retired — so DPOR graphs (state
#: counts, truncated-run digests) differ while behavior *sets* do not;
#: ``-3`` entries must miss.
#: ``-5``: DPOR keys states by their *live* future — dead registers and
#: locations no live thread can access are dropped, and macro-steps are
#: memoized per live memory slice — so DPOR graphs differ again while
#: behavior *sets* do not; ``-4`` entries must miss.
#: ``-6``: DPOR expands persistent sets over each state's live future
#: instead of source sets, so DPOR graphs and the checkpoint payload
#: differ; a reserve step no longer stacks on a reservation; and litmus
#: jobs run under DPOR, so their verdict keys change; ``-5`` entries
#: must miss.
#: ``-7``: DPOR offers promises only where they can matter — per-position
#: candidates from the static fulfill map, a budget no promise can spend
#: dropped from the stored thread state, and no promise on a location no
#: other live thread can still access — so DPOR graphs and checkpoints
#: differ while behavior *sets* do not; ``-6`` entries must miss.
SEMANTICS_VERSION = "ps21-repro-7"


def config_digest(config: Any) -> str:
    """Stable digest of every semantics-affecting config knob.

    The runtime ``budget`` is deliberately excluded: only exhaustive
    results are stored, and those are budget-independent.  The promise
    oracle contributes its class name and default budget — the two
    attributes that determine which promise steps exist.
    """
    oracle = config.promise_oracle
    parts = (
        type(oracle).__name__,
        oracle.default_budget,
        config.enable_reservations,
        config.gap_leaving_writes,
        config.certify_against_cap,
        config.por,
        config.certification_max_steps,
        config.max_states,
        config.max_outputs,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def behavior_digest(bset: Any) -> str:
    """Canonical SHA-256 of a :class:`BehaviorSet`'s observable content.

    Traces are serialized deterministically (each element as ``int`` or
    marker string, traces sorted), so two explorations of the same program
    — serial or parallel, fresh or resumed — digest identically iff they
    observed the same behaviors.
    """
    canon = sorted(
        (
            [int(e) if isinstance(e, int) else str(e) for e in trace]
            for trace in bset.traces
        ),
        # key=repr: traces mixing ints and marker strings (EVENT_DONE)
        # are not elementwise comparable.
        key=repr,
    )
    blob = json.dumps(
        {"exhaustive": bset.exhaustive, "traces": canon},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()
