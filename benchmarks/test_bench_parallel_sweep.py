"""E-PERF: the parallel sweep engine, hash-consing, and the verdict cache.

Three measurements, each emitting a ``BENCH`` json line:

* **parallel sweep** — the litmus suite explored serially vs ``jobs=4``.
  Per-program behavior digests must be identical at any parallelism
  (asserted unconditionally).  The ≥2.5× speedup acceptance criterion is
  asserted only on machines that actually have ≥4 usable cores — on a
  1-core CI runner a 4-worker pool cannot physically beat serial, so
  there the assertion degrades to a sanity floor while the BENCH line
  still records the measured number.
* **warm cache** — a litmus-file sweep against a cold then warm
  persistent cache: the warm run must answer ≥90% of programs from the
  cache and beat the cold run's wall clock.
* **interning** — the visited-set probe cost with cached hashes vs the
  structural re-walk the pre-hash-consing code paid on every probe
  (rebuilding and hashing the state's deep field tuple — the same walk
  ``tuple.__hash__`` did over these states when nothing was cached).
"""

import glob
import json
import os
import time
from fractions import Fraction
from pathlib import Path

from benchmarks.conftest import report
from repro.litmus.library import LITMUS_SUITE
from repro.litmus.spec import run_spec_file
from repro.perf.pool import SweepJob, run_sweep
from repro.semantics.exploration import Explorer, behaviors
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig
from repro.semantics.version import behavior_digest
from repro.serve.store import ContentStore

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "litmus"


def _suite_config(test) -> SemanticsConfig:
    if not test.needs_promises:
        return SemanticsConfig()
    # Budget 1 keeps the sweep small enough to repeat serially and in
    # parallel; the characteristic promise-dependent outcomes survive.
    return SemanticsConfig(
        promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
    )


def _suite_case(name: str) -> dict:
    """Explore one suite member (module-level for the fork pool)."""
    test = LITMUS_SUITE[name]
    bset = behaviors(test.program, _suite_config(test))
    return {
        "digest": behavior_digest(bset),
        "outcomes": sorted(map(tuple, bset.outputs()), key=repr),
        "exhaustive": bset.exhaustive,
    }


def test_parallel_sweep_speedup_and_determinism():
    jobs = [SweepJob(name, _suite_case, (name,)) for name in sorted(LITMUS_SUITE)]

    serial = run_sweep(jobs, jobs_n=1)
    parallel = run_sweep(jobs, jobs_n=4)

    assert serial.ok and parallel.ok
    for left, right in zip(serial.outcomes, parallel.outcomes):
        assert left.name == right.name
        assert left.value["digest"] == right.value["digest"], left.name
        assert left.value["outcomes"] == right.value["outcomes"], left.name

    speedup = serial.elapsed_seconds / max(parallel.elapsed_seconds, 1e-9)
    cores = len(os.sched_getaffinity(0))
    rows = [
        ("programs", len(jobs)),
        ("serial secs", f"{serial.elapsed_seconds:.2f}"),
        ("jobs=4 secs", f"{parallel.elapsed_seconds:.2f}"),
        ("speedup", f"{speedup:.2f}x"),
        ("usable cores", cores),
        ("digests identical", "yes"),
    ]
    report("E-PERF/parallel", rows)
    print("BENCH " + json.dumps({
        "experiment": "parallel-sweep",
        "programs": len(jobs),
        "serial_secs": round(serial.elapsed_seconds, 3),
        "parallel_secs": round(parallel.elapsed_seconds, 3),
        "speedup": round(speedup, 2),
        "cores": cores,
        "digests_identical": True,
    }))

    if cores >= 4:
        assert speedup >= 2.5, f"only {speedup:.2f}x on {cores} cores"
    else:
        # A 4-worker pool on <4 cores cannot beat serial; just require the
        # pool overhead to stay sane.
        assert speedup > 0.2, f"pool overhead pathological: {speedup:.2f}x"


def test_warm_cache_skips_reexploration(tmp_path):
    paths = sorted(glob.glob(str(EXAMPLES / "*")))
    assert len(paths) >= 10
    root = str(tmp_path / "cache")

    cold = ContentStore(root)
    started = time.perf_counter()
    for path in paths:
        run_spec_file(path, store=cold)
    cold_secs = time.perf_counter() - started

    warm = ContentStore(root)
    started = time.perf_counter()
    for path in paths:
        run_spec_file(path, store=warm)
    warm_secs = time.perf_counter() - started

    hit_rate = warm.hits / len(paths)
    rows = [
        ("programs", len(paths)),
        ("cold secs", f"{cold_secs:.2f}"),
        ("warm secs", f"{warm_secs:.2f}"),
        ("warm hit rate", f"{hit_rate:.0%}"),
        ("entries stored", cold.stores),
    ]
    report("E-PERF/cache", rows)
    print("BENCH " + json.dumps({
        "experiment": "warm-cache",
        "programs": len(paths),
        "cold_secs": round(cold_secs, 3),
        "warm_secs": round(warm_secs, 3),
        "hit_rate": round(hit_rate, 3),
    }))

    assert hit_rate >= 0.9, f"warm hit rate only {hit_rate:.0%}"
    assert warm_secs < cold_secs


def _deep_key(value):
    """The nested primitive tuple a plain dataclass hash walked per probe
    before hash-consing (Fractions kept as-is: their hash — a modular
    inverse — was the dominant leaf cost)."""
    if isinstance(value, (str, int, bool, float, Fraction)) or value is None:
        return value
    if isinstance(value, tuple):
        return tuple(_deep_key(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return tuple(
            _deep_key(getattr(value, name)) for name in value.__dataclass_fields__
        )
    return str(value)


def test_interning_cuts_probe_cost():
    test = LITMUS_SUITE["2+2W"]
    started = time.perf_counter()
    explorer = Explorer(test.program, SemanticsConfig()).build()
    build_secs = time.perf_counter() - started
    states = explorer.states
    assert len(states) > 1000

    rounds = 3
    started = time.perf_counter()
    for _ in range(rounds):
        for state in states:
            hash(state)  # cached: one attribute load
    cached_secs = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        for state in states:
            hash(_deep_key(state))  # the pre-hash-consing structural walk
    structural_secs = time.perf_counter() - started

    reduction = structural_secs / max(cached_secs, 1e-9)
    rows = [
        ("2+2W states", len(states)),
        ("Explorer.build secs", f"{build_secs:.2f}"),
        ("cached-hash probes secs", f"{cached_secs:.4f}"),
        ("structural-rehash secs", f"{structural_secs:.4f}"),
        ("probe cost reduction", f"{reduction:.0f}x"),
    ]
    report("E-PERF/interning", rows)
    print("BENCH " + json.dumps({
        "experiment": "interning",
        "states": len(states),
        "build_secs": round(build_secs, 3),
        "cached_probe_secs": round(cached_secs, 5),
        "structural_probe_secs": round(structural_secs, 5),
        "reduction": round(reduction, 1),
    }))

    assert cached_secs < structural_secs
