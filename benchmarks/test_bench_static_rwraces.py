"""E-STATIC-RW: the static rw tier vs. the exhaustive rw census.

The rw rung of the race ladder (:func:`repro.races.check_races_tiered`,
its rw census) must pull its weight: most of a
realistic corpus should be discharged without a single machine state.
Corpus: the litmus library plus two generated batches — 25 seeds under
the ``owned_reads_only`` discipline (rw-race-free by construction, the
shape the static tier targets) and 25 default seeds (reads may cross
threads, so many are genuinely racy and exercise the fallback).

Reported (human rows + a machine-readable ``BENCH`` json line):

* soundness — no program statically RACE_FREE yet exhaustively racy;
* the fraction of exhaustively rw-race-free programs the static tier
  discharges (acceptance target ≥ 0.50);
* tier-ladder speedup: states explored and wall-clock, tiered vs.
  always-exhaustive.
"""

import json
import time

from benchmarks.conftest import report
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.races.rwrace import rw_races
from repro.races.tiered import check_races_tiered

OWNED_SEEDS = range(25)
DEFAULT_SEEDS = range(25)


def _corpus():
    programs = [(name, test.program) for name, test in sorted(LITMUS_SUITE.items())]
    owned = GeneratorConfig(owned_reads_only=True)
    default = GeneratorConfig()
    programs += [
        (f"owned-{seed}", random_wwrf_program(seed, owned)) for seed in OWNED_SEEDS
    ]
    programs += [
        (f"gen-{seed}", random_wwrf_program(seed, default)) for seed in DEFAULT_SEEDS
    ]
    return programs


def test_static_rw_tier_discharge_rate(benchmark):
    programs = _corpus()

    def tiered_sweep():
        start = time.perf_counter()
        results = [(name, check_races_tiered(program).rw) for name, program in programs]
        return results, time.perf_counter() - start

    tiered, tiered_secs = benchmark.pedantic(tiered_sweep, rounds=1, iterations=1)

    start = time.perf_counter()
    exhaustive = [(name, rw_races(program)) for name, program in programs]
    exhaustive_secs = time.perf_counter() - start

    unsound = [
        name
        for (name, t), (_, witnesses) in zip(tiered, exhaustive)
        if t.race_free and t.method == "static" and witnesses
    ]
    race_free = [name for name, witnesses in exhaustive if not witnesses]
    static_hits = [name for name, t in tiered if t.method == "static"]
    discharged = [name for name in static_hits if name in race_free]
    fraction = len(discharged) / len(race_free) if race_free else 0.0
    states_tiered = sum(t.state_count for _, t in tiered)
    speedup = exhaustive_secs / max(tiered_secs, 1e-9)

    rows = [
        ("programs (litmus + owned + default)", len(programs)),
        ("exhaustively rw-race-free", len(race_free)),
        ("statically discharged", len(discharged)),
        ("discharge fraction (target ≥ 0.50)", f"{fraction:.2f}"),
        ("soundness violations (must be 0)", len(unsound)),
        ("states explored (tiered)", states_tiered),
        ("tiered sweep secs", f"{tiered_secs:.2f}"),
        ("exhaustive sweep secs", f"{exhaustive_secs:.2f}"),
        ("tier-ladder speedup", f"{speedup:.2f}x"),
    ]
    report("E-STATIC-RW", rows)
    print("BENCH " + json.dumps({
        "experiment": "static-rw-tier",
        "programs": len(programs),
        "rw_race_free": len(race_free),
        "statically_discharged": len(discharged),
        "discharge_fraction": round(fraction, 3),
        "soundness_violations": len(unsound),
        "states_tiered": states_tiered,
        "tiered_secs": round(tiered_secs, 3),
        "exhaustive_secs": round(exhaustive_secs, 3),
        "speedup": round(speedup, 2),
    }))

    assert not unsound, f"static RACE_FREE contradicts exhaustive on {unsound}"
    assert fraction >= 0.50


def test_tier_ladder_agreement():
    """Whenever the ladder falls back, its verdict must equal the pure
    census (the fallback *is* the exhaustive detector); on static
    discharges the census must agree there is no race."""
    for name, program in _corpus():
        tiered = check_races_tiered(program).rw
        witnesses = rw_races(program)
        assert tiered.race_free == (not witnesses), name
        if tiered.method == "static":
            assert tiered.state_count == 0, name
