"""E-STATIC: tiered vs. purely-exhaustive ww-race checking.

The point of the static tier is to discharge race-freedom *without*
exploring interleavings.  This experiment replays (a) the litmus library
and (b) a 50-seed generated corpus through the race ladder
(:func:`repro.races.check_races_tiered`, its ww verdict) and the purely
exhaustive checker, and reports:

* soundness — no program is statically RACE_FREE yet exhaustively racy
  (the hard correctness obligation; also property-tested in
  ``tests/static/test_soundness.py``);
* the fraction of race-free programs discharged statically (target from
  DESIGN: ≥ 30%; the generator's per-location ownership discipline makes
  the corpus fraction high by construction);
* wall-clock of the tiered sweep vs. the exhaustive sweep.
"""

import time

from benchmarks.conftest import report
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.races.tiered import check_races_tiered
from repro.races.wwrf import ww_rf

CORPUS_SEEDS = range(50)


def _corpus():
    programs = [(name, test.program) for name, test in sorted(LITMUS_SUITE.items())]
    config = GeneratorConfig()
    programs += [
        (f"gen-{seed}", random_wwrf_program(seed, config)) for seed in CORPUS_SEEDS
    ]
    return programs


def test_static_tier_discharge_rate(benchmark):
    programs = _corpus()

    def tiered_sweep():
        return [(name, check_races_tiered(program).ww) for name, program in programs]

    tiered = benchmark.pedantic(tiered_sweep, rounds=1, iterations=1)

    start = time.perf_counter()
    exhaustive = [(name, ww_rf(program)) for name, program in programs]
    exhaustive_secs = time.perf_counter() - start

    unsound = [
        name
        for (name, t), (_, e) in zip(tiered, exhaustive)
        if t.race_free and not e.race_free
    ]
    race_free = [name for name, e in exhaustive if e.race_free]
    static_hits = [name for name, t in tiered if t.method == "static"]
    discharged = [name for name in static_hits if name in race_free]
    fraction = len(discharged) / len(race_free) if race_free else 0.0
    states_tiered = sum(t.state_count for _, t in tiered)
    states_exhaustive = sum(e.state_count for _, e in exhaustive)

    report(
        "E-STATIC",
        [
            ("programs (litmus + corpus)", len(programs)),
            ("exhaustively race-free", len(race_free)),
            ("statically discharged", len(discharged)),
            ("discharge fraction (target ≥ 0.30)", f"{fraction:.2f}"),
            ("soundness violations (must be 0)", len(unsound)),
            ("states explored (tiered)", states_tiered),
            ("states explored (exhaustive)", states_exhaustive),
            ("exhaustive sweep secs", f"{exhaustive_secs:.2f}"),
        ],
    )

    assert not unsound, f"static RACE_FREE contradicts exhaustive on {unsound}"
    assert fraction >= 0.30
    assert states_tiered < states_exhaustive


def test_static_tier_verdict_agreement():
    """On every fallback the tiered verdict must equal the exhaustive one
    (the fallback *is* the exhaustive checker)."""
    for name, program in _corpus():
        tiered = check_races_tiered(program).ww
        exhaustive = ww_rf(program)
        assert tiered.race_free == exhaustive.race_free, name
