"""E-DEGRADE: governed validation jobs vs. plain exhaustive validation.

A budget exists so that one pathological program cannot hang a sweep.
The job layer (:func:`repro.jobs.run_job`) pins a job's budget once, so
source and target explorations share one clock, and a trip answers from
the partial graphs, capped at ``BOUNDED``.  This experiment replays the
litmus library plus a generated corpus through both modes and reports:

* wall-clock of the governed sweep vs. the plain exhaustive sweep (the
  finite members; the divergent member would hang it);
* the verdict-confidence distribution of the governed sweep — the
  finite corpus must come back ``PROVED``, the divergent member must
  degrade (``BOUNDED``), and **no non-exhaustive verdict may claim
  PROVED**;
* verdict agreement between the two modes on the finite members.
"""

import json
import time
from dataclasses import replace

from benchmarks.conftest import report
from repro.jobs import job_config, run_job
from repro.lang.parser import parse_program
from repro.lang.printer import format_program
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.opt.constprop import ConstProp
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.sim.validate import validate_optimizer

CORPUS_SEEDS = range(15)

DIVERGENT = parse_program("""
atomics x;
fn spin {
entry:
    jmp loop;
loop:
    r := x.rlx;
    x.rlx := r + 1;
    print(r);
    jmp loop;
}
threads spin;
""")


def _finite_corpus():
    programs = [(name, test.program) for name, test in sorted(LITMUS_SUITE.items())]
    config = GeneratorConfig()
    programs += [
        (f"gen-{seed}", random_wwrf_program(seed, config)) for seed in CORPUS_SEEDS
    ]
    return programs


def _governed(program, deadline_seconds):
    """One validate job under a ``deadline_seconds`` budget."""
    source = format_program(program)
    config = replace(
        job_config("validate", source), budget=Budget(deadline_seconds=deadline_seconds)
    )
    return run_job("validate", source, {"opt": "constprop"}, config)


def test_governed_jobs_vs_exhaustive(benchmark):
    finite = _finite_corpus()
    corpus = finite + [("divergent-spin", DIVERGENT)]

    def governed_sweep():
        return [(name, _governed(program, 2.0)) for name, program in corpus]

    governed = benchmark.pedantic(governed_sweep, rounds=1, iterations=1)
    governed_secs = benchmark.stats.stats.total

    start = time.perf_counter()
    exhaustive = [
        (name, validate_optimizer(ConstProp(), program)) for name, program in finite
    ]
    exhaustive_secs = time.perf_counter() - start

    by_name = dict(governed)
    distribution = {c.name: 0 for c in Confidence}
    for _, record in governed:
        distribution[record["confidence"]] += 1
    unsound = [
        name
        for name, record in governed
        if record["confidence"] == "PROVED" and not record["exhaustive"]
    ]
    disagreements = [
        name for name, verdict in exhaustive if verdict.ok != by_name[name]["ok"]
    ]
    degraded = by_name["divergent-spin"]

    rows = [
        ("programs (litmus + corpus + divergent)", len(corpus)),
        ("governed sweep secs", f"{governed_secs:.2f}"),
        ("exhaustive sweep secs (finite only)", f"{exhaustive_secs:.2f}"),
        ("confidence PROVED", distribution["PROVED"]),
        ("confidence BOUNDED", distribution["BOUNDED"]),
        ("confidence SAMPLED", distribution["SAMPLED"]),
        ("divergent member degraded to", degraded["confidence"]),
        ("PROVED-without-exhaustive (must be 0)", len(unsound)),
        ("verdict disagreements (must be 0)", len(disagreements)),
    ]
    report("E-DEGRADE", rows)
    print("BENCH " + json.dumps({
        "experiment": "degradation-ladder",
        "programs": len(corpus),
        "governed_secs": round(governed_secs, 3),
        "exhaustive_secs": round(exhaustive_secs, 3),
        "confidence": distribution,
        "divergent_confidence": degraded["confidence"],
        "agreement": not disagreements,
    }))

    assert not unsound, f"non-exhaustive PROVED on {unsound}"
    assert not disagreements, f"mode disagreement on {disagreements}"
    assert degraded["confidence"] != "PROVED"
    assert distribution["PROVED"] == len(finite)


def test_governed_job_bounds_divergent_wall_clock():
    """The reason the budget exists: a divergent program costs bounded
    wall-clock (one deadline plus the salvage of the partial graph), not
    forever."""
    start = time.perf_counter()
    record = _governed(DIVERGENT, 0.5)
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0
    assert record["confidence"] == "BOUNDED"
