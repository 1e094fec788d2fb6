"""E-POR: partial-order reduction — state counts and wall-clock of the
exhaustive explorer under ``--por=none`` (every interleaving) and
``--por=dpor`` (persistent-set POR, :mod:`repro.semantics.dpor`),
with behavior-set equality asserted on every measured program and a
machine-readable ``BENCH`` json line per suite comparison."""

import dataclasses
import json
import time

from benchmarks.conftest import report
from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Load
from repro.litmus.library import LITMUS_SUITE, iriw_rlx
from repro.semantics.exploration import Explorer, behaviors
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig


def config_for(test):
    if not test.promise_budget:
        return SemanticsConfig()
    return SemanticsConfig(
        promise_oracle=SyntacticPromises(
            budget=test.promise_budget, max_outstanding=test.promise_budget
        )
    )


def test_por_reduction_across_suite(benchmark):
    def run():
        rows = []
        for name in sorted(LITMUS_SUITE):
            test = LITMUS_SUITE[name]
            plain_cfg = config_for(test)
            plain = behaviors(test.program, plain_cfg)
            reduced = behaviors(test.program, dataclasses.replace(plain_cfg, por="dpor"))
            assert plain.traces == reduced.traces, name
            rows.append((name, plain.state_count, reduced.state_count))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    total_plain = sum(p for _, p, _ in rows)
    total_reduced = sum(r for _, _, r in rows)
    report(
        "E-POR/suite",
        [(name, f"{p} -> {r} ({p/r:.2f}x)") for name, p, r in rows]
        + [("TOTAL", f"{total_plain} -> {total_reduced} ({total_plain/total_reduced:.2f}x)")],
    )
    assert total_reduced < total_plain


def test_por_on_iriw(benchmark):
    program = iriw_rlx()
    dpor_cfg = SemanticsConfig(por="dpor")

    def run():
        return behaviors(program, dpor_cfg)

    reduced = benchmark(run)
    plain = behaviors(program)
    assert plain.traces == reduced.traces
    report(
        "E-POR/iriw",
        [
            ("plain states", plain.state_count),
            ("dpor states", reduced.state_count),
            ("reduction", f"{plain.state_count / reduced.state_count:.2f}x"),
        ],
    )


#: Timing rounds of the litmus-suite mode comparison; each mode's
#: seconds are its best round, and rounds interleave the modes so drift
#: in machine speed hits both alike.
ROUNDS = 5


def test_por_modes_across_suite(benchmark):
    """none/dpor on every litmus test: equality + BENCH trajectory."""

    modes = ("none", "dpor")

    def run():
        counts = {name: {} for name in sorted(LITMUS_SUITE)}
        traces = {name: {} for name in counts}
        best = dict.fromkeys(modes, float("inf"))
        for _ in range(ROUNDS):
            for por in modes:
                elapsed = 0.0
                for name in counts:
                    base = config_for(LITMUS_SUITE[name])
                    start = time.monotonic()
                    result = behaviors(
                        LITMUS_SUITE[name].program, dataclasses.replace(base, por=por)
                    )
                    elapsed += time.monotonic() - start
                    counts[name][por] = result.state_count
                    traces[name][por] = result.traces
                best[por] = min(best[por], elapsed)
        for name, by_mode in traces.items():
            assert by_mode["none"] == by_mode["dpor"], name
        return counts, best

    counts, best = benchmark.pedantic(run, rounds=1, iterations=1)
    totals = {por: sum(row[por] for row in counts.values()) for por in modes}
    total_secs = {por: round(secs, 3) for por, secs in best.items()}
    report(
        "E-POR/modes",
        [
            (name, " / ".join(str(row[p]) for p in modes))
            for name, row in counts.items()
        ]
        + [("TOTAL (none/dpor)", f"{totals['none']} / {totals['dpor']}")],
    )
    print("BENCH " + json.dumps({
        "experiment": "por-modes-litmus",
        "none_states": totals["none"],
        "dpor_states": totals["dpor"],
        "none_secs": total_secs["none"],
        "dpor_secs": total_secs["dpor"],
        "reduction": round(totals["none"] / totals["dpor"], 2),
    }))
    assert totals["dpor"] < totals["none"]


def test_read_read_independence_regression():
    """Two pure-reader threads over the same locations: same-location
    read/read steps are independent, so DPOR must collapse the family to
    essentially one schedule (a structural reduction, like the disjoint
    writers), with zero redundant executions.  Regression guard for the
    dependence relation: if reads ever started conflicting with reads,
    this family would blow back up toward the unreduced count."""
    program = straightline_program(
        [
            [Load(f"r{i}", f"v{i}", AccessMode.NA) for i in range(4)],
            [Load(f"s{i}", f"v{i}", AccessMode.NA) for i in range(4)],
        ]
    )
    counts = {}
    for por in ("none", "dpor"):
        explorer = Explorer(program, SemanticsConfig(por=por)).build()
        assert explorer.exhaustive
        counts[por] = len(explorer.states)
        if por == "dpor":
            assert explorer.dpor_stats.redundant_executions == 0
    # 11 states when this guard was added (one schedule + bookkeeping)
    # vs 72 unreduced; 5x headroom against noise, far under 72.
    assert counts["dpor"] <= 15
    assert counts["none"] >= 4 * counts["dpor"]
