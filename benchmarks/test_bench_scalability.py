"""Scalability series: how exploration cost grows with program size —
the figure-style series that contextualizes every other experiment
(states and wall-clock vs thread count / block width / promise budget),
plus the POR trajectory: states explored under ``--por=none`` and
``--por=dpor`` on the same families, emitted as machine-readable ``BENCH``
json lines (seeded into ``BENCH.json`` by this series)."""

import json
import time

import pytest

from benchmarks.conftest import report
from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Load, Print, Reg, Store
from repro.litmus.library import lb
from repro.semantics.exploration import Explorer
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig


def writers_readers(threads: int):
    """⌈threads/2⌉ writer threads and ⌊threads/2⌋ readers over one cell."""
    specs = []
    for i in range(threads):
        if i % 2 == 0:
            specs.append([Store("x", Const(i + 1), AccessMode.RLX)])
        else:
            specs.append([Load(f"r{i}", "x", AccessMode.RLX), Print(Reg(f"r{i}"))])
    return straightline_program(specs, atomics={"x"})


def count_states(program, config=None) -> int:
    explorer = Explorer(program, config or SemanticsConfig()).build()
    assert explorer.exhaustive
    return len(explorer.states)


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_states_vs_thread_count(benchmark, threads):
    program = writers_readers(threads)
    states = benchmark.pedantic(lambda: count_states(program), rounds=1, iterations=1)
    report(f"scalability/threads={threads}", [("states", states)])
    assert states > 0


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_states_vs_promise_budget(benchmark, budget):
    config = (
        SemanticsConfig(promise_oracle=SyntacticPromises(budget=budget, max_outstanding=budget))
        if budget
        else SemanticsConfig()
    )
    states = benchmark.pedantic(lambda: count_states(lb(), config), rounds=1, iterations=1)
    report(f"scalability/promise-budget={budget}", [("LB states", states)])
    assert states > 0


@pytest.mark.parametrize("width", [2, 4, 6])
def test_states_vs_block_width(benchmark, width):
    program = straightline_program(
        [
            [Store(f"v{i}", Const(i), AccessMode.NA) for i in range(width)],
            [Load(f"r{i}", f"v{i}", AccessMode.NA) for i in range(width)],
        ]
    )
    states = benchmark.pedantic(lambda: count_states(program), rounds=1, iterations=1)
    report(f"scalability/width={width}", [("states", states)])
    assert states > 0


def disjoint_threads(threads: int, width: int):
    """``threads`` threads, each writing ``width`` private NA locations —
    the fully-independent family where DPOR's reduction is structural
    (one schedule per Mazurkiewicz class = exactly one schedule)."""
    return straightline_program(
        [
            [Store(f"t{t}v{i}", Const(i + 1), AccessMode.NA) for i in range(width)]
            for t in range(threads)
        ]
    )


def _por_row(program, label):
    row = {"family": label}
    for por in ("none", "dpor"):
        start = time.monotonic()
        explorer = Explorer(program, SemanticsConfig(por=por)).build()
        assert explorer.exhaustive
        row[f"{por}_states"] = len(explorer.states)
        row[f"{por}_secs"] = round(time.monotonic() - start, 3)
        if por == "dpor":
            row["redundant_executions"] = (
                explorer.dpor_stats.redundant_executions
            )
    row["reduction"] = round(row["none_states"] / row["dpor_states"], 2)
    return row


@pytest.mark.parametrize("threads,width", [(3, 4), (4, 4)])
def test_states_por_disjoint_threads(benchmark, threads, width):
    program = disjoint_threads(threads, width)
    row = benchmark.pedantic(
        lambda: _por_row(program, f"disjoint/threads={threads},width={width}"),
        rounds=1,
        iterations=1,
    )
    report(
        f"scalability/disjoint threads={threads} width={width}",
        [(por, row[f"{por}_states"]) for por in ("none", "dpor")]
        + [("reduction (none/dpor)", f"{row['reduction']}x")],
    )
    print("BENCH " + json.dumps({"experiment": "por-scalability", **row}))
    # The headline target: DPOR explores >=10x fewer states than the
    # unreduced explorer on the independent family, and starts no
    # redundant execution there (none by construction since persistent
    # sets replaced source sets: each state is expanded once).
    assert row["none_states"] >= 10 * row["dpor_states"]
    assert row["redundant_executions"] == 0


@pytest.mark.parametrize("width", [4, 6])
def test_states_por_block_width(benchmark, width):
    program = straightline_program(
        [
            [Store(f"v{i}", Const(i), AccessMode.NA) for i in range(width)],
            [Load(f"r{i}", f"v{i}", AccessMode.NA) for i in range(width)],
        ]
    )
    row = benchmark.pedantic(
        lambda: _por_row(program, f"width={width}"), rounds=1, iterations=1
    )
    report(
        f"scalability/por width={width}",
        [(por, row[f"{por}_states"]) for por in ("none", "dpor")]
        + [("reduction (none/dpor)", f"{row['reduction']}x")],
    )
    print("BENCH " + json.dumps({"experiment": "por-scalability", **row}))
    assert row["dpor_states"] < row["none_states"]
    # Every (Store v_i, Load v_i) pair genuinely conflicts, so the ~2.3x
    # of this family is the *optimal* reduction for its dependence
    # structure: zero redundant executions, and the state count must
    # never regress past the source-set core's figure
    # (width=4 explored 138 states when this assertion was added).
    assert row["redundant_executions"] == 0
    if width == 4:
        assert row["dpor_states"] <= 138


@pytest.mark.parametrize("threads,width", [(3, 3), (3, 4)])
def test_states_por_promise_disjoint(benchmark, threads, width):
    """The promise-bearing disjoint family: each thread non-atomically
    writes only its private locations, under a syntactic promise oracle.
    Before the certification-scoped footprints landed, ``--por=dpor``
    silently fell back to local-step fusion (a mode since removed) on
    any promise-bearing config; now
    the promise/certification steps carry a location-window footprint, so
    per-thread windows are disjoint and the reduction is structural."""
    import dataclasses

    program = disjoint_threads(threads, width)
    base = SemanticsConfig(
        promise_oracle=SyntacticPromises(budget=1, max_outstanding=1)
    )

    def run():
        row = {"family": f"promise-disjoint/threads={threads},width={width}"}
        traces = {}
        for por in ("none", "dpor"):
            start = time.monotonic()
            explorer = Explorer(
                program, dataclasses.replace(base, por=por)
            ).build()
            assert explorer.exhaustive
            row[f"{por}_states"] = len(explorer.states)
            row[f"{por}_secs"] = round(time.monotonic() - start, 3)
            traces[por] = explorer.behaviors().traces
            if por == "dpor":
                stats = explorer.dpor_stats
                row["redundant_executions"] = stats.redundant_executions
                row["promise_footprints"] = stats.promise_footprints
        assert traces["none"] == traces["dpor"]
        row["reduction"] = round(row["none_states"] / row["dpor_states"], 2)
        return row

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        f"scalability/promise-disjoint threads={threads} width={width}",
        [(por, row[f"{por}_states"]) for por in ("none", "dpor")]
        + [
            ("reduction (none/dpor)", f"{row['reduction']}x"),
            ("redundant executions", row["redundant_executions"]),
        ],
    )
    print("BENCH " + json.dumps({"experiment": "por-scalability", **row}))
    # Acceptance: at least 5x fewer states than the unreduced explorer on
    # the promise-bearing family, with zero redundant executions (each
    # state is expanded once).
    assert row["none_states"] >= 5 * row["dpor_states"]
    assert row["redundant_executions"] == 0
