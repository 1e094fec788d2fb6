"""Verification benchmark: time to verdict, per workload, split by layer.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` runs a fixed prefix of
the seed's requests once plain and once traced (spans around public
layer calls, counters, cProfile attribution) and reports the per-layer
metrics.  Every verdict is checked against ``perfbench/goldens.json``;
a wrong verdict makes the run exit 1.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for the workloads and
``perfbench/interactions.json`` for which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: name → unit.  ``wrong_verdicts`` and ``failed_frac``
#: are printed too but reach the JSON as ``correct`` and ``failed``.
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "proved_frac": "frac",
    "peak_rss_mb": "MB",
}
ZERO_ON_SUCCESS = {"wrong_verdicts": "count", "failed_frac": "frac"}

PER_LAYER = {
    "lang.parse_s": "s",
    "opt.run_s": "s",
    "opt.runs": "count",
    "opt.changed_frac": "frac",
    "analysis.solve_s": "s",
    "static.absint.solve_s": "s",
    "static.certify_s": "s",
    "static.certify_calls": "count",
    "static.certified_frac": "frac",
    "static.crossing_s": "s",
    "sim.og_s": "s",
    "races.static_s": "s",
    "races.static_discharge_frac": "frac",
    "races.scan_explore_s": "s",
    "races.downgrades": "count",
    "sim.refinement_s": "s",
    "semantics.explorations": "count",
    "semantics.explore_s": "s",
    "semantics.states": "count",
    "semantics.us_per_state": "us",
    "semantics.dpor.transitions": "count",
    "semantics.dpor.redundant_executions": "count",
    "semantics.por_downgrades": "count",
    "semantics.cert.calls": "count",
    "semantics.cert.expansions": "count",
    "semantics.cert.hit_frac": "frac",
    "semantics.successors_self_s": "s",
    "semantics.certification_self_s": "s",
    "semantics.dpor_self_s": "s",
    "memory.self_s": "s",
    "perf.intern.hash_self_s": "s",
    "perf.intern.hit_frac": "frac",
    "perf.intern.entries": "count",
    "serve.job_s": "s",
    "serve.overhead_ms": "ms",
    "serve.attempts_per_job": "count",
    "serve.store_hit_frac": "frac",
    "serve.queue_rejected": "count",
    "trace.overhead_frac": "frac",
}

#: Every run decides at least this many requests, so the 90th percentile
#: has at least ten samples beyond it.
MIN_REQUESTS = 100
#: Set-up is repeated this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Times the import of the program under test in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; started = time.perf_counter(); "
    "import perfbench.workloads; print(time.perf_counter() - started)"
)
#: Requests in each phase of a traced run: a fixed prefix of the seed's
#: request list, at most one pass, so per-layer totals are over the same
#: work on every commit.
TRACE_REQUESTS = {"explore": 40, "validate-static": 134, "validate-explore": 93, "serve": 60}
#: A seed kept out of every tuning run; gains are claimed on it.
HELD_OUT_SEED = 90017


def import_seconds() -> float:
    """Median import time of the program under test over fresh interpreters
    (an import happens once per process, so it is repeated out of process)."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT), str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def tail_percentile(samples: List[float], q: float) -> float:
    """The ``q`` quantile, refusing one with fewer than ten samples beyond it."""
    beyond = len(samples) * (1 - q)
    if beyond < 10 - 1e-9:
        raise ValueError(f"p{round(q * 100)} of {len(samples)} samples has {beyond:g} beyond it")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Phase:
    """Latencies and verdicts of one measured phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.verdicts: list = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def measure(
    workload,
    seconds: float,
    limit: Optional[int] = None,
    after: Optional[Callable[[object], None]] = None,
) -> Phase:
    """Decide requests in order until ``seconds`` have passed and at least
    :data:`MIN_REQUESTS` were decided, or exactly ``limit`` requests.

    Each request starts from empty intern tables and a collected heap,
    as a fresh CLI process would; that reset is outside the timed call.
    """
    from perfbench.workloads import Verdict
    from repro.perf.intern import clear_interners

    requests = workload.requests()
    phase = Phase()
    started = time.perf_counter()
    index = 0
    while True:
        if limit is not None:
            if index >= limit:
                break
        elif index >= MIN_REQUESTS and time.perf_counter() - started >= seconds:
            break
        request = requests[index % len(requests)]
        clear_interners()
        gc.collect()
        t0 = time.perf_counter()
        try:
            raw = workload.call(request)
        except Exception:  # a crash of the program under test fails its inputs
            phase.latencies.append(time.perf_counter() - t0)
            traceback.print_exc()
            phase.verdicts += [Verdict(item, False, True, False) for item in workload.items_of(request)]
        else:
            phase.latencies.append(time.perf_counter() - t0)
            phase.verdicts += workload.judge(request, raw)
            if after is not None:
                after(raw)
        index += 1
    return phase


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set (Linux reports KiB); with children, the largest
    reaped child counts too."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def end_to_end(phase: Phase, setup_s: float, serve: bool) -> Dict[str, float]:
    verdicts = phase.verdicts
    return {
        "setup_s": setup_s,
        "verdicts_per_s": len(verdicts) / phase.busy_s,
        "latency_p50_ms": statistics.median(phase.latencies) * 1000,
        "latency_p90_ms": tail_percentile(phase.latencies, 0.9) * 1000,
        "proved_frac": sum(v.proved for v in verdicts) / len(verdicts),
        "peak_rss_mb": peak_rss_mb(include_children=serve),
        "wrong_verdicts": sum(v.wrong for v in verdicts),
        "failed_frac": sum(v.failed for v in verdicts) / len(verdicts),
    }


def traced_run(workload, name: str, parse_s: float) -> Tuple[Dict[str, float], Phase]:
    """Plain then traced pass over the same request prefix → per-layer metrics."""
    from perfbench import corpus
    from perfbench.tracing import Tracer, attribute, wrapped
    from repro.perf.intern import interner_stats
    from repro.semantics.exploration import Explorer

    limit = min(TRACE_REQUESTS[name], len(workload.requests()))
    plain = measure(workload, 0, limit=limit)
    # Set up afresh (for serve: a new daemon and an empty store), so the
    # traced pass does the same work as the plain one.
    workload.setup()
    tracer = Tracer()

    def explored(explorer, _result) -> None:
        tracer.add("semantics.explorations")
        tracer.add("semantics.states", len(explorer.states))
        cert = explorer.cert_stats
        tracer.add("semantics.cert.calls", cert.calls)
        tracer.add("semantics.cert.hits", cert.cache_hits)
        tracer.add("semantics.cert.misses", cert.cache_misses)
        tracer.add("semantics.cert.expansions", cert.expansions)
        if explorer.dpor_stats is not None:
            tracer.add("semantics.dpor.transitions", explorer.dpor_stats.transitions)
            tracer.add(
                "semantics.dpor.redundant_executions",
                explorer.dpor_stats.redundant_executions,
            )
        tracer.add("semantics.por_downgrades", explorer.por_downgrade is not None)

    def after(raw) -> None:
        workload.observe(raw, tracer)
        tables = interner_stats().values()
        tracer.add("perf.intern.hits", sum(table["hits"] for table in tables))
        tracer.add("perf.intern.misses", sum(table["misses"] for table in tables))
        entries = sum(table["entries"] for table in tables)
        tracer.counters["perf.intern.entries"] = max(tracer.counters["perf.intern.entries"], entries)

    optimizers = [corpus.make_optimizer(opt) for opt in corpus.STATIC_GALLERY]
    optimizers += [corpus.make_optimizer(opt) for opt in corpus.CONTROLS]
    opt_runs = [
        (cls, "run")
        for optimizer in optimizers
        for cls in type(optimizer).__mro__
        if "run" in cls.__dict__
    ]
    profiler = None if name == "serve" else cProfile.Profile()
    # The request span sits at the benchmark's call into the layer's
    # public entry point; exploration and optimizer spans nest inside it.
    with wrapped([(type(workload), "call")], tracer, f"request.{name}"), \
            wrapped([(Explorer, "build")], tracer, "semantics.explore", explored), \
            wrapped(opt_runs, tracer, "opt.run"):
        if profiler is not None:
            profiler.enable()
        try:
            traced = measure(workload, 0, limit=limit, after=after)
        finally:
            if profiler is not None:
                profiler.disable()
    layers = attribute(pstats.Stats(profiler)) if profiler is not None else {}
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    explore_s = tracer.total("semantics.explore")
    metrics = {
        "lang.parse_s": parse_s,
        "opt.run_s": tracer.total("opt.run"),
        "opt.runs": tracer.count("opt.run"),
        "opt.changed_frac": ratio(c["opt.changed"], c["opt.requests"]),
        "static.certify_calls": c["static.certify_calls"],
        "static.certified_frac": ratio(c["static.certified"], c["static.certify_calls"]),
        "races.static_discharge_frac": ratio(c["races.static"], c["races.checks"]),
        "races.downgrades": c["races.downgrades"],
        "semantics.explorations": c["semantics.explorations"],
        "semantics.explore_s": explore_s,
        "semantics.states": c["semantics.states"],
        "semantics.us_per_state": ratio(explore_s * 1e6, c["semantics.states"]),
        "semantics.dpor.transitions": c["semantics.dpor.transitions"],
        "semantics.dpor.redundant_executions": c["semantics.dpor.redundant_executions"],
        "semantics.por_downgrades": c["semantics.por_downgrades"],
        "semantics.cert.calls": c["semantics.cert.calls"],
        "semantics.cert.expansions": c["semantics.cert.expansions"],
        "semantics.cert.hit_frac": ratio(
            c["semantics.cert.hits"], c["semantics.cert.hits"] + c["semantics.cert.misses"]
        ),
        "perf.intern.hit_frac": ratio(
            c["perf.intern.hits"], c["perf.intern.hits"] + c["perf.intern.misses"]
        ),
        "perf.intern.entries": c["perf.intern.entries"],
        "serve.job_s": c["serve.job_s"],
        "serve.overhead_ms": ratio(c["serve.overhead_s"] * 1000, c["serve.batches"]),
        "serve.attempts_per_job": ratio(c["serve.attempts"], c["serve.fresh_jobs"]),
        "serve.store_hit_frac": ratio(c["serve.store_hits"], c["serve.jobs"]),
        "serve.queue_rejected": c["serve.queue_rejected"],
        "trace.overhead_frac": traced.busy_s / plain.busy_s - 1,
    }
    metrics.update(layers)
    # Profile attribution is empty for serve, whose work runs in children.
    return {name_: metrics.get(name_, 0.0) for name_ in PER_LAYER}, traced


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="verification benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("explore", "validate-static", "validate-explore", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=None,
                        help="golden answers file (default: perfbench/goldens.json)")
    parser.add_argument("--tiny", action="store_true",
                        help="the cheapest inputs only (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    import perfbench.workloads as workloads
    from perfbench import corpus

    import_s = import_seconds()
    work_dir = ROOT / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    workload = workloads.make(
        args.workload, args.seed, args.goldens or corpus.GOLDENS_PATH, args.tiny, work_dir
    )
    try:
        setups = []
        parse = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            parse.append(workload.parse_s)
        setup_s = import_s + statistics.median(setups)
        # Set-up objects live for the whole run: keep them out of the
        # per-request collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, phase = traced_run(workload, args.workload, statistics.median(parse))
            units = PER_LAYER
            shown = PER_LAYER
        else:
            phase = measure(workload, args.seconds)
            metrics = end_to_end(phase, setup_s, args.workload == "serve")
            units = END_TO_END
            shown = {**END_TO_END, **ZERO_ON_SUCCESS}
    finally:
        workload.close()
        try:
            work_dir.rmdir()
        except OSError:
            pass

    print(
        f"workload={args.workload} seed={args.seed} inputs={workload.inputs()} "
        f"requests={len(phase.latencies)} samples={len(phase.latencies)} "
        f"verdicts={len(phase.verdicts)} engine=por={corpus.DEFAULT_POR} "
        f"held_out_seed={HELD_OUT_SEED}"
    )
    for key, unit in shown.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")
    wrong = [v.item for v in phase.verdicts if v.wrong]
    for item in sorted(set(wrong)):
        print(f"  WRONG VERDICT: {item}")
    result = {
        "correct": not wrong,
        "attempted": len(phase.verdicts),
        "failed": sum(v.failed for v in phase.verdicts),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
