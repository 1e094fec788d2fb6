"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``explore FILE``  — exhaustive behavior exploration (PS2.1);
* ``races FILE``    — write-write race freedom + read-write race report;
* ``analyze FILE``  — static analyses only: IR lint + thread-modular
  ww-race detection (no state exploration);
* ``validate FILE`` — run an optimizer and translation-validate it;
* ``run FILE``      — sample randomized executions;
* ``witness FILE``  — find a schedule realizing an output trace;
* ``fmt FILE``      — parse and pretty-print;
* ``serve``         — run the verification service daemon (HTTP/JSON).

All commands accept ``--promises N`` to enable a syntactic promise oracle
with budget N, and ``--np`` to use the non-preemptive machine.  Resource
governance (``docs/robustness.md``): ``--deadline`` / ``--memory-mb``
attach a cooperative :class:`repro.robust.budget.Budget`; ``explore``
additionally takes ``--checkpoint`` / ``--resume`` to persist and
continue long BFS runs, and ``validate`` takes ``--degrade`` to walk the
exhaustive → bounded → sampled ladder instead of stopping at a trip.

Performance (``docs/performance.md``): the sweep commands — ``litmus``,
``validate``, ``races``, ``fuzz`` — accept ``--jobs N`` to fan
per-program work across worker processes (results are aggregated in
program order, so output is identical at any parallelism) and
``--cache DIR`` to reuse exhaustively-proved verdicts across runs from a
persistent on-disk cache; ``validate`` and ``races`` accept multiple
files.  Under ``--jobs``, a ``--deadline`` still bounds the *whole*
sweep's wall clock.  ``--por {none,fusion,dpor}`` selects the
partial-order reduction (``explore`` defaults to ``dpor``, other
commands to ``none``); ``explore --stats`` prints certification-cache,
DPOR, and intern-table counters, and ``explore --profile=FILE`` wraps
the run in ``cProfile`` (top-20 cumulative functions).

The service (``docs/service.md``): ``serve`` starts the asyncio
verification daemon — batch ``/v1/litmus`` / ``/v1/validate`` /
``/v1/races`` endpoints over a shared content-addressed store, with
queue backpressure (429 + Retry-After) and graceful SIGTERM drain.

Exit codes (the confidence contract of ``repro.robust.confidence``):
0 = verdict holds and is PROVED (exhaustive), 1 = verdict fails,
2 = usage/parse error, 3 = verdict holds but only BOUNDED (a budget or
``--max-states`` cap was hit), 4 = verdict holds but only SAMPLED (the
degradation ladder fell back to randomized runs) — a degraded run is
never reported as a proof.  Code 4 is also raised for corrupt persisted
state (a checkpoint failing its integrity digest): in both cases the
evidence on hand cannot support the claim.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace as _dc_replace
from typing import Any, Dict, List, Optional

from repro.lang.parser import ParseError, parse_program
from repro.lang.printer import format_program
from repro.lang.syntax import Program
from repro.opt.base import Optimizer, compose
from repro.opt.cleanup import Cleanup
from repro.opt.unroll import Peel
from repro.opt.constprop import ConstProp
from repro.opt.copyprop import CopyProp
from repro.opt.cse import CSE
from repro.opt.dce import DCE
from repro.opt.licm import LICM, LInv
from repro.opt.merge import Merge
from repro.opt.reorder import Reorder
from repro.opt.unused_read import UnusedRead
from repro.races.rwrace import rw_races
from repro.races.tiered import check_races_tiered
from repro.races.wwrf import ww_nprf, ww_rf
from repro.robust.budget import Budget
from repro.robust.checkpoint import CheckpointError
from repro.robust.confidence import Confidence, exit_code
from repro.semantics.events import EVENT_DONE, format_trace
from repro.semantics.exploration import ExplorationSession
from repro.semantics.promises import SyntacticPromises
from repro.semantics.random_run import random_run
from repro.semantics.thread import SemanticsConfig
from repro.semantics.witness import find_witness
from repro.sim.validate import validate_optimizer

OPTIMIZERS = {
    "constprop": ConstProp,
    "dce": DCE,
    "cse": CSE,
    "licm": LICM,
    "linv": LInv,
    "cleanup": Cleanup,
    "copyprop": CopyProp,
    "peel": Peel,
    "reorder": Reorder,
    "merge": Merge,
    "unused-read": UnusedRead,
}


def _load_source(source: str, structured: bool = False) -> Program:
    """Parse program text: CSimpRTL by default, CSimp when ``structured``.

    The service daemon uses this directly — its jobs arrive as source
    text over HTTP, never as file paths.
    """
    try:
        if structured:
            from repro.csimp import lower_program, parse_csimp

            return lower_program(parse_csimp(source))
        return parse_program(source)
    except ValueError as exc:
        # Constructor validation (e.g. an unresolved jump target) fires
        # during parsing; surface it like a parse error, not a traceback.
        raise ParseError(str(exc)) from exc


def _load(path: str, structured: bool = False) -> Program:
    """Load a program file: CSimpRTL by default; the structured CSimp
    surface syntax with ``--csimp`` or for ``*.csimp`` files."""
    with open(path) as handle:
        source = handle.read()
    return _load_source(source, structured or path.endswith(".csimp"))


def _config(args: argparse.Namespace) -> SemanticsConfig:
    kwargs = {}
    if getattr(args, "promises", 0):
        kwargs["promise_oracle"] = SyntacticPromises(
            budget=args.promises, max_outstanding=args.promises
        )
    por = getattr(args, "por", None)
    if por is None:
        por = getattr(args, "por_default", "none")
    if por == "fusion":
        kwargs["fuse_local_steps"] = True
        kwargs["por"] = "fusion"
    elif por == "dpor":
        kwargs["por"] = "dpor"
    if getattr(args, "por_conservative", False):
        kwargs["por_conservative"] = True
    if getattr(args, "max_states", None) is not None:
        kwargs["max_states"] = args.max_states
    deadline = getattr(args, "deadline", None)
    memory_mb = getattr(args, "memory_mb", None)
    if deadline is not None or memory_mb is not None:
        kwargs["budget"] = Budget(deadline_seconds=deadline, memory_mb=memory_mb)
    return SemanticsConfig(**kwargs)


def _open_cache(cache_root: Optional[str]):
    """A :class:`repro.perf.cache.ResultCache` for ``--cache DIR`` (or None)."""
    if not cache_root:
        return None
    from repro.perf.cache import ResultCache

    return ResultCache(cache_root)


def _budgeted(config: SemanticsConfig, budget: Optional[Budget]) -> SemanticsConfig:
    """Attach a per-job budget (the sweep pool's remaining-deadline split)."""
    return config if budget is None else _dc_replace(config, budget=budget)


def _optimizer(name: str) -> Optimizer:
    if name == "pipeline":
        return compose(
            compose(compose(compose(ConstProp(), CSE()), CopyProp()), DCE()),
            Cleanup(),
        )
    factory = OPTIMIZERS.get(name)
    if factory is None:
        raise SystemExit(f"unknown optimizer {name!r}; choose from "
                         f"{sorted(OPTIMIZERS) + ['pipeline']}")
    return factory() if not isinstance(factory, Optimizer) else factory


def cmd_explore(args: argparse.Namespace) -> int:
    """``explore`` — print the exhaustive outcome/trace sets.

    ``--checkpoint PATH`` persists the BFS frontier periodically (and on
    a budget trip); ``--resume PATH`` continues a previous run from such
    a file.  A truncated exploration exits 3, never claiming a proof.
    """
    from repro.semantics.exploration import Explorer

    program = _load(args.file, getattr(args, 'csimp', False))
    config = _config(args)
    if args.resume:
        from repro.robust.checkpoint import load_checkpoint

        checkpoint = load_checkpoint(args.resume)
        explorer = Explorer.resume(checkpoint, program, config)
        print(f"resumed: {checkpoint}")
    else:
        explorer = Explorer(program, config, nonpreemptive=args.np)
    profiler = None
    if getattr(args, "profile", None):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    if args.checkpoint:
        explorer.build(
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
        )
    result = explorer.behaviors()
    if profiler is not None:
        import pstats

        profiler.disable()
        profiler.dump_stats(args.profile)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        print(f"profile written to {args.profile}")
    status = "exhaustive" if result.exhaustive else "TRUNCATED"
    if not result.exhaustive and result.stop_reason:
        status += f":{result.stop_reason}"
    print(f"states: {result.state_count} ({status})")
    if result.dropped_edges:
        print(f"dropped successor edges: {result.dropped_edges} "
              "(state cap hit; outcome sets are a lower bound)")
    if args.stats:
        from repro.perf.intern import interner_stats

        print(explorer.cert_stats)
        if explorer.por_downgrade is not None:
            print(f"por downgrade: dpor -> bfs ({explorer.por_downgrade})")
        if explorer.dpor_stats is not None:
            counters = explorer.dpor_stats.as_dict()
            print("dpor: " + ", ".join(
                f"{key}={counters[key]}" for key in sorted(counters)))
        for name, counters in interner_stats().items():
            print(f"intern[{name}]: {counters['entries']} entries, "
                  f"{counters['hits']} hits / {counters['misses']} misses, "
                  f"{counters['flushes']} flushes")
    print(f"complete outcome sets ({len(result.outputs())}):")
    for outs in sorted(result.outputs()):
        print(f"  {outs}")
    if args.traces:
        print(f"all traces ({len(result.traces)}):")
        for trace in sorted(result.traces, key=lambda t: (len(t), str(t))):
            print(f"  {format_trace(trace)}")
    if not result.exhaustive:
        if args.checkpoint:
            print(f"checkpoint saved to {args.checkpoint}; "
                  f"continue with --resume {args.checkpoint}")
        return exit_code(True, Confidence.BOUNDED)
    return 0


def _run_file_sweep(files, fn, job_args, jobs=1, budget=None):
    """Run one per-file case function over many files.

    Returns ``[(name, ok, record, error), ...]`` in sorted-name order.
    The serial, budget-free path calls ``fn`` directly so parse/IO errors
    keep their historical exit-2 route through :func:`main`; with
    ``--jobs`` or a budget it goes through the sweep pool, which captures
    per-file faults and splits the sweep-wide deadline across jobs.
    """
    if jobs <= 1 and budget is None:
        return [(path, True, fn(*job_args(path)), None) for path in files]
    from repro.perf.pool import SweepJob, run_sweep

    sweep = run_sweep(
        [SweepJob(path, fn, job_args(path)) for path in files],
        jobs_n=jobs,
        budget=budget,
    )
    return [(o.name, o.ok, o.value, o.error) for o in sweep.outcomes]


def _races_file_case(
    path: str,
    csimp: bool,
    static: bool,
    np: bool,
    config: SemanticsConfig,
    cache_root: Optional[str],
    budget: Optional[Budget] = None,
) -> Dict[str, Any]:
    """Race-check one file (module-level so the sweep pool can run it)."""
    config = _budgeted(config, budget)
    cache = _open_cache(cache_root)
    kind = f"races:static={int(static)}:np={int(np)}"
    source_text = None
    if cache is not None:
        with open(path) as handle:
            source_text = handle.read()
        payload = cache.lookup(source_text, config, kind)
        if payload is not None:
            return dict(payload, cached=True)
    program = _load(path, csimp)
    lines: List[str] = []
    if static:
        # The three-tier ladder: static rw and ww tiers first, one shared
        # exploration only for whatever they leave inconclusive.
        ladder = check_races_tiered(program, config, nonpreemptive=np)
        report = ladder.ww
        lines.append(f"static rw tier: {ladder.static_rw}")
        lines.append(f"static tier: {ladder.static_ww}")
        lines.append(f"ww-RF: {report}")
        witnesses = ladder.rw.witnesses
    else:
        check = ww_nprf if np else ww_rf
        session = ExplorationSession(config)
        report = check(program, config, session)
        lines.append(f"ww-RF: {report}")
        witnesses = rw_races(program, config, session=session)
    if witnesses:
        lines.append("read-write races:")
        for witness in witnesses:
            lines.append(
                f"  thread {witness.tid} na-reads {witness.loc!r} unobserved write"
            )
    else:
        lines.append("read-write races: none")
    record = {
        "lines": lines,
        "race_free": report.race_free,
        "exhaustive": report.exhaustive,
        "confidence": str(report.confidence),
        "cached": False,
    }
    if cache is not None:
        cache.store(source_text, config, kind, record, exhaustive=report.exhaustive)
    return record


def _print_races_record(record: Dict[str, Any], prefix: str = "") -> None:
    for line in record["lines"]:
        print(prefix + line)
    if record["race_free"] and not record["exhaustive"]:
        print(prefix + "WARNING: exploration TRUNCATED — race freedom not proved")


def cmd_races(args: argparse.Namespace) -> int:
    """``races`` — ww-RF verdict plus read-write race witnesses.

    Accepts several files; with ``--jobs N`` they are checked in
    parallel.  The exit code is the worst verdict across files."""
    config = _config(args)
    files = sorted(dict.fromkeys(args.file))
    records = _run_file_sweep(
        files,
        _races_file_case,
        lambda path: (
            path, getattr(args, "csimp", False), args.static, args.np,
            config, args.cache,
        ),
        jobs=args.jobs,
        budget=config.budget,
    )
    failed = False
    confidences: List[Confidence] = []
    for path, ok, record, error in records:
        prefix = f"{path}: " if len(files) > 1 else ""
        if not ok:
            print(f"{prefix}ERROR: {error}")
            failed = True
            continue
        _print_races_record(record, prefix)
        if not record["race_free"]:
            failed = True
        confidences.append(Confidence(record["confidence"]))
    if failed:
        return 1
    return exit_code(True, Confidence.weakest(confidences))


def _crossing_matrix(program: Program) -> Dict[str, Dict[str, Any]]:
    """Run every registered pass and report its crossing-oracle verdict:
    the per-optimizer row of the static transformation matrix."""
    import time

    from repro.static.crossing import check_crossing

    matrix: Dict[str, Dict[str, Any]] = {}
    for name in sorted(OPTIMIZERS):
        optimizer = _optimizer(name)
        t0 = time.perf_counter()
        try:
            target = optimizer.run(program)
            report = check_crossing(program, target, optimizer.crossing_profile)
        except Exception as exc:  # a pass crash is a data point, not a CLI crash
            matrix[name] = {
                "verdict": "error",
                "violations": [str(exc)],
                "inconclusive_sites": [],
                "changed": False,
                "seconds": time.perf_counter() - t0,
            }
            continue
        if not report.ok:
            verdict = "violations"
        elif report.inconclusive:
            verdict = "inconclusive"
        else:
            verdict = "clean"
        matrix[name] = {
            "verdict": verdict,
            "violations": [str(v) for v in report.violations],
            "inconclusive_sites": list(report.inconclusive),
            "changed": target != program,
            "seconds": time.perf_counter() - t0,
        }
    return matrix


def cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze`` — purely static: lint the IR, run the thread-modular
    ww- and rw-race analyses, and report the per-optimizer crossing
    matrix (run each registered pass, check its output against its
    declared legality profile).  No state exploration happens; the race
    verdicts may be inconclusive (``POTENTIAL_RACE`` / ``UNKNOWN``).

    ``--json`` emits a single machine-readable object (verdicts,
    witnesses, per-analysis timings in seconds) and nothing else, so CI
    and sweeps can consume static results without scraping text."""
    import json
    import time

    from repro.static import analyze_rw_races, analyze_ww_races, lint_program

    program = _load(args.file, getattr(args, 'csimp', False))
    t0 = time.perf_counter()
    lint = lint_program(program)
    t1 = time.perf_counter()
    ww = analyze_ww_races(program)
    t2 = time.perf_counter()
    rw = analyze_rw_races(program)
    t3 = time.perf_counter()
    crossing = _crossing_matrix(program)
    t4 = time.perf_counter()
    if getattr(args, "json", False):
        payload = {
            "file": args.file,
            "lint": {
                "ok": lint.ok,
                "issues": [str(issue) for issue in lint.issues],
            },
            "ww": {
                "verdict": str(ww.verdict),
                "race_free": ww.race_free,
                "checked_pairs": ww.checked_pairs,
                "witnesses": [str(w) for w in ww.witnesses],
            },
            "rw": {
                "verdict": str(rw.verdict),
                "race_free": rw.race_free,
                "checked_pairs": rw.checked_pairs,
                "witnesses": [str(w) for w in rw.witnesses],
            },
            "crossing": crossing,
            "timings": {
                "lint_s": t1 - t0,
                "ww_s": t2 - t1,
                "rw_s": t3 - t2,
                "crossing_s": t4 - t3,
                "total_s": t4 - t0,
            },
        }
        print(json.dumps(payload, indent=2))
        return 0 if lint.ok else 1
    print(lint)
    for issue in lint.issues:
        print(f"  {issue}")
    print(ww)
    print(rw)
    print("crossing matrix:")
    for name, row in crossing.items():
        change = "transformed" if row["changed"] else "unchanged"
        print(f"  {name}: {row['verdict']} ({change}, {row['seconds'] * 1000:.1f} ms)")
        for violation in row["violations"]:
            print(f"    violation: {violation}")
        for site in row["inconclusive_sites"]:
            print(f"    inconclusive at {site}")
    return 0 if lint.ok else 1


def _validate_file_case(
    path: str,
    csimp: bool,
    opt_name: str,
    strict: bool,
    no_wwrf: bool,
    degrade: bool,
    config: SemanticsConfig,
    cache_root: Optional[str],
    report_rw: bool = False,
    static_certify: bool = False,
    budget: Optional[Budget] = None,
) -> Dict[str, Any]:
    """Validate one file (module-level so the sweep pool can run it).

    The optimizer is reconstructed by name inside the worker — cheaper
    than pickling composed pipelines, and it keeps ``--strict`` wrapping
    local to the process that uses it.
    """
    config = _budgeted(config, budget)
    cache = _open_cache(cache_root)
    kind = (
        f"validate:{opt_name}:strict={int(strict)}:wwrf={int(not no_wwrf)}"
        f":rw={int(report_rw)}:tier={int(static_certify)}"
    )
    source_text = None
    if cache is not None:
        with open(path) as handle:
            source_text = handle.read()
        payload = cache.lookup(source_text, config, kind)
        if payload is not None:
            return dict(payload, cached=True)
    program = _load(path, csimp)
    optimizer = _optimizer(opt_name)
    if strict:
        from repro.opt.base import strict_optimizer

        optimizer = strict_optimizer(optimizer)
    if degrade:
        from repro.robust.degrade import DegradationPolicy, validate_with_degradation

        policy = DegradationPolicy(budget=config.budget)
        report = validate_with_degradation(
            optimizer, program, config, policy,
            check_target_wwrf=not no_wwrf,
        )
    elif static_certify:
        from repro.sim.validate import validate_tiered

        report = validate_tiered(
            optimizer, program, config, check_target_wwrf=not no_wwrf,
            report_rw=report_rw,
        )
    else:
        report = validate_optimizer(
            optimizer, program, config, check_target_wwrf=not no_wwrf,
            report_rw=report_rw,
        )
    record = {
        "report": str(report),
        "ok": report.ok,
        "exhaustive": report.exhaustive,
        "confidence": str(report.confidence),
        "method": getattr(report, "method", "exploration"),
        "cached": False,
    }
    if cache is not None:
        cache.store(source_text, config, kind, record, exhaustive=report.exhaustive)
    return record


def cmd_validate(args: argparse.Namespace) -> int:
    """``validate`` — run an optimizer and translation-validate it.

    With ``--degrade`` (and a ``--deadline`` / ``--memory-mb`` budget)
    a budget trip walks the exhaustive → bounded → sampled ladder
    instead of returning a truncated verdict; the exit code reports the
    resulting confidence (0 PROVED, 3 BOUNDED, 4 SAMPLED).

    Accepts several files; with ``--jobs N`` they are validated in
    parallel and the exit code is the worst verdict across files.
    """
    config = _config(args)
    files = sorted(dict.fromkeys(args.file))
    records = _run_file_sweep(
        files,
        _validate_file_case,
        lambda path: (
            path, getattr(args, "csimp", False), args.opt, args.strict,
            args.no_wwrf, args.degrade, config, args.cache,
            getattr(args, "rw", False), getattr(args, "static_tier", False),
        ),
        jobs=args.jobs,
        budget=config.budget,
    )
    failed = False
    confidences: List[Confidence] = []
    for path, ok, record, error in records:
        prefix = f"{path}: " if len(files) > 1 else ""
        if not ok:
            print(f"{prefix}ERROR: {error}")
            failed = True
            continue
        print(f"{prefix}{record['report']}")
        if args.show:
            program = _load(path, getattr(args, "csimp", False))
            optimizer = _optimizer(args.opt)
            print()
            print(format_program(optimizer.run(program)))
        if not record["ok"]:
            failed = True
            continue
        if not record["exhaustive"]:
            print(f"{prefix}WARNING: verification degraded to "
                  f"{record['confidence']} — not a proof")
        confidences.append(Confidence(record["confidence"]))
    if failed:
        return 1
    return exit_code(True, Confidence.weakest(confidences))


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` — sample randomized executions."""
    program = _load(args.file, getattr(args, 'csimp', False))
    config = _config(args)
    for i in range(args.runs):
        result = random_run(
            program, config, seed=args.seed + i, nonpreemptive=args.np
        )
        status = "done" if result.terminated else f"stopped@{result.steps}"
        print(f"run {i}: outputs={result.outputs} ({status})")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    """``witness`` — find and print a schedule realizing a trace."""
    program = _load(args.file, getattr(args, 'csimp', False))
    parts = [p.strip() for p in args.trace.split(",") if p.strip()]
    trace = tuple(EVENT_DONE if p == "done" else int(p) for p in parts)
    witness = find_witness(program, trace, _config(args), nonpreemptive=args.np)
    if witness is None:
        print("no execution realizes that trace")
        return 1
    print(witness.describe())
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    """``fmt`` — parse and pretty-print a program."""
    print(format_program(_load(args.file)), end="")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``fuzz`` — differential fuzzing of an optimizer over generated
    ww-race-free programs.

    ``--replay SEED`` regenerates one recorded failure (programs are a
    pure function of their seed) and re-validates just that case.
    """
    from repro.fuzz import fuzz_optimizer, fuzz_replay
    from repro.litmus.generator import GeneratorConfig

    optimizer = _optimizer(args.opt)
    gen = GeneratorConfig(threads=args.threads, instrs_per_thread=args.instrs)
    if args.replay is not None:
        source, report = fuzz_replay(
            optimizer, args.replay, gen, check_wwrf=not args.no_wwrf
        )
        print(source, end="")
        print(report)
        return exit_code(report.ok, report.confidence)
    lo, _, hi = args.seeds.partition(":")
    seeds = range(int(lo), int(hi)) if hi else range(int(lo))
    budget = None
    if args.deadline is not None:
        budget = Budget(deadline_seconds=args.deadline)
    report = fuzz_optimizer(
        optimizer,
        seeds,
        gen,
        check_wwrf=not args.no_wwrf,
        check_machine_equivalence=args.check_equivalence,
        jobs=args.jobs,
        cache=_open_cache(args.cache),
        budget=budget,
    )
    print(report)
    for failure in report.failures:
        print(f"--- {failure} ---")
        print(failure.source_text)
    return 0 if report.ok else 1


def _litmus_case(
    path: str, cache_root: Optional[str], budget: Optional[Budget] = None
) -> Dict[str, Any]:
    """Check one spec file (module-level so the sweep pool can run it)."""
    from repro.litmus.spec import run_spec_file

    cache = _open_cache(cache_root)
    hits_before = cache.hits if cache is not None else 0
    result = run_spec_file(path, cache=cache, budget=budget)
    return {
        "result": str(result),
        "ok": result.ok,
        "observed": [list(o) for o in result.observed],
        "cached": cache is not None and cache.hits > hits_before,
    }


def cmd_litmus(args: argparse.Namespace) -> int:
    """``litmus`` — check ``//! exists/forbidden`` spec files.

    With ``--jobs N`` the files are checked in parallel; output is
    aggregated in file-name order either way, so serial and parallel
    sweeps print identically.  ``--cache DIR`` reuses exhaustive
    verdicts for unchanged files across runs.
    """
    budget = None
    if args.deadline is not None:
        budget = Budget(deadline_seconds=args.deadline)
    files = sorted(dict.fromkeys(args.files))
    records = _run_file_sweep(
        files,
        _litmus_case,
        lambda path: (path, args.cache),
        jobs=args.jobs,
        budget=budget,
    )
    ok = True
    cached = 0
    for path, job_ok, record, error in records:
        if not job_ok:
            print(f"{path}: ERROR {error}")
            ok = False
            continue
        print(f"{path}: {record['result']}")
        cached += record["cached"]
        if not record["ok"]:
            ok = False
        if args.show_outcomes:
            for outcome in record["observed"]:
                print(f"  observed {tuple(outcome)}")
    if args.cache:
        print(f"cache: {cached}/{len(files)} files answered from {args.cache}")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` — run the verification service daemon.

    Blocks until SIGTERM/SIGINT, then drains: admitted jobs finish and
    flush their responses before the process exits.  See
    ``docs/service.md`` for the HTTP API and operational contract.
    """
    from repro.robust.retry import RetryPolicy
    from repro.serve.daemon import DaemonConfig, serve_forever
    from repro.serve.supervisor import SupervisorConfig

    supervisor = SupervisorConfig(
        job_deadline_seconds=args.job_deadline,
        memory_mb=args.memory_mb,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        quarantine_after=args.quarantine_after,
    )
    config = DaemonConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_batch_jobs=args.max_batch,
        default_deadline_seconds=min(args.job_deadline, args.max_deadline),
        max_deadline_seconds=args.max_deadline,
        store_root=args.store,
        store_max_entries=args.store_max_entries,
        supervisor=supervisor,
    )
    return serve_forever(config)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PS2.1 interpreter and verified-optimization toolkit "
        "(PLDI 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sweep_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan per-program work across N worker "
                            "processes (default 1 = serial; output is "
                            "identical at any parallelism)")
        p.add_argument("--cache", metavar="DIR", default=None,
                       help="persistent result cache: reuse exhaustively-"
                            "proved verdicts for unchanged programs")

    def common(p: argparse.ArgumentParser, multi: bool = False) -> None:
        if multi:
            p.add_argument("file", nargs="+",
                           help="CSimpRTL source file(s) (or CSimp with "
                                "--csimp / *.csimp)")
        else:
            p.add_argument("file", help="CSimpRTL source file (or CSimp with --csimp / *.csimp)")
        p.add_argument("--promises", type=int, default=0, metavar="N",
                       help="enable a syntactic promise oracle with budget N")
        p.add_argument("--np", action="store_true",
                       help="use the non-preemptive machine")
        p.add_argument("--csimp", action="store_true",
                       help="parse the structured CSimp surface syntax")
        p.add_argument("--por", nargs="?", const="fusion", default=None,
                       choices=["none", "fusion", "dpor"],
                       help="partial-order reduction: 'none', 'fusion' "
                            "(eager local-step fusion), or 'dpor' "
                            "(sleep-set DPOR; behavior-preserving, "
                            "interleaving machine only).  Bare --por means "
                            "'fusion'.  Default: dpor for explore, "
                            "validate and races; none elsewhere")
        p.add_argument("--por-conservative", action="store_true",
                       help="with --por=dpor, treat promise/reserve steps "
                            "as depending on everything instead of their "
                            "certification-scoped location window (slower "
                            "but assumption-free; soundness fallback)")
        p.add_argument("--max-states", type=int, default=None, metavar="N",
                       help="bound the exploration graph (a truncated run "
                            "exits 3, never claiming a proof)")
        p.add_argument("--deadline", type=float, default=None, metavar="SECS",
                       help="wall-clock budget; exploration stops cleanly "
                            "at the deadline instead of hanging (with "
                            "--jobs it bounds the whole sweep)")
        p.add_argument("--memory-mb", type=float, default=None, metavar="MB",
                       help="approximate memory budget; exploration stops "
                            "cleanly at the ceiling instead of OOMing")

    p = sub.add_parser("explore", help="exhaustive behavior exploration")
    common(p)
    p.add_argument("--traces", action="store_true", help="print all traces")
    p.add_argument("--stats", action="store_true",
                   help="print certification-cache and intern-table "
                        "counters after exploring")
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="periodically persist the BFS frontier so an "
                        "interrupted run can be resumed")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="continue exploration from a checkpoint file "
                        "(must match the program and machine)")
    p.add_argument("--checkpoint-interval", type=int, default=100_000,
                   metavar="N", help="states interned between checkpoints")
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="profile the run with cProfile: write raw stats "
                        "to FILE and print the top-20 cumulative-time "
                        "functions")
    p.set_defaults(func=cmd_explore, por_default="dpor")

    p = sub.add_parser("races", help="race detection")
    common(p, multi=True)
    sweep_options(p)
    p.add_argument("--static", action="store_true",
                   help="tiered checking: try the static thread-modular "
                        "analysis first, explore only if inconclusive")
    p.set_defaults(func=cmd_races, por_default="dpor")

    p = sub.add_parser("analyze", help="static analyses only (lint + "
                       "thread-modular ww/rw-race detection)")
    common(p)
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON object (verdicts, "
                        "witnesses, per-analysis timings) instead of text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="optimize + translation-validate")
    common(p, multi=True)
    sweep_options(p)
    p.add_argument("--opt", default="pipeline",
                   help="constprop | dce | cse | licm | linv | cleanup | "
                        "peel | reorder | copyprop | merge | unused-read | "
                        "pipeline")
    p.add_argument("--static-tier", action="store_true",
                   help="tiered validation: run the static certifier "
                        "first (zero states on CERTIFIED), explore only "
                        "on INCONCLUSIVE (incompatible with --degrade)")
    p.add_argument("--show", action="store_true", help="print the transformed program")
    p.add_argument("--no-wwrf", action="store_true",
                   help="skip the ww-RF preservation check")
    p.add_argument("--strict", action="store_true",
                   help="reject malformed or crossing-illegal optimizer "
                        "output (StrictModeViolation)")
    p.add_argument("--degrade", action="store_true",
                   help="on a budget trip, degrade exhaustive → bounded → "
                        "sampled instead of stopping (exit 3/4 by rung)")
    p.add_argument("--rw", action="store_true",
                   help="also run the tiered rw-race census on source and "
                        "target (informational: rw-races never fail "
                        "validation, but introductions are reported)")
    p.set_defaults(func=cmd_validate, por_default="dpor")

    p = sub.add_parser("run", help="randomized executions")
    common(p)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("witness", help="find a schedule for a trace")
    common(p)
    p.add_argument("--trace", required=True,
                   help='comma-separated outputs, e.g. "0,1,done"')
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("fmt", help="parse and pretty-print")
    p.add_argument("file")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("fuzz", help="differential fuzzing of an optimizer")
    sweep_options(p)
    p.add_argument("--opt", default="pipeline")
    p.add_argument("--seeds", default="0:25", metavar="LO:HI")
    p.add_argument("--deadline", type=float, default=None, metavar="SECS",
                   help="wall-clock budget for the whole campaign")
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--instrs", type=int, default=4)
    p.add_argument("--no-wwrf", action="store_true")
    p.add_argument("--check-equivalence", action="store_true",
                   help="also spot-check Thm 4.1 per program")
    p.add_argument("--replay", type=int, default=None, metavar="SEED",
                   help="regenerate and re-validate one recorded failure "
                        "seed instead of running a campaign")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("serve", help="run the verification service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (0 = pick a free one; printed at startup)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="dispatcher threads (each forks one governed "
                        "worker per job attempt)")
    p.add_argument("--queue-capacity", type=int, default=64, metavar="N",
                   help="bounded work queue size; a full queue answers "
                        "429 with Retry-After")
    p.add_argument("--max-batch", type=int, default=32, metavar="N",
                   help="largest accepted programs[] batch (413 beyond)")
    p.add_argument("--job-deadline", type=float, default=20.0, metavar="SECS",
                   help="default per-job hard wall clock; halves at each "
                        "degradation rung")
    p.add_argument("--max-deadline", type=float, default=120.0, metavar="SECS",
                   help="ceiling on client-requested deadline_seconds")
    p.add_argument("--max-attempts", type=int, default=3, metavar="N",
                   help="rungs of the exhaustive → bounded → sampled "
                        "ladder to walk (1 disables degradation)")
    p.add_argument("--quarantine-after", type=int, default=3, metavar="N",
                   help="worker deaths before a program is quarantined "
                        "as poison")
    p.add_argument("--memory-mb", type=float, default=None, metavar="MB",
                   help="per-worker memory ceiling")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="content-addressed verdict store shared with "
                        "--cache sweeps (preloaded at startup)")
    p.add_argument("--store-max-entries", type=int, default=None, metavar="N",
                   help="LRU-evict the store beyond N entries")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("litmus", help="check //! exists/forbidden spec files")
    sweep_options(p)
    p.add_argument("files", nargs="+")
    p.add_argument("--show-outcomes", action="store_true")
    p.add_argument("--deadline", type=float, default=None, metavar="SECS",
                   help="wall-clock budget for the whole sweep")
    p.set_defaults(func=cmd_litmus)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        from repro.robust.confidence import EXIT_CORRUPT

        print(f"checkpoint error: corrupt or incompatible checkpoint — {exc}",
              file=sys.stderr)
        return EXIT_CORRUPT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
