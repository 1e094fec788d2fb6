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

Each command registers only the flags its handler reads (``docs/cli.md``
has the table).  ``--promises N`` enables a syntactic promise oracle with
budget N (``explore``, ``races``, ``validate``, ``run``, ``witness``),
and ``--np`` selects the non-preemptive machine (``explore``, ``races``,
``run``, ``witness``).  Resource governance (``docs/robustness.md``):
``--deadline`` / ``--memory-mb`` attach a cooperative
:class:`repro.robust.budget.Budget`, one clock for each command (a trip
answers from the partial exploration, capped at BOUNDED); ``explore``
additionally takes ``--checkpoint`` / ``--resume`` to persist and
continue long BFS runs.

Performance (``docs/performance.md``): the sweep commands — ``litmus``,
``validate``, ``races``, ``fuzz`` — accept ``--jobs N`` to fan
per-program work across worker processes (results are aggregated in
program order, so output is identical at any parallelism) and
``--cache DIR`` to reuse exhaustively-proved verdicts across runs from a
persistent on-disk store (the one ``serve --store`` uses, see
:mod:`repro.jobs`); ``validate`` and ``races`` accept multiple files.  Under ``--jobs``, a ``--deadline`` still bounds the *whole*
sweep's wall clock.  ``--por {none,dpor}`` selects the
partial-order reduction (``explore``, ``validate`` and ``races`` default
to ``dpor``, other commands to ``none``); ``explore --stats`` prints certification-cache,
DPOR, and intern-table counters, and ``explore --profile=FILE`` wraps
the run in ``cProfile`` (top-20 cumulative functions).

The service (``docs/service.md``): ``serve`` starts the asyncio
verification daemon — batch ``/v1/litmus`` / ``/v1/validate`` /
``/v1/races`` endpoints over a shared content-addressed store, with
queue backpressure (429 + Retry-After) and graceful SIGTERM drain.

Exit codes (the confidence contract of ``repro.robust.confidence``):
0 = verdict holds and is PROVED (exhaustive), 1 = verdict fails,
2 = usage/parse error, 3 = verdict holds but only BOUNDED (a budget or
``--max-states`` cap was hit), 4 = verdict holds but only SAMPLED
(randomized runs, the service ladder's last rung) — a degraded run is
never reported as a proof.  Code 4 is also raised for corrupt persisted
state (a checkpoint failing its integrity digest): in both cases the
evidence on hand cannot support the claim.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace as _dc_replace
from typing import Any, Dict, List, Optional

from repro.jobs import (
    OPTIMIZER_CHOICES,
    OPTIMIZERS,
    cached_job,
    job_config,
    load_source,
    semantics_config,
)
from repro.jobs import get_optimizer as _optimizer
from repro.lang.parser import ParseError
from repro.lang.printer import format_program
from repro.lang.syntax import Program
from repro.litmus.spec import judge_spec
from repro.robust.budget import Budget
from repro.robust.checkpoint import CheckpointError
from repro.robust.confidence import Confidence, exit_code
from repro.semantics.events import EVENT_DONE, format_trace
from repro.semantics.random_run import random_run
from repro.semantics.thread import SemanticsConfig
from repro.semantics.witness import find_witness


def _load(path: str, structured: bool = False) -> Program:
    """Load a program file: CSimpRTL by default; the structured CSimp
    surface syntax with ``--csimp`` or for ``*.csimp`` files."""
    with open(path) as handle:
        source = handle.read()
    return load_source(source, structured or path.endswith(".csimp"))


def _config(args: argparse.Namespace) -> SemanticsConfig:
    por = getattr(args, "por", None)
    if por is None:
        por = getattr(args, "por_default", "none")
    config = semantics_config(
        promises=getattr(args, "promises", 0),
        por=por,
        max_states=getattr(args, "max_states", None),
    )
    deadline = getattr(args, "deadline", None)
    memory_mb = getattr(args, "memory_mb", None)
    if deadline is not None or memory_mb is not None:
        config = _dc_replace(
            config, budget=Budget(deadline_seconds=deadline, memory_mb=memory_mb)
        )
    return config


def cmd_explore(args: argparse.Namespace) -> int:
    """``explore`` — print the exhaustive outcome/trace sets.

    ``--checkpoint PATH`` persists the BFS frontier periodically (and on
    a budget trip); ``--resume PATH`` continues a previous run from such
    a file.  A truncated exploration exits 3, never claiming a proof.
    """
    from repro.semantics.exploration import Explorer

    program = _load(args.file, args.csimp)
    config = _config(args)
    if args.resume:
        from repro.robust.checkpoint import load_checkpoint

        checkpoint = load_checkpoint(args.resume)
        explorer = Explorer.resume(checkpoint, program, config)
        print(f"resumed: {checkpoint}")
    else:
        explorer = Explorer(program, config, nonpreemptive=args.np)
    profiler = None
    if args.profile:
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


def _file_case(
    kind: str,
    path: str,
    options: Dict[str, Any],
    config: Optional[SemanticsConfig],
    cache_root: Optional[str],
    budget: Optional[Budget] = None,
) -> Dict[str, Any]:
    """Run one job on one file (module-level so the sweep pool can run it).

    ``config`` is ``None`` for litmus files, whose ``//!`` directives
    select the semantics.  With ``--cache DIR`` the verdict comes from,
    and goes to, the shared store (see :mod:`repro.jobs`).
    """
    with open(path) as handle:
        source = handle.read()
    if path.endswith(".csimp"):
        options = dict(options, csimp=True)
    if config is None:
        config = job_config(kind, source)
    if budget is not None:  # the sweep pool's share of the sweep deadline
        config = _dc_replace(config, budget=budget)
    store = None
    if cache_root:
        from repro.serve.store import ContentStore

        store = ContentStore(cache_root)
    return cached_job(store, kind, source, options, config)


def _run_file_sweep(kind, files, options, config, args, budget=None):
    """Run one job kind over many files.

    Returns ``[(name, ok, record, error), ...]`` in sorted-name order.
    The serial, budget-free path calls the case directly so parse/IO
    errors keep their historical exit-2 route through :func:`main`; with
    ``--jobs`` or a budget it goes through the sweep pool, which captures
    per-file faults and splits the sweep-wide deadline across jobs.
    """
    if args.jobs <= 1 and budget is None:
        return [
            (path, True, _file_case(kind, path, options, config, args.cache), None)
            for path in files
        ]
    from repro.perf.pool import SweepJob, run_sweep

    sweep = run_sweep(
        [
            SweepJob(path, _file_case, (kind, path, options, config, args.cache))
            for path in files
        ],
        jobs_n=args.jobs,
        budget=budget,
    )
    return [(o.name, o.ok, o.value, o.error) for o in sweep.outcomes]


def cmd_races(args: argparse.Namespace) -> int:
    """``races`` — ww-RF verdict plus read-write race witnesses, from the
    race ladder: the static tiers first (a program they discharge is
    PROVED with 0 states), one exploration for whatever they leave open.

    Accepts several files; with ``--jobs N`` they are checked in
    parallel.  The exit code is the worst verdict across files."""
    config = _config(args)
    files = sorted(dict.fromkeys(args.file))
    options = {"csimp": args.csimp, "np": args.np}
    records = _run_file_sweep("races", files, options, config, args, config.budget)
    failed = False
    confidences: List[Confidence] = []
    for path, ok, record, error in records:
        prefix = f"{path}: " if len(files) > 1 else ""
        if not ok:
            print(f"{prefix}ERROR: {error}")
            failed = True
            continue
        for line in record["lines"]:
            print(prefix + line)
        if record["ok"] and not record["exhaustive"]:
            print(prefix + "WARNING: exploration TRUNCATED — race freedom not proved")
        if not record["ok"]:
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

    program = _load(args.file, args.csimp)
    t0 = time.perf_counter()
    lint = lint_program(program)
    t1 = time.perf_counter()
    ww = analyze_ww_races(program)
    t2 = time.perf_counter()
    rw = analyze_rw_races(program)
    t3 = time.perf_counter()
    crossing = _crossing_matrix(program)
    t4 = time.perf_counter()
    if args.json:
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


def cmd_validate(args: argparse.Namespace) -> int:
    """``validate`` — run an optimizer and translation-validate it.

    A ``--deadline`` / ``--memory-mb`` budget covers the source and the
    target exploration together; a trip answers from the partial graphs,
    and the exit code reports the resulting confidence (0 PROVED,
    3 BOUNDED).

    Accepts several files; with ``--jobs N`` they are validated in
    parallel and the exit code is the worst verdict across files.
    """
    config = _config(args)
    files = sorted(dict.fromkeys(args.file))
    options = {
        "opt": args.opt, "csimp": args.csimp, "strict": args.strict,
        "no_wwrf": args.no_wwrf, "rw": args.rw,
        "static_tier": args.static_tier,
    }
    records = _run_file_sweep("validate", files, options, config, args, config.budget)
    failed = False
    confidences: List[Confidence] = []
    for path, ok, record, error in records:
        prefix = f"{path}: " if len(files) > 1 else ""
        if not ok:
            print(f"{prefix}ERROR: {error}")
            failed = True
            continue
        print(f"{prefix}{record['detail']}")
        if args.show:
            program = _load(path, args.csimp)
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
    program = _load(args.file, args.csimp)
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
    program = _load(args.file, args.csimp)
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
    store = None
    if args.cache:
        from repro.serve.store import ContentStore

        store = ContentStore(args.cache)
    report = fuzz_optimizer(
        optimizer,
        seeds,
        gen,
        check_wwrf=not args.no_wwrf,
        check_machine_equivalence=args.check_equivalence,
        jobs=args.jobs,
        store=store,
        budget=budget,
    )
    print(report)
    for failure in report.failures:
        print(f"--- {failure} ---")
        print(failure.source_text)
    return 0 if report.ok else 1


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
    records = _run_file_sweep("litmus", files, {}, None, args, budget)
    ok = True
    cached = 0
    for path, job_ok, record, error in records:
        if not job_ok:
            print(f"{path}: ERROR {error}")
            ok = False
            continue
        result = judge_spec(record["failures"], record["observed"], record["exhaustive"])
        print(f"{path}: {result}")
        cached += record["cached"]
        if not result.ok:
            ok = False
        if args.show_outcomes:
            for outcome in result.observed:
                print(f"  observed {outcome}")
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
                       help="persistent verdict store (shared with serve "
                            "--store): reuse exhaustively-proved verdicts "
                            "for unchanged programs")

    def files(p: argparse.ArgumentParser, multi: bool = False) -> None:
        if multi:
            p.add_argument("file", nargs="+",
                           help="CSimpRTL source file(s) (or CSimp with "
                                "--csimp / *.csimp)")
        else:
            p.add_argument("file", help="CSimpRTL source file (or CSimp with --csimp / *.csimp)")
        p.add_argument("--csimp", action="store_true",
                       help="parse the structured CSimp surface syntax")

    def machine(p: argparse.ArgumentParser, np: bool = True) -> None:
        p.add_argument("--promises", type=int, default=0, metavar="N",
                       help="enable a syntactic promise oracle with budget N")
        if np:
            p.add_argument("--np", action="store_true",
                           help="use the non-preemptive machine")

    def exploration(p: argparse.ArgumentParser) -> None:
        p.add_argument("--por", default=None, choices=["none", "dpor"],
                       help="partial-order reduction: 'none' (every "
                            "interleaving) or 'dpor' (persistent-set POR; "
                            "behavior- and race-preserving, interleaving "
                            "machine only).  Default: dpor for explore, "
                            "validate and races; none for witness")
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
    files(p)
    machine(p)
    exploration(p)
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

    p = sub.add_parser("races", help="race detection (static tiers first)")
    files(p, multi=True)
    machine(p)
    exploration(p)
    sweep_options(p)
    p.set_defaults(func=cmd_races, por_default="dpor")

    p = sub.add_parser("analyze", help="static analyses only (lint + "
                       "thread-modular ww/rw-race detection)")
    files(p)
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON object (verdicts, "
                        "witnesses, per-analysis timings) instead of text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="optimize + translation-validate")
    files(p, multi=True)
    machine(p, np=False)
    exploration(p)
    sweep_options(p)
    p.add_argument("--opt", default="pipeline", choices=OPTIMIZER_CHOICES,
                   help="the optimizer to validate (default: pipeline)")
    p.add_argument("--static-tier", action="store_true",
                   help="tiered validation: run the static certifier "
                        "first (zero states on CERTIFIED), explore only "
                        "on INCONCLUSIVE")
    p.add_argument("--show", action="store_true", help="print the transformed program")
    p.add_argument("--no-wwrf", action="store_true",
                   help="skip the ww-RF preservation check")
    p.add_argument("--strict", action="store_true",
                   help="reject malformed or crossing-illegal optimizer "
                        "output (StrictModeViolation)")
    p.add_argument("--rw", action="store_true",
                   help="also report the rw-race census of source and "
                        "target (informational: rw-races never fail "
                        "validation, but introductions are reported)")
    p.set_defaults(func=cmd_validate, por_default="dpor")

    p = sub.add_parser("run", help="randomized executions")
    files(p)
    machine(p)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("witness", help="find a schedule for a trace")
    files(p)
    machine(p)
    exploration(p)
    p.add_argument("--trace", required=True,
                   help='comma-separated outputs, e.g. "0,1,done"')
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("fmt", help="parse and pretty-print")
    p.add_argument("file")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("fuzz", help="differential fuzzing of an optimizer")
    sweep_options(p)
    p.add_argument("--opt", default="pipeline", choices=OPTIMIZER_CHOICES)
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
