"""The job layer: one way to run, key, and store a verification verdict.

The CLI sweeps (``repro litmus`` / ``validate`` / ``races`` / ``fuzz``),
:func:`repro.litmus.spec.run_spec_file`, and every rung of the service
supervisor run per-program work through :func:`run_job` and keep its
verdict in one :class:`~repro.serve.store.ContentStore` under one
:func:`verdict_key`.  A verdict earned on any of these paths answers all
of them.

* :data:`OPTIMIZERS` / :func:`get_optimizer` — the optimizer registry
  (``--opt NAME`` on the CLI, ``"opt"`` in a service batch);
* :func:`load_source` — CSimpRTL (or structured CSimp) text to a program;
* :func:`semantics_config` — the options→``SemanticsConfig`` mapping
  behind ``--promises`` / ``--por`` / ``--max-states``, and
  :func:`job_config`, the configuration a job runs under when its caller
  picks none (the service always; ``repro litmus`` always);
* :func:`run_job` — one ``litmus`` / ``validate`` / ``races`` check to a
  JSON-shaped record, on one rung of the :data:`LADDER`; a races job
  runs the race ladder (:func:`repro.races.check_races_tiered`), whose
  static tiers answer with 0 states whenever they discharge both kinds;
* :func:`verdict_key` / :func:`cached_job` / :func:`remember` — the store.

**The degradation ladder** (:data:`LADDER`) is the one way a job trades
proof for an answer: ``exhaustive`` may earn ``PROVED``; ``bounded``
reruns under the :data:`BOUNDED_MAX_STATES` cap (at best ``BOUNDED``);
``sampled`` decides from :data:`SAMPLE_RUNS` randomized runs, or for a
race check from the static analysis (at best ``SAMPLED``).  A job's
budget is pinned when :func:`run_job` starts, so every exploration and
every sampled run in it meters against what is left of one clock (a
validation splits it between source and target, see
:func:`repro.sim.validate.validate_optimizer`).  A
rung that trips its budget answers from its partial work, capped at
``BOUNDED``; only a rung that dies (the service's forked worker is
killed or crashes) sends the job down to the next rung.

**Only PROVED verdicts are stored** (:func:`remember`, the one place the
rule lives).  A PROVED verdict is a statement about the program's whole
behavior set (Thm 6.5/6.6 compare behavior *sets*), so it holds under
any budget — which is why the budget is left out of the key.  A BOUNDED
or SAMPLED answer is an artifact of the budget that cut it; storing it
would let a smoke-test budget poison a later thorough run.

A record carries ``ok`` / ``exhaustive`` / ``confidence`` / ``detail`` /
``cached`` for every kind, plus ``failures`` and ``observed`` (litmus:
``ok`` judges the clauses alone, and :func:`repro.litmus.spec.judge_spec`
adds the CLI's rule that a truncated run fails), ``lines`` (races: the
CLI's report lines), and ``changed`` / ``definitive`` (validate).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, Mapping, Optional

from repro.lang.parser import ParseError, parse_program
from repro.lang.syntax import Program
from repro.opt.base import Optimizer, compose
from repro.opt.cleanup import Cleanup
from repro.opt.constprop import ConstProp
from repro.opt.copyprop import CopyProp
from repro.opt.cse import CSE
from repro.opt.dce import DCE
from repro.opt.licm import LICM, LInv
from repro.opt.merge import Merge
from repro.opt.reorder import Reorder
from repro.opt.unroll import Peel
from repro.opt.unused_read import UnusedRead
from repro.robust.confidence import Confidence
from repro.semantics import version
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig

JOB_KINDS = ("litmus", "validate", "races")

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

#: Every name :func:`get_optimizer` accepts.
OPTIMIZER_CHOICES = sorted(OPTIMIZERS) + ["pipeline"]

#: Every option a job kind reads, with its default.  Only options that
#: differ from their default enter the key, so ``{"np": false}`` and
#: ``{}`` name the same job, and a kind ignores options it does not read.
#: ``equivalence`` (validate) is the promise budget of the fuzz
#: campaign's Thm 4.1 spot check (0: off).
OPTION_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "litmus": {"csimp": False},
    "validate": {
        "opt": "pipeline", "csimp": False, "no_wwrf": False, "strict": False,
        "static_tier": False, "rw": False, "equivalence": 0,
    },
    "races": {"csimp": False, "np": False},
}

RUNG_EXHAUSTIVE = "exhaustive"
RUNG_BOUNDED = "bounded"
RUNG_SAMPLED = "sampled"

#: The best confidence each rung of the ladder can earn.
RUNG_CONFIDENCE = {
    RUNG_EXHAUSTIVE: Confidence.PROVED,
    RUNG_BOUNDED: Confidence.BOUNDED,
    RUNG_SAMPLED: Confidence.SAMPLED,
}

#: The rungs in the order a job falls down them.
LADDER = (RUNG_EXHAUSTIVE, RUNG_BOUNDED, RUNG_SAMPLED)

#: The bounded rung's state cap.
BOUNDED_MAX_STATES = 5_000

#: The sampled rung's randomized runs, and the steps each may take.
SAMPLE_RUNS = 32
SAMPLE_MAX_STEPS = 500


def get_optimizer(name: str) -> Optimizer:
    """A fresh optimizer by registry name (``pipeline`` is the composed
    ConstProp → CSE → CopyProp → DCE → Cleanup pass)."""
    if name == "pipeline":
        return compose(
            compose(compose(compose(ConstProp(), CSE()), CopyProp()), DCE()),
            Cleanup(),
        )
    factory = OPTIMIZERS.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ValueError(f"unknown optimizer {name!r}; choose from {OPTIMIZER_CHOICES}")
    return factory()


def load_source(source: str, structured: bool = False) -> Program:
    """Parse program text: CSimpRTL by default, CSimp when ``structured``."""
    try:
        if structured:
            from repro.csimp import lower_program, parse_csimp

            return lower_program(parse_csimp(source))
        return parse_program(source)
    except ValueError as exc:
        # Constructor validation (e.g. an unresolved jump target) fires
        # during parsing; surface it like a parse error, not a traceback.
        raise ParseError(str(exc)) from exc


def semantics_config(
    promises: int = 0,
    por: str = "none",
    max_states: Optional[int] = None,
) -> SemanticsConfig:
    """The options→``SemanticsConfig`` mapping (no budget attached)."""
    kwargs: Dict[str, Any] = {}
    if promises:
        kwargs["promise_oracle"] = SyntacticPromises(
            budget=promises, max_outstanding=promises
        )
    if por == "dpor":
        kwargs["por"] = "dpor"
    if max_states is not None:
        kwargs["max_states"] = max_states
    return SemanticsConfig(**kwargs)


def job_config(kind: str, source: str) -> SemanticsConfig:
    """The configuration a job runs under when its caller picks none.

    Every job runs under DPOR, which preserves both the behavior sets
    litmus checks and refinement compare and the races the scans find
    (:mod:`repro.semantics.dpor`, "Race scans").  A litmus source selects
    the rest (``//! promises: N``).
    """
    if kind == "litmus":
        from repro.litmus.spec import spec_header

        return replace(spec_header(source).config(), por="dpor")
    return semantics_config(por="dpor")


def job_options(kind: str, options: Mapping[str, Any]) -> Dict[str, Any]:
    """Every option ``kind`` reads: the given ones (coerced to the
    default's type) over the defaults."""
    defaults = OPTION_DEFAULTS[kind]
    return {
        name: type(default)(options[name]) if name in options else default
        for name, default in defaults.items()
    }


def verdict_key(
    kind: str, source: str, options: Mapping[str, Any], config: SemanticsConfig
) -> str:
    """The content address of one verdict: SHA-256 over the semantics
    version, the config digest, the kind, the canonical options (those
    that differ from their defaults), and the source text."""
    from repro.serve.store import content_key  # the serve package imports this one

    defaults = OPTION_DEFAULTS[kind]
    canonical = {
        name: value for name, value in job_options(kind, options).items()
        if value != defaults[name]
    }
    return content_key(
        version.SEMANTICS_VERSION,
        version.config_digest(config),
        kind,
        json.dumps(canonical, sort_keys=True),
        source,
    )


def remember(store, key: str, record: Dict[str, Any]) -> bool:
    """Store ``record`` at ``key`` if it is a proof; returns whether it was.

    The one place the store rule lives: only an exhaustive record whose
    confidence is PROVED may be reused.
    """
    if (
        store is None
        or not record["exhaustive"]
        or record["confidence"] != str(Confidence.PROVED)
    ):
        return False
    store.put(key, record)
    return True


def cached_job(
    store,
    kind: str,
    source: str,
    options: Mapping[str, Any],
    config: SemanticsConfig,
    optimizer: Optional[Optimizer] = None,
) -> Dict[str, Any]:
    """:func:`run_job`, answered from ``store`` when it holds the verdict
    (the record then reads ``cached=True``) and remembered there after."""
    if store is None:
        return run_job(kind, source, options, config, optimizer)
    key = verdict_key(kind, source, options, config)
    hit = store.get(key)
    if hit is not None:
        return dict(hit, cached=True)
    record = run_job(kind, source, options, config, optimizer)
    remember(store, key, record)
    return record


def run_job(
    kind: str,
    source: str,
    options: Mapping[str, Any],
    config: SemanticsConfig,
    optimizer: Optional[Optimizer] = None,
    rung: str = RUNG_EXHAUSTIVE,
) -> Dict[str, Any]:
    """Run one check on one ``rung`` of the :data:`LADDER` to a
    JSON-shaped record (see the module docstring).

    ``config.budget`` is pinned here, once per job.  ``optimizer``
    overrides the ``opt`` option's registry lookup for a validate job
    (the fuzz campaign validates arbitrary passes); the key still names
    it by ``opt``.  Parse errors propagate.
    """
    options = job_options(kind, options)
    if config.budget is not None:
        config = replace(config, budget=config.budget.pinned())
    if rung == RUNG_SAMPLED:
        return _sampled(kind, source, options, config, optimizer)
    if rung == RUNG_BOUNDED:
        config = replace(config, max_states=min(config.max_states, BOUNDED_MAX_STATES))
    if kind == "litmus":
        return _litmus(source, options, config)
    program = load_source(source, options["csimp"])
    if kind == "validate":
        return _validate(program, options, config, optimizer)
    return _races(program, options, config)


def _job_optimizer(options: Dict[str, Any], optimizer: Optional[Optimizer]) -> Optimizer:
    """A validate job's pass: ``optimizer`` or the ``opt`` registry entry,
    behind the strict gate when ``strict`` is set."""
    optimizer = optimizer or get_optimizer(options["opt"])
    if options["strict"]:
        from repro.opt.base import strict_optimizer

        optimizer = strict_optimizer(optimizer)
    return optimizer


def _litmus(source: str, options: Dict[str, Any], config: SemanticsConfig) -> Dict[str, Any]:
    from repro.litmus.spec import SpecResult, parse_spec, spec_failures
    from repro.semantics.exploration import behaviors

    spec = parse_spec(source, structured=options["csimp"])
    bset = behaviors(spec.program, config)
    observed = frozenset(bset.outputs())
    failures = spec_failures(spec, observed)
    outcomes = tuple(sorted(observed))
    clauses = SpecResult(not failures, tuple(failures), outcomes, bset.exhaustive)
    return {
        "ok": clauses.ok,
        "exhaustive": bset.exhaustive,
        "confidence": str(Confidence.PROVED if bset.exhaustive else Confidence.BOUNDED),
        "detail": str(clauses),
        "failures": failures,
        "observed": [list(o) for o in outcomes],
        "cached": False,
    }


def _validate(
    program: Program,
    options: Dict[str, Any],
    config: SemanticsConfig,
    optimizer: Optional[Optimizer],
) -> Dict[str, Any]:
    from repro.sim.validate import TieredValidationReport, validate_optimizer, validate_tiered

    optimizer = _job_optimizer(options, optimizer)
    check_wwrf = not options["no_wwrf"]
    if options["static_tier"]:
        report = validate_tiered(
            optimizer, program, config, check_target_wwrf=check_wwrf,
            report_rw=options["rw"],
        )
    else:
        report = validate_optimizer(
            optimizer, program, config, check_target_wwrf=check_wwrf,
            report_rw=options["rw"],
        )
    # A tiered report wraps its exploration tier (None when certified).
    explored = report.report if isinstance(report, TieredValidationReport) else report
    record = {
        "ok": report.ok,
        "exhaustive": report.exhaustive,
        "confidence": str(report.confidence),
        "detail": str(report),
        "changed": report.changed,
        "definitive": explored is None or explored.refinement.definitive,
        "downgrade_reason": explored.source_wwrf.downgrade if explored else None,
        "explorations": (explored.explorations or 0) if explored else 0,
        "cached": False,
    }
    if options["equivalence"] and record["definitive"] and record["ok"]:
        _machine_equivalence(program, options["equivalence"], record, config.budget)
    return record


def _machine_equivalence(
    program: Program, promises: int, record: Dict[str, Any], budget
) -> None:
    """Thm 4.1 spot check: both machines under ``promises`` promises per
    thread.  The non-preemptive machine realizes mid-block write
    visibility only by promising the block's writes up front (paper
    Sec. 4), so equality holds in the bounded semantics exactly when the
    budget covers each block's writes: a shortfall counts as a
    ``budget_miss``, not a failure."""
    from repro.semantics.exploration import behaviors, np_behaviors

    config = replace(semantics_config(promises=promises, por="dpor"), budget=budget)
    interleaving = behaviors(program, config)
    nonpreemptive = np_behaviors(program, config)
    done = interleaving.exhaustive and nonpreemptive.exhaustive
    record["exhaustive"] = record["exhaustive"] and done
    record["budget_miss"] = False
    if not done:
        return
    if not nonpreemptive.traces <= interleaving.traces:
        # This direction holds at ANY promise budget: a genuine
        # soundness violation of the non-preemptive machine.
        record["ok"] = False
        record["detail"] = (
            "Thm 4.1 violation: NP produced a behavior the "
            "interleaving machine cannot"
        )
    elif interleaving.traces != nonpreemptive.traces:
        record["budget_miss"] = True


def _races(program: Program, options: Dict[str, Any], config: SemanticsConfig) -> Dict[str, Any]:
    from repro.races.tiered import check_races_tiered
    from repro.semantics.exploration import ExplorationSession

    # The race ladder: static rw and ww first, one shared exploration
    # only for the kinds they leave open; with ``np`` the ww verdict
    # reads the non-preemptive graph.
    session = ExplorationSession(config)
    ladder = check_races_tiered(program, nonpreemptive=options["np"], session=session)
    report = ladder.ww
    lines = [
        f"static rw tier: {ladder.static_rw}",
        f"static tier: {ladder.static_ww}",
        f"ww-RF: {report}",
    ]
    witnesses = ladder.rw.witnesses
    if witnesses:
        lines.append("read-write races:")
        lines.extend(
            f"  thread {w.tid} na-reads {w.loc!r} unobserved write" for w in witnesses
        )
    else:
        lines.append("read-write races: none")
    # The census is part of the answer: a truncated rw scan bounds it.
    return {
        "ok": report.race_free,
        "exhaustive": report.exhaustive and ladder.rw.exhaustive,
        "confidence": str(Confidence.weakest((report.confidence, ladder.rw.confidence))),
        "detail": "\n".join(lines),
        "lines": lines,
        "downgrade_reason": report.downgrade,
        "explorations": session.explorations,
        "cached": False,
    }


def _sampled(
    kind: str,
    source: str,
    options: Dict[str, Any],
    config: SemanticsConfig,
    optimizer: Optional[Optimizer],
) -> Dict[str, Any]:
    """The last rung: randomized runs for litmus and validate jobs, the
    static ww analysis for race checks."""
    sampled = str(Confidence.SAMPLED)
    if kind == "litmus":
        from repro.litmus.spec import parse_spec, spec_failures

        spec = parse_spec(source, structured=options["csimp"])
        observed = frozenset(sampled_behaviors(spec.program, config).outputs())
        failures = spec_failures(spec, observed)
        detail = (
            f"spec {'OK' if not failures else 'FAILED'} "
            f"({len(observed)} outcomes, {RUNG_SAMPLED})"
        )
        if failures:
            detail += ": " + "; ".join(failures)
        return {"ok": not failures, "exhaustive": False, "confidence": sampled,
                "detail": detail, "cached": False}
    program = load_source(source, structured=options["csimp"])
    if kind == "validate":
        target = _job_optimizer(options, optimizer).run(program)
        src = sampled_behaviors(program, config)
        tgt = src if target == program else sampled_behaviors(target, config)
        extra = tgt.traces - src.traces
        return {
            "ok": not extra,
            "exhaustive": False,
            "confidence": sampled,
            "detail": (
                f"sampled refinement ({len(tgt.traces)} target traces vs "
                f"{len(src.traces)} source): "
                + ("no new behaviors observed" if not extra
                   else f"{len(extra)} unmatched target traces")
            ),
            "cached": False,
        }
    # Race checks: the static thread-modular analysis — sound and cheap,
    # but incomplete.  An inconclusive verdict is *not* an answer;
    # raising turns it into an unanswered job rather than a guess.
    from repro.static import analyze_ww_races

    report = analyze_ww_races(program)
    if not report.race_free and report.witnesses:
        witnesses = "; ".join(str(w) for w in report.witnesses)
        return {"ok": False, "exhaustive": False, "confidence": sampled,
                "detail": f"static ww-analysis: {witnesses}", "cached": False}
    if not report.race_free:
        raise RuntimeError("static race analysis inconclusive")
    return {
        "ok": True,
        "exhaustive": False,
        "confidence": sampled,
        "detail": f"static ww-analysis: race-free "
                  f"({report.checked_pairs} pairs checked)",
        "cached": False,
    }


def sampled_behaviors(program: Program, config: SemanticsConfig):
    """A :class:`~repro.semantics.exploration.BehaviorSet` built from
    :data:`SAMPLE_RUNS` randomized executions.

    Each run contributes its trace and every prefix of it.  The result
    under-approximates the true set, is never ``exhaustive``, and
    carries ``stop_reason="sampled"`` so no consumer can mistake it for
    an exploration.  The runs meter against ``config.budget``, so the
    last rung cannot become the new hang; at least one run always
    completes.
    """
    from repro.robust.budget import BudgetExhausted
    from repro.semantics.exploration import BehaviorSet
    from repro.semantics.random_run import random_run

    meter = config.budget.start() if config.budget is not None else None
    traces = {()}
    try:
        for i in range(SAMPLE_RUNS):
            if meter is not None and i > 0:
                meter.tick()
            result = random_run(program, config, seed=i, max_steps=SAMPLE_MAX_STEPS)
            # Plain-int output labels, as the explorer records them.
            trace = tuple(
                item if isinstance(item, str) else int(item) for item in result.trace
            )
            for prefix_len in range(len(trace) + 1):
                traces.add(trace[:prefix_len])
    except BudgetExhausted:
        pass
    finally:
        if meter is not None:
            meter.close()
    return BehaviorSet(
        traces=frozenset(traces),
        exhaustive=False,
        state_count=0,
        stop_reason=RUNG_SAMPLED,
    )
