"""Translation validation of optimizers (paper Def. 6.4, Thm. 6.5/6.6,
checked empirically).

``Correct(Opt)`` requires, for every ww-race-free, safe source program:
``Opt(π_s, ι) = π_t ⟹ P_t ⊆ P_s``.  The paper proves this deductively via
the simulation; this module checks it *per program* by exhaustive behavior
comparison, plus the two meta-properties the paper's framework guarantees:

* preservation of write-write race freedom (needed to vertically compose
  optimizers, Lemma 6.2);
* preservation of the atomics set ``ι`` (optimizers never touch atomic
  variables).

Race-freedom of source and target is established through the race
ladder (:func:`repro.races.check_races_tiered`).  Refinement on the
interleaving machine explores both programs anyway, so the race verdicts
are read off those graphs, and the thread-modular static tiers are asked
only when a graph is truncated.  Pass ``static_tier=False`` to force pure
exploration.

``validate_corpus`` sweeps a seed range of randomly generated ww-RF
programs through an optimizer — the E-THM66 experiment.

A report whose underlying exploration was *truncated* (state budget hit)
is not a proof; :attr:`ValidationReport.exhaustive` surfaces this so
callers (the CLI in particular) never report a bounded run as definitive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.lang.syntax import Program
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.opt.base import Optimizer
from repro.races.ladder import TierOutcome, format_tiers
from repro.races.rwrace import RwReport
from repro.races.tiered import check_races_tiered
from repro.races.wwrf import RaceReport
from repro.robust.confidence import Confidence, derive_confidence
from repro.semantics.exploration import Explorer
from repro.semantics.thread import SemanticsConfig
from repro.sim.refinement import RefinementResult, compare_behaviors

if TYPE_CHECKING:  # runtime imports would cycle through repro.sim
    from repro.sim.invariant import Invariant
    from repro.sim.simulation import SimCheckConfig, SimulationResult
    from repro.static.certify import CertificateReport


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of validating one optimizer run on one program.

    ``confidence`` tags how strong the evidence is (PR 1's boolean
    ``exhaustive`` flag generalized): ``PROVED`` for an exhaustive run,
    ``BOUNDED`` for a truncated one, ``SAMPLED`` when the degradation
    ladder fell back to randomized runs.  The constructor *enforces* the
    pipeline invariant that a non-exhaustive report can never claim
    ``PROVED`` — an explicit claim is downgraded to ``BOUNDED``.
    """

    optimizer: str
    refinement: RefinementResult
    source_wwrf: RaceReport
    target_wwrf: Optional[RaceReport]
    changed: bool
    confidence: Optional[Confidence] = None
    #: rw-race census of source/target (``validate_optimizer(report_rw=True)``,
    #: via the tiered checker).  Informational: the paper *allows* rw-races,
    #: so they never affect ``ok`` — but an optimizer introducing one is
    #: exactly Fig. 5's LInv phenomenon, surfaced by :meth:`introduced_rw`.
    source_rw: Optional[RwReport] = None
    target_rw: Optional[RwReport] = None
    #: State graphs the validation built (``None`` for reports assembled
    #: elsewhere): one per distinct program, so 1 for an unchanged target.
    explorations: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "confidence", derive_confidence(self.exhaustive, self.confidence)
        )

    @property
    def ok(self) -> bool:
        """Correctness verdict: either the ww-RF precondition fails (the
        theorem is vacuous for this source) or refinement holds — is not
        refuted, when the source was truncated — and ww-RF is preserved."""
        if not self.source_wwrf.race_free:
            return True  # precondition violated: nothing to check
        preserved = self.target_wwrf is None or self.target_wwrf.race_free
        return self.refinement.holds and preserved

    @property
    def exhaustive(self) -> bool:
        """Whether every sub-check ran to completion — only then is an
        ``ok`` verdict a proof rather than a bounded smoke test.

        Note ``target_wwrf`` is compared with ``is not None``: a
        ``RaceReport`` is falsy when racy, so truthiness would silently
        skip the truncation check exactly on racy targets.
        """
        source_done = self.source_wwrf.exhaustive
        target_done = self.target_wwrf is None or self.target_wwrf.exhaustive
        return self.refinement.definitive and source_done and target_done

    def introduced_rw(self) -> Optional[Tuple[Tuple[int, str], ...]]:
        """``(tid, loc)`` rw-race pairs present in the target but not the
        source (``None`` when rw reporting was off).  Optimizers preserve
        thread indices, so pairwise comparison is meaningful."""
        if self.source_rw is None or self.target_rw is None:
            return None
        source_pairs = {(w.tid, w.loc) for w in self.source_rw.witnesses}
        return tuple(
            sorted(
                (w.tid, w.loc)
                for w in self.target_rw.witnesses
                if (w.tid, w.loc) not in source_pairs
            )
        )

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        status = "OK" if self.ok else "FAIL"
        if self.ok and not self.exhaustive:
            status = "OK?"  # bounded: not a proof
        change = "transformed" if self.changed else "unchanged"
        suffix = "" if self.exhaustive else " [TRUNCATED]"
        text = (
            f"[{status}] {self.optimizer}: {change}; {self.refinement}{suffix} "
            f"confidence={self.confidence}"
        )
        introduced = self.introduced_rw()
        if introduced is not None:
            text += f"; rw-races introduced: {len(introduced)}"
        return text


def validate_optimizer(
    optimizer: Optimizer,
    source: Program,
    config: Optional[SemanticsConfig] = None,
    check_target_wwrf: bool = True,
    static_tier: bool = True,
    report_rw: bool = False,
    target: Optional[Program] = None,
) -> ValidationReport:
    """Validate one optimizer run: refinement + ww-RF preservation.

    Each distinct program is explored once, on the interleaving machine:
    its graph answers refinement and, through
    :func:`repro.races.check_races_tiered`, the race checks, which ask the
    static tiers (``static_tier``, default on) only when the graph is
    truncated.  A target equal to its source reuses every source verdict.
    ``report_rw`` additionally attaches the rw-race census of source and
    target for diagnostics; rw-races never affect the verdict.
    ``target`` is the optimizer's output when the caller already ran it.

    Under a pinned budget (one clock per job) the source of a changed
    target takes at most half of what is left of the deadline, the target
    the rest; each graph's trace salvage runs inside its own share.
    """
    config = config or SemanticsConfig()
    if target is None:
        target = optimizer.run(source)
    if target.atomics != source.atomics:
        raise AssertionError(f"{optimizer.name} changed the atomics set ι")
    changed = target != source
    source_config = config
    if changed and config.budget is not None:
        source_config = replace(config, budget=config.budget.share(0.5))
    source_graph = Explorer(source, source_config)
    source_behaviors = source_graph.behaviors()
    target_graph, target_behaviors = source_graph, source_behaviors
    if changed:
        target_graph = Explorer(target, config)
        target_behaviors = target_graph.behaviors()

    def race_checks(program: Program, graph: Explorer) -> Tuple[RaceReport, Optional[RwReport]]:
        ladder = check_races_tiered(program, static_tier=static_tier, graph=graph)
        return ladder.ww, ladder.rw if report_rw else None

    source_wwrf, source_rw = race_checks(source, source_graph)
    want_target_wwrf = check_target_wwrf and source_wwrf.race_free
    target_wwrf: Optional[RaceReport] = None
    target_rw: Optional[RwReport] = None
    if not changed:
        target_rw = source_rw
        target_wwrf = source_wwrf if want_target_wwrf else None
    elif want_target_wwrf or report_rw:
        target_wwrf, target_rw = race_checks(target, target_graph)
        if not want_target_wwrf:
            target_wwrf = None
    refinement = compare_behaviors(target_behaviors, source_behaviors)
    return ValidationReport(
        optimizer=optimizer.name,
        refinement=refinement,
        source_wwrf=source_wwrf,
        target_wwrf=target_wwrf,
        changed=changed,
        source_rw=source_rw,
        target_rw=target_rw,
        explorations=1 + changed,
    )


@dataclass(frozen=True)
class TieredValidationReport:
    """The outcome of the tiered validation ladder on one program.

    Tier 0 (:func:`repro.static.certify.certify_transformation`) either
    **certifies** the transformation statically — then ``report`` is
    ``None``, zero states were explored, and the verdict is a proof
    (``confidence == PROVED``) — or is inconclusive, in which case
    ``report`` carries the full exploration-based
    :class:`ValidationReport` with its usual confidence semantics.
    """

    optimizer: str
    certificate: "CertificateReport"
    report: Optional[ValidationReport]
    changed: bool
    tiers: Tuple[TierOutcome, ...] = ()

    @property
    def method(self) -> str:
        """``"static"`` when tier 0 decided, else ``"exploration"``."""
        return "static" if self.certificate.certified else "exploration"

    @property
    def ok(self) -> bool:
        if self.certificate.certified:
            return True
        assert self.report is not None
        return self.report.ok

    @property
    def exhaustive(self) -> bool:
        """A certificate is a proof; otherwise defer to the exploration."""
        if self.certificate.certified:
            return True
        assert self.report is not None
        return self.report.exhaustive

    @property
    def confidence(self) -> Confidence:
        if self.certificate.certified:
            return Confidence.PROVED
        assert self.report is not None
        assert self.report.confidence is not None
        return self.report.confidence

    @property
    def behavior_count(self) -> int:
        """Behaviors the exploration tier enumerated (0 for a static
        proof — tier 0 never builds a state)."""
        if self.report is None:
            return 0
        refinement = self.report.refinement
        return len(refinement.target_behaviors.traces) + len(
            refinement.source_behaviors.traces
        )

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        change = "transformed" if self.changed else "unchanged"
        if self.certificate.certified:
            head = (
                f"[OK] {self.optimizer}: {change}; statically certified "
                f"({self.certificate.invariant}) confidence=proved"
            )
        else:
            head = f"{self.report} [tier 0 inconclusive]"
        trail = format_tiers(self.tiers)
        return f"{head}\n{trail}" if trail else head


def validate_tiered(
    optimizer: Optimizer,
    source: Program,
    config: Optional[SemanticsConfig] = None,
    check_target_wwrf: bool = True,
    report_rw: bool = False,
) -> TieredValidationReport:
    """Tiered translation validation, mirroring
    :func:`repro.races.check_races_tiered`: the static certifier first
    (zero states), exhaustive :func:`validate_optimizer` only when it is
    inconclusive.  The soundness contract — a CERTIFIED verdict agrees
    with what exploration would prove — is validated by the Hypothesis
    mirror in ``tests/static/test_certify_soundness.py`` and the
    E-STATIC-VALIDATE benchmark.
    """
    from repro.static.certify import certify_transformation

    target = optimizer.run(source)
    if target.atomics != source.atomics:
        raise AssertionError(f"{optimizer.name} changed the atomics set ι")
    started = time.perf_counter()
    certificate = certify_transformation(optimizer, source, target)
    tiers = [
        TierOutcome(
            "static-certify",
            time.perf_counter() - started,
            certificate.certified,
            str(certificate.verdict),
        )
    ]
    changed = target != source
    if certificate.certified:
        return TieredValidationReport(
            optimizer.name, certificate, None, changed, tuple(tiers)
        )
    started = time.perf_counter()
    report = validate_optimizer(
        optimizer,
        source,
        config,
        check_target_wwrf=check_target_wwrf,
        report_rw=report_rw,
        target=target,
    )
    tiers.append(TierOutcome(
        "exploration",
        time.perf_counter() - started,
        True,
        f"{len(report.refinement.target_behaviors.traces)} target behaviors, "
        f"{report.explorations} state graph(s)",
    ))
    return TieredValidationReport(
        optimizer.name, certificate, report, changed, tuple(tiers)
    )


def verify_optimizer_by_simulation(
    optimizer: Optimizer,
    source: Program,
    invariant: "Invariant",
    sem_config: Optional[SemanticsConfig] = None,
    check_config: Optional["SimCheckConfig"] = None,
) -> Dict[str, "SimulationResult"]:
    """``Verif(Opt)`` for one program (paper Def. 6.3), executably: run the
    optimizer and check the thread-local simulation ``I, ι |= π_t ≼ π_s``
    for every thread-entry function, with the caller-chosen invariant.

    Returns a mapping ``function name → SimulationResult``.  This is the
    stronger, per-thread check of Sec. 6 (as opposed to whole-program
    refinement): by Lemma 6.2 + Thm. 6.5 it implies refinement for every
    ww-RF composition of the same functions, not just this program.
    """
    from repro.sim.simulation import SimCheckConfig, check_thread_simulation

    target = optimizer.run(source)
    results = {}
    for func in sorted(set(source.threads)):
        results[func] = check_thread_simulation(
            source,
            target,
            func,
            invariant,
            sem_config,
            check_config or SimCheckConfig(),
        )
    return results


@dataclass(frozen=True)
class CorpusResult:
    """Aggregate of a corpus sweep.

    ``confidence`` is the *weakest* per-program confidence in the sweep:
    the corpus verdict is only as strong as its weakest member, so a
    single bounded or sampled program demotes the whole aggregate.
    """

    optimizer: str
    total: int
    transformed: int
    failures: Tuple[Tuple[int, str], ...]
    confidence: Confidence = Confidence.PROVED
    #: Programs tier 0 certified without exploration (tiered sweeps only).
    static_discharged: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def static_fraction(self) -> float:
        """Share of the corpus discharged statically (0.0 when untiered)."""
        return self.static_discharged / self.total if self.total else 0.0

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        text = (
            f"corpus[{self.optimizer}]: {self.total} programs, "
            f"{self.transformed} transformed, {status}, "
            f"confidence={self.confidence}"
        )
        if self.static_discharged:
            text += f", {self.static_discharged} statically certified"
        return text


def _corpus_case(
    optimizer: Optimizer,
    seed: int,
    generator_config: GeneratorConfig,
    config: Optional[SemanticsConfig],
    check_target_wwrf: bool,
    static_tier: bool,
    tiered: bool = False,
) -> Tuple[int, bool, bool, str, Confidence, str]:
    """Validate one corpus seed (module-level for the sweep pool)."""
    source = random_wwrf_program(seed, generator_config)
    if tiered:
        tiered_report = validate_tiered(
            optimizer, source, config, check_target_wwrf=check_target_wwrf
        )
        return (
            seed,
            tiered_report.changed,
            tiered_report.ok,
            str(tiered_report),
            tiered_report.confidence,
            tiered_report.method,
        )
    report = validate_optimizer(
        optimizer,
        source,
        config,
        check_target_wwrf=check_target_wwrf,
        static_tier=static_tier,
    )
    return (
        seed, report.changed, report.ok, str(report), report.confidence,
        "exploration",
    )


def validate_corpus(
    optimizer: Optimizer,
    seeds: Sequence[int],
    generator_config: GeneratorConfig = GeneratorConfig(),
    config: Optional[SemanticsConfig] = None,
    check_target_wwrf: bool = True,
    static_tier: bool = True,
    jobs: int = 1,
    tiered: bool = False,
) -> CorpusResult:
    """Sweep ``seeds`` through the generator and validate each program.

    ``tiered`` routes every seed through :func:`validate_tiered`: the
    static certifier first, exploration only on INCONCLUSIVE — the
    result records how many programs tier 0 discharged
    (:attr:`CorpusResult.static_discharged`).

    ``jobs > 1`` fans seeds across worker processes via
    :func:`repro.perf.pool.run_sweep`; aggregation is seed-ordered, so
    the result is identical at any parallelism level.

    Against pathological programs: with ``jobs > 1`` a seed whose
    worker dies (crash, OOM kill) costs only its own verdict, and a
    ``config.budget`` turns a hang into a truncated ``BOUNDED`` verdict.
    The service (:mod:`repro.serve.supervisor`) adds per-attempt
    timeouts and the degradation ladder of :mod:`repro.jobs`.
    """
    from repro.perf.pool import SweepJob, run_sweep

    seed_list = list(seeds)
    sweep = run_sweep(
        [
            SweepJob(
                name=f"seed-{seed:010d}",
                fn=_corpus_case,
                args=(
                    optimizer, seed, generator_config, config,
                    check_target_wwrf, static_tier, tiered,
                ),
            )
            for seed in seed_list
        ],
        jobs_n=jobs,
    )
    transformed = 0
    static_discharged = 0
    failures: List[Tuple[int, str]] = []
    confidence = Confidence.PROVED
    for outcome in sweep.outcomes:
        if not outcome.ok:
            seed = int(outcome.name.split("-", 1)[1])
            failures.append((seed, f"job error: {outcome.error}"))
            confidence = Confidence.weakest((confidence, Confidence.BOUNDED))
            continue
        seed, changed, ok, text, report_confidence, method = outcome.value
        if changed:
            transformed += 1
        if method == "static":
            static_discharged += 1
        if not ok:
            failures.append((seed, text))
        confidence = Confidence.weakest((confidence, report_confidence))
    return CorpusResult(
        optimizer.name,
        len(seed_list),
        transformed,
        tuple(failures),
        confidence,
        static_discharged,
    )
