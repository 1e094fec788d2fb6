"""Differential fuzzing campaigns over optimizers.

Bundles the generator → optimize → validate loop into one driver:
for each seed, generate a ww-race-free program, run the chosen optimizer,
and check (a) event-trace refinement by exhaustive exploration, (b)
preservation of ww-race freedom, (c) preservation of ``ι``, and optionally
(d) agreement of the two machines (Thm. 4.1 spot check).  Failures carry
the seed and the formatted source so they can be replayed directly:

    python -m repro fuzz --opt dce --seeds 0:200

This is the corpus-scale face of Thm. 6.6 (Correct(Opt) for every ww-RF
source) — every failure would be a counterexample to the paper's theorem
or to this implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.jobs import cached_job
from repro.lang.printer import format_program
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.opt.base import Optimizer
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.semantics.thread import SemanticsConfig
from repro.sim.validate import ValidationReport, validate_optimizer


@dataclass(frozen=True)
class FuzzFailure:
    """One failing seed with enough context to replay it.

    ``seed`` fully determines the generated program (the generator's RNG
    is seeded per-case with exactly this value), so every failure is
    reproducible with ``python -m repro fuzz --replay <seed>`` plus the
    campaign's generator shape flags.
    """

    seed: int
    reason: str
    source_text: str

    def __str__(self) -> str:
        return f"seed {self.seed}: {self.reason}"


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate of a fuzz campaign.

    ``confidence`` is the weakest per-seed evidence in the campaign
    (``PROVED`` only when every validated seed was exhaustively
    explored; a skipped-for-bounds seed demotes it to ``BOUNDED``).
    """

    optimizer: str
    seeds: int
    transformed: int
    skipped_truncated: int
    failures: Tuple[FuzzFailure, ...]
    elapsed_seconds: float
    equivalence_budget_misses: int = 0
    confidence: Confidence = Confidence.PROVED
    #: Seeds answered from the verdict store (``store=``).
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        cached = f", {self.cache_hits} cached" if self.cache_hits else ""
        return (
            f"fuzz[{self.optimizer}]: {self.seeds} programs, "
            f"{self.transformed} transformed, {self.skipped_truncated} skipped "
            f"(bounds){cached}, {status}, {self.elapsed_seconds:.1f}s, "
            f"confidence={self.confidence}"
        )


def _fuzz_case(
    optimizer: Optimizer,
    seed: int,
    generator_config: GeneratorConfig,
    config: SemanticsConfig,
    options: Dict[str, Any],
    store=None,
    budget: Optional[Budget] = None,
) -> Dict[str, Any]:
    """Validate one seed; module-level so the sweep pool can dispatch it.

    The check is the ``validate`` job of :mod:`repro.jobs` (with the
    Thm 4.1 spot check when ``options["equivalence"]`` is set), so an
    exhaustively verified seed is answered from ``store`` on later runs
    of the same campaign shape — and shares verdicts with
    ``repro validate --cache`` and the service.
    """
    # Per-case RNG discipline: the program is a pure function of the
    # seed, so a FuzzFailure's seed alone replays it exactly.
    text = format_program(random_wwrf_program(seed, generator_config))
    if budget is not None:
        config = replace(config, budget=budget)
    record = cached_job(store, "validate", text, options, config, optimizer)
    return dict(record, seed=seed, source_text=text)


def fuzz_optimizer(
    optimizer: Optimizer,
    seeds: Sequence[int],
    generator_config: GeneratorConfig = GeneratorConfig(),
    config: Optional[SemanticsConfig] = None,
    check_wwrf: bool = True,
    check_machine_equivalence: bool = False,
    equivalence_promise_budget: int = 2,
    jobs: int = 1,
    store=None,
    budget: Optional[Budget] = None,
) -> FuzzReport:
    """Run a fuzz campaign; see module docstring for what is checked.

    The Thm. 4.1 spot check runs both machines with a syntactic promise
    oracle of ``equivalence_promise_budget`` promises per thread — the
    non-preemptive machine realizes mid-block write visibility only by
    promising the block's writes up front (paper Sec. 4), so the
    equivalence is a theorem of the *full* semantics and holds in the
    bounded one exactly when the budget covers each block's writes.

    ``jobs`` fans seeds across worker processes
    (:func:`repro.perf.pool.run_sweep`); aggregation is seed-ordered, so
    the report is identical at any parallelism.  ``store`` is an optional
    :class:`repro.serve.store.ContentStore` reusing exhaustively-verified
    per-seed verdicts across runs; ``budget`` bounds the whole campaign's
    wall clock.
    """
    from repro.perf.pool import SweepJob, run_sweep

    # DPOR by default on both the validation and equivalence explorations:
    # every comparison here is on behavior *sets*, which DPOR preserves
    # (promise-bearing configs included, via certification-scoped
    # footprints); graph-scanning sub-checks and the non-preemptive
    # machine downgrade themselves and record why.
    config = config or SemanticsConfig(por="dpor")
    options = {
        "opt": optimizer.name,
        "no_wwrf": not check_wwrf,
        "equivalence": equivalence_promise_budget if check_machine_equivalence else 0,
    }
    started = time.monotonic()
    seed_list = list(seeds)
    sweep = run_sweep(
        [
            SweepJob(
                name=f"seed-{seed:010d}",
                fn=_fuzz_case,
                args=(optimizer, seed, generator_config, config, options, store),
            )
            for seed in seed_list
        ],
        jobs_n=jobs,
        budget=budget,
    )

    transformed = 0
    skipped = 0
    budget_misses = 0
    cache_hits = 0
    confidence = Confidence.PROVED
    failures: List[FuzzFailure] = []
    for outcome in sweep.outcomes:
        if not outcome.ok:
            seed = int(outcome.name.split("-", 1)[1])
            failures.append(FuzzFailure(seed, f"job error: {outcome.error}", ""))
            confidence = Confidence.weakest((confidence, Confidence.BOUNDED))
            continue
        record = outcome.value
        if record["cached"]:
            cache_hits += 1
        if record["changed"]:
            transformed += 1
        confidence = Confidence.weakest(
            (confidence, Confidence(record["confidence"]))
        )
        if not record["definitive"]:
            skipped += 1
            continue
        if not record["ok"]:
            failures.append(
                FuzzFailure(record["seed"], record["detail"], record["source_text"])
            )
            continue
        if record.get("budget_miss"):
            budget_misses += 1

    return FuzzReport(
        optimizer.name,
        len(seed_list),
        transformed,
        skipped,
        tuple(failures),
        time.monotonic() - started,
        budget_misses,
        confidence,
        cache_hits,
    )


def fuzz_replay(
    optimizer: Optimizer,
    seed: int,
    generator_config: GeneratorConfig = GeneratorConfig(),
    config: Optional[SemanticsConfig] = None,
    check_wwrf: bool = True,
) -> Tuple["str", ValidationReport]:
    """Replay one fuzz case from its recorded seed.

    Regenerates the exact program (generation is deterministic in
    ``(seed, generator_config)``) and re-validates it, returning the
    formatted source alongside the fresh :class:`ValidationReport` —
    the one-failure debugging loop behind ``repro fuzz --replay``.
    """
    program = random_wwrf_program(seed, generator_config)
    report = validate_optimizer(
        optimizer, program, config, check_target_wwrf=check_wwrf
    )
    return format_program(program), report
