"""Inputs, verdicts and goldens of the verification benchmark.

Every workload draws its inputs from a fixed *pool* whose reference
answers live in ``goldens.json`` (computed once with ``por="none"``, the
reference oracle, by ``perfbench/goldens.py``).  The run's ``--seed``
picks a stratified sample of that pool: the pool is sorted by the cost
recorded at regeneration, cut into strata of equal size, and one member
of every stratum is drawn.  Every seed therefore carries the same cost
mix, so run-to-run spread measures the program, not the draw, while a
held-out seed still sees inputs no tuning run saw.

The same functions compute a verdict for the benchmark (default engine)
and for the goldens (oracle engine); only the configuration differs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cli import _optimizer
from repro.lang.printer import format_program
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.litmus.spec import LitmusSpec, check_spec, parse_spec
from repro.opt.base import Optimizer
from repro.opt.licm import naive_licm
from repro.opt.unsound import NaiveDCE, RedundantWriteIntroduction, UnsoundWaWMerge
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.semantics.exploration import behaviors
from repro.semantics.thread import SemanticsConfig
from repro.sim.validate import validate_optimizer, validate_tiered

ROOT = Path(__file__).resolve().parent.parent
LITMUS_DIR = ROOT / "examples" / "litmus"
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

#: The engine a user gets by default (``repro explore``/``validate``).
DEFAULT_POR = "dpor"
#: The reference oracle the goldens are computed with.
ORACLE_POR = "none"
#: Per-input wall-clock budget; a trip counts as a failed input.
INPUT_DEADLINE_S = 30.0

#: Generated shapes: generator config and promise budget.  ``p2x5`` and
#: ``t3x4`` are the exploration mix; ``reorder``/``merge``/``unused``
#: give tier 0's certifier rules something to fire on; ``small`` keeps
#: the exploration-only validation cheap enough for 100+ requests a run.
SHAPES: Dict[str, Tuple[GeneratorConfig, int]] = {
    "p2x5": (GeneratorConfig(threads=2, instrs_per_thread=5), 1),
    "t3x4": (GeneratorConfig(threads=3, instrs_per_thread=4), 0),
    "reorder": (GeneratorConfig(instrs_per_thread=3, reorder_clusters=2), 0),
    "merge": (GeneratorConfig(instrs_per_thread=3, merge_clusters=2), 0),
    "unused": (GeneratorConfig(instrs_per_thread=3, unused_read_sites=2), 0),
    "small": (GeneratorConfig(threads=2, instrs_per_thread=4), 0),
}
#: Generator seeds per shape in the pool (seeds ``0 .. n-1``).
POOL_SEEDS = {"p2x5": 192, "t3x4": 192, "reorder": 12, "merge": 12, "unused": 12, "small": 16}

#: The optimizer gallery of ``validate-static`` (CLI ``--opt`` names).
STATIC_GALLERY = ("constprop", "cse", "dce", "licm", "reorder", "merge", "unused-read", "pipeline")
#: Sound passes plus the negative controls of ``repro.opt.unsound``.
EXPLORE_GALLERY = ("constprop", "cse", "dce", "licm", "merge")
CONTROLS: Dict[str, Callable[[], Optimizer]] = {
    "naive-dce": NaiveDCE,
    "redundant-write": RedundantWriteIntroduction,
    "unsound-waw": UnsoundWaWMerge,
    "naive-licm": naive_licm,
}

#: Pool members per stratum, per workload (sample size = pool / stratum).
STRATUM = {"explore": 4, "validate-static": 4, "validate-explore": 3}


# -- subjects ---------------------------------------------------------------


@dataclass(frozen=True)
class Subject:
    """One input program, ready to verify."""

    pid: str
    spec: LitmusSpec
    #: Source text as a client would send it (``//!`` spec lines included).
    source: str

    @property
    def program(self):
        return self.spec.program


def program_ids(shapes: Sequence[str]) -> List[str]:
    """Pool program ids: the litmus suite, the example files, generated shapes."""
    ids = [f"suite:{name}" for name in sorted(LITMUS_SUITE)]
    ids += [
        f"file:{path.name}"
        for path in sorted(LITMUS_DIR.iterdir())
        if path.suffix in (".litmus", ".csimp")
    ]
    for shape in shapes:
        ids += [f"gen:{shape}:{seed}" for seed in range(POOL_SEEDS[shape])]
    return ids


def load_subject(pid: str) -> Subject:
    """Generate or parse one pool program."""
    kind, _, rest = pid.partition(":")
    if kind == "file":
        path = LITMUS_DIR / rest
        source = path.read_text()
        return Subject(pid, parse_spec(source, structured=path.suffix == ".csimp"), source)
    if kind == "suite":
        test = LITMUS_SUITE[rest]
        # The promise budget each suite entry suggests (as E-POR uses it).
        spec = LitmusSpec(test.program, promises=test.promise_budget, name=rest)
    elif kind == "gen":
        shape, _, seed = rest.partition(":")
        config, promises = SHAPES[shape]
        spec = LitmusSpec(random_wwrf_program(int(seed), config), promises=promises, name=pid)
    else:
        raise ValueError(f"unknown program id {pid!r}")
    header = f"//! promises: {spec.promises}\n" if spec.promises else ""
    return Subject(pid, spec, header + format_program(spec.program))


def make_optimizer(name: str) -> Optimizer:
    """A gallery pass by its CLI name (``repro validate --opt NAME``), or a
    negative control."""
    if name in CONTROLS:
        return CONTROLS[name]()
    return _optimizer(name)


# -- verdicts ---------------------------------------------------------------


def digest(values) -> str:
    """Order-independent SHA-256 over a set of traces or outcomes."""
    text = "\n".join(sorted(repr(value) for value in values))
    return hashlib.sha256(text.encode()).hexdigest()


def run(
    workload: str, subject: Subject, opt: Optional[str], por: str,
    budget: Optional[Budget] = None,
):
    """Decide one input through the public entry point of ``workload``.

    ``explore`` uses ``check_spec`` for spec files (the ``repro litmus``
    path) and ``behaviors`` otherwise; the validation workloads run
    ``validate_tiered`` or ``validate_optimizer`` (static race tier on,
    as ``repro validate`` does)."""
    if workload == "explore":
        config = replace(subject.spec.config(), por=por, budget=budget)
        if subject.pid.startswith("file:"):
            return check_spec(subject.spec, config)
        return behaviors(subject.program, config)
    validate = validate_tiered if workload == "validate-static" else validate_optimizer
    return validate(make_optimizer(opt), subject.program, SemanticsConfig(por=por, budget=budget))


def answer(workload: str, result) -> Dict[str, Any]:
    """The comparable part of :func:`run`'s result."""
    return explore_answer(result) if workload == "explore" else validation_answer(result)


def explore_answer(result) -> Dict[str, Any]:
    if hasattr(result, "observed"):  # a SpecResult
        return {
            "outputs": sorted(list(o) for o in result.observed),
            "spec_ok": result.ok,
            "proved": result.exhaustive,
        }
    return {
        "outputs": sorted(list(o) for o in result.outputs()),
        "traces": digest(result.traces),
        "proved": result.exhaustive,
    }


def validation_answer(report) -> Dict[str, Any]:
    """Verdict fields of a (tiered) validation report."""
    answer = {
        "ok": report.ok,
        "changed": report.changed,
        "proved": report.confidence is Confidence.PROVED,
    }
    inner = getattr(report, "report", report)
    if inner is not None and hasattr(inner, "refinement"):
        answer["holds"] = inner.refinement.holds
        answer["src_rf"] = inner.source_wwrf.race_free
        answer["tgt_rf"] = None if inner.target_wwrf is None else inner.target_wwrf.race_free
    return answer


def oracle_validation(subject: Subject, opt: str) -> Dict[str, Any]:
    """The reference verdict: exhaustive ``por="none"`` exploration for
    refinement and both race checks, no static tier anywhere."""
    report = validate_optimizer(
        make_optimizer(opt), subject.program, SemanticsConfig(por=ORACLE_POR), static_tier=False
    )
    return validation_answer(report)


#: Answer fields compared against the golden, per workload.  Validation
#: goldens come from pure exploration, so a tier-0 certificate is checked
#: on ``ok``/``changed`` only (it carries no refinement or race reports).
COMPARED = {
    "explore": ("outputs", "traces", "spec_ok"),
    "validate-static": ("ok", "changed"),
    "validate-explore": ("ok", "changed", "holds", "src_rf", "tgt_rf"),
}


def mismatches(workload: str, answer: Dict[str, Any], golden: Dict[str, Any]) -> List[str]:
    """Fields where ``answer`` disagrees with ``golden`` (empty: correct).
    An example file must also satisfy its own ``//!`` spec."""
    wrong = [
        key
        for key in COMPARED[workload]
        if key in golden and key in answer and answer[key] != golden[key]
    ]
    if answer.get("spec_ok") is False:
        wrong.append("spec")
    return sorted(set(wrong))


# -- pools and seeded samples -------------------------------------------------


def pool(workload: str) -> List[str]:
    """Every input id a workload may draw (the keys of its goldens)."""
    if workload == "explore":
        return program_ids(("p2x5", "t3x4"))
    if workload == "validate-static":
        programs = program_ids(("reorder", "merge", "unused"))
        return [f"{pid}|{opt}" for pid in programs for opt in STATIC_GALLERY]
    if workload == "validate-explore":
        programs = [pid for pid in program_ids(("small",)) if not pid.startswith("file:")]
        opts = EXPLORE_GALLERY + tuple(CONTROLS)
        return [f"{pid}|{opt}" for pid in programs for opt in opts]
    raise ValueError(f"unknown workload {workload!r}")


def spread_order(items: Sequence[str], cost: Dict[str, float]) -> List[str]:
    """Order ``items`` so every prefix spans the whole cost range: sort by
    cost, then walk the sorted list with a stride coprime to its length."""
    ordered = sorted(items, key=lambda item: (cost[item], item))
    n = len(ordered)
    if n < 3:
        return ordered
    stride = max(1, round(n * 0.618))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [ordered[(i * stride) % n] for i in range(n)]


def sample(
    workload: str, seed: int, goldens: Dict[str, Dict[str, Any]], tiny: bool = False
) -> List[str]:
    """The seed's inputs: one pool member per cost stratum, spread-ordered.

    ``explore`` always includes the hand-written litmus programs and its
    costliest stratum, and draws the rest.  ``tiny`` keeps the cheapest stratum
    picks (for the benchmark's own tests).
    """
    entries = goldens[workload]
    cost = {item: entries[item]["cost"] for item in entries}
    rng = random.Random(f"{workload}:{seed}")
    fixed = [item for item in entries if workload == "explore" and not item.startswith("gen:")]
    drawn = sorted((item for item in entries if item not in fixed), key=lambda i: (cost[i], i))
    size = STRATUM[workload]
    if workload == "explore":
        # Peak memory is set by the largest exploration: keeping the
        # costliest stratum whole makes peak_rss_mb independent of the draw.
        fixed += drawn[-size:]
        drawn = drawn[:-size]
    picks = list(fixed)
    for start in range(0, len(drawn), size):
        picks.append(rng.choice(drawn[start:start + size]))
    if tiny:
        picks = sorted(picks, key=lambda item: (cost[item], item))[:12]
    return spread_order(picks, cost)


def load_goldens(path: Path = GOLDENS_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def split_item(item: str) -> Tuple[str, Optional[str]]:
    """``"<program id>|<opt>"`` → ``(program id, opt)``; explore ids have no opt."""
    pid, _, opt = item.partition("|")
    return pid, (opt or None)
