"""Litmus specifications: herd7-style outcome assertions.

A *spec* pairs a program with outcome assertions and is checked against
the exhaustively computed behavior set:

* ``exists O``    — the complete-execution outcome tuple ``O`` must be
  observable (the litmus tool sense of "the weak behavior is allowed");
* ``forbidden O`` — ``O`` must not be observable (e.g. out-of-thin-air);
* ``only O1 | O2 | ...`` — the outcome set must be exactly these.

Specs embed in source files as structured comments, so a litmus file is a
single self-contained artifact::

    //! promises: 1
    //! exists (1, 1)
    //! forbidden (2, 2)
    atomics x, y;
    fn t1 { ... } ...
    threads t1, t2;

``//! promises: N`` selects a syntactic promise oracle with budget ``N``.
``check_spec`` / ``run_spec_file`` evaluate a spec; the CLI exposes it as
``python -m repro litmus FILE``.  ``spec_failures`` judges the clauses
alone (the service's bounded answers); ``judge_spec`` adds the rule that a
truncated run is not definitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.lang.parser import parse_program
from repro.lang.syntax import Program
from repro.semantics.exploration import behaviors
from repro.semantics.promises import SyntacticPromises
from repro.semantics.thread import SemanticsConfig

Outcome = Tuple[int, ...]


@dataclass(frozen=True)
class LitmusSpec:
    """A program plus its outcome assertions (``program`` is ``None`` in
    a :func:`spec_header`)."""

    program: Program
    exists: Tuple[Outcome, ...] = ()
    forbidden: Tuple[Outcome, ...] = ()
    only: Optional[Tuple[Outcome, ...]] = None
    promises: int = 0
    name: str = ""

    def config(self) -> SemanticsConfig:
        """The semantics configuration the spec's directives select."""
        if self.promises:
            return SemanticsConfig(
                promise_oracle=SyntacticPromises(
                    budget=self.promises, max_outstanding=self.promises
                )
            )
        return SemanticsConfig()


@dataclass(frozen=True)
class SpecResult:
    """The verdict of checking one spec."""

    ok: bool
    failures: Tuple[str, ...]
    observed: Tuple[Outcome, ...]
    exhaustive: bool

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            kind = "exhaustive" if self.exhaustive else "bounded"
            return f"spec OK ({kind}; {len(self.observed)} outcomes)"
        return "spec FAILED: " + "; ".join(self.failures)


def spec_failures(spec: LitmusSpec, observed: FrozenSet[Outcome]) -> List[str]:
    """The spec clauses an outcome set violates (empty when all hold)."""
    failures: List[str] = []
    for outcome in spec.exists:
        if outcome not in observed:
            failures.append(f"expected outcome {outcome} not observed")
    for outcome in spec.forbidden:
        if outcome in observed:
            failures.append(f"forbidden outcome {outcome} observed")
    if spec.only is not None and observed != frozenset(spec.only):
        failures.append(
            f"outcome set {sorted(observed)} differs from declared {sorted(spec.only)}"
        )
    return failures


def judge_spec(
    failures: Iterable[str], observed: Iterable[Sequence[int]], exhaustive: bool
) -> SpecResult:
    """The definitive verdict over clause ``failures``: a truncated run
    fails too, because an unseen outcome may lie past the cut."""
    failures = list(failures)
    if not exhaustive:
        failures.append("exploration truncated: verdict not definitive")
    outcomes = tuple(sorted(tuple(o) for o in observed))
    return SpecResult(not failures, tuple(failures), outcomes, exhaustive)


def check_spec(spec: LitmusSpec, config: Optional[SemanticsConfig] = None) -> SpecResult:
    """Evaluate a litmus spec against the exhaustive behavior set.

    ``config`` overrides the spec's own configuration (used to attach a
    runtime budget without disturbing the semantics knobs the spec's
    directives selected).
    """
    result = behaviors(spec.program, config if config is not None else spec.config())
    observed = frozenset(result.outputs())
    return judge_spec(spec_failures(spec, observed), observed, result.exhaustive)


# ---------------------------------------------------------------------------
# The `//!` header syntax
# ---------------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(r"^//!\s*(?P<key>exists|forbidden|only|promises|name)\s*:?\s*(?P<rest>.*)$")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_outcome(text: str) -> Outcome:
    inner = text.strip()
    if not inner:
        return ()
    return tuple(int(part) for part in inner.split(","))


def spec_header(source: str) -> LitmusSpec:
    """A spec source's ``//!`` directives alone (``program`` is ``None``):
    enough for :meth:`LitmusSpec.config` without parsing the program."""
    exists: List[Outcome] = []
    forbidden: List[Outcome] = []
    only: Optional[List[Outcome]] = None
    promises = 0
    name = ""
    for line in source.splitlines():
        match = _DIRECTIVE_RE.match(line.strip())
        if match is None:
            continue
        key, rest = match.group("key"), match.group("rest")
        if key == "promises":
            promises = int(rest.strip())
        elif key == "name":
            name = rest.strip()
        else:
            outcomes = [_parse_outcome(m.group(1)) for m in _TUPLE_RE.finditer(rest)]
            if not outcomes:
                raise ValueError(f"directive {key!r} needs at least one (v, ...) tuple")
            if key == "exists":
                exists.extend(outcomes)
            elif key == "forbidden":
                forbidden.extend(outcomes)
            else:
                only = (only or []) + outcomes
    return LitmusSpec(
        None,
        tuple(exists),
        tuple(forbidden),
        tuple(only) if only is not None else None,
        promises,
        name,
    )


def parse_spec(source: str, structured: bool = False) -> LitmusSpec:
    """Parse a spec-annotated source file.

    ``structured=True`` parses the program part as CSimp surface syntax
    (lowered to CSimpRTL); otherwise as CSimpRTL.
    """
    header = spec_header(source)
    if structured:
        from repro.csimp import lower_program, parse_csimp

        program = lower_program(parse_csimp(source.replace("//!", "//")))
    else:
        program = parse_program(source.replace("//!", "//"))
    return replace(header, program=program)


def run_spec_file(path: str, store=None, budget=None) -> SpecResult:
    """Parse and check a spec file (``*.csimp`` selects surface syntax).

    ``store`` is an optional :class:`repro.serve.store.ContentStore`: a
    verdict stored for the identical source text and configuration is
    returned without re-exploring (the dominant cost of a litmus sweep).
    It is the ``litmus`` job of :mod:`repro.jobs`, so the verdict is
    shared with ``repro litmus --cache`` and the service.  ``budget``
    attaches a runtime :class:`~repro.robust.budget.Budget` to the
    exploration; it does not participate in the key.
    """
    from repro.jobs import cached_job, job_config

    with open(path) as handle:
        source = handle.read()
    config = job_config("litmus", source)
    if budget is not None:
        config = replace(config, budget=budget)
    options = {"csimp": path.endswith(".csimp")}
    record = cached_job(store, "litmus", source, options, config)
    return judge_spec(record["failures"], record["observed"], record["exhaustive"])
