"""The static transformation certifier — tier 0 of the validation ladder.

``certify_transformation(opt, source)`` decides **CERTIFIED** or
**INCONCLUSIVE** without exploring a single state.  A CERTIFIED verdict
carries a checkable witness — the crossing report and the Owicki–Gries
obligation ledger — and promises exactly what exhaustive exploration
would prove: the transformed program refines the source and preserves
ww-race freedom.  INCONCLUSIVE promises nothing; the tiered validator
(:func:`repro.sim.validate.validate_tiered`) then falls back to
exploration, so incompleteness here costs time, never soundness.

The certificate conjoins, in order (cheapest first, all must pass):

1. the pass declares a :class:`repro.static.crossing.CrossingProfile`
   (an undeclared pass can never certify);
2. the target is well-formed (:func:`repro.static.lint.lint_program`)
   and preserves ``ι``, the thread list and the function set;
3. the *source* is statically ww-race-free
   (:func:`repro.static.wwraces.analyze_ww_races`) — the precondition
   of every refinement statement in the paper — and so is the target
   (ww-RF preservation, checked rather than assumed);
4. the crossing oracle (:func:`repro.static.crossing.check_crossing`)
   finds no R1/R2/W1/W2 violation and no inconclusive site under the
   declared profile;
5. every Owicki–Gries obligation of :func:`repro.sim.og.check_og` is
   discharged from the sound dataflow analyses.

A profile is a **claim the certifier checks**, never a waiver: the
deliberately lying profiles of :mod:`repro.opt.unsound` make their
passes reach steps 4–5 — where the re-derived facts refuse to discharge
the unsound eliminations (the negative controls of the soundness-mirror
tests).

This module lives in ``repro.static`` but is deliberately *not* exported
from the package root: it imports :mod:`repro.sim.og`, and the ``sim``
package imports ``repro.static`` — import it explicitly as
``from repro.static.certify import certify_transformation``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.lang.syntax import Program
from repro.opt.base import Optimizer
from repro.sim.og import OGReport, check_og
from repro.static.crossing import CrossingProfile, CrossingReport, check_crossing
from repro.static.lint import lint_program
from repro.static.wwraces import analyze_ww_races


class CertVerdict(enum.Enum):
    """The certifier's two-valued answer (there is no REFUTED: a failed
    certificate says "explore", not "wrong")."""

    CERTIFIED = "certified"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CertificateReport:
    """The witness backing a certification verdict."""

    verdict: CertVerdict
    optimizer: str
    invariant: Optional[str] = None  #: I_id / I_dce / I_reorder when declared
    crossing: Optional[CrossingReport] = None
    og: Optional[OGReport] = None
    reasons: Tuple[str, ...] = ()  #: why certification stopped (inconclusive only)

    @property
    def certified(self) -> bool:
        return self.verdict is CertVerdict.CERTIFIED

    def __str__(self) -> str:
        head = f"certify[{self.optimizer}]: {self.verdict}"
        if self.invariant:
            head += f" ({self.invariant})"
        lines = [head]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def _inconclusive(
    optimizer: str,
    reasons: Tuple[str, ...],
    invariant: Optional[str] = None,
    crossing: Optional[CrossingReport] = None,
    og: Optional[OGReport] = None,
) -> CertificateReport:
    return CertificateReport(
        CertVerdict.INCONCLUSIVE, optimizer, invariant, crossing, og, reasons
    )


def certify_transformation(
    optimizer: Optimizer,
    source: Program,
    target: Optional[Program] = None,
) -> CertificateReport:
    """Certify ``optimizer`` on ``source`` (running it unless ``target``
    is supplied — pass a precomputed target to avoid re-running the
    pass when the caller already has it)."""
    profile: Optional[CrossingProfile] = optimizer.crossing_profile
    name = optimizer.name
    if profile is None:
        return _inconclusive(name, (f"pass {name!r} declares no crossing profile",))
    invariant = f"I_{profile.invariant}"
    if target is None:
        target = optimizer.run(source)

    # Structural preservation: ι, threads, and the function set.
    if target.atomics != source.atomics:
        return _inconclusive(name, ("atomics set changed",), invariant)
    if target.threads != source.threads:
        return _inconclusive(name, ("thread list changed",), invariant)
    if {f for f, _ in target.functions} != {f for f, _ in source.functions}:
        return _inconclusive(name, ("function set changed",), invariant)

    lint = lint_program(target)
    if not lint.ok:
        return _inconclusive(
            name, tuple(f"target lint: {issue}" for issue in lint.issues), invariant
        )

    # The refinement statement's precondition — and its preservation.
    if not analyze_ww_races(source).race_free:
        return _inconclusive(
            name, ("source not statically ww-race-free",), invariant
        )
    # An unchanged target shares the source's verdict just established.
    if target != source and not analyze_ww_races(target).race_free:
        return _inconclusive(
            name, ("target not statically ww-race-free",), invariant
        )

    crossing = check_crossing(source, target, profile)
    reasons = []
    if not crossing.ok:
        reasons.extend(f"crossing: {v.message}" for v in crossing.violations)
    if crossing.inconclusive:
        reasons.extend(
            f"crossing inconclusive at {site}" for site in crossing.inconclusive
        )
    if reasons:
        return _inconclusive(name, tuple(reasons), invariant, crossing)

    og = check_og(source, target, profile)
    if not og.ok:
        return _inconclusive(
            name,
            tuple(f"og: {ob}" for ob in og.undischarged),
            invariant,
            crossing,
            og,
        )

    return CertificateReport(CertVerdict.CERTIFIED, name, invariant, crossing, og)
