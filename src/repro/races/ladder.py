"""Shared report vocabulary for tiered ("ladder") analyses.

Both ladders in the repo — race checking
(:func:`repro.races.tiered.check_races_tiered`) and translation
validation (:func:`repro.sim.validate.validate_tiered`) — weigh cheap
static tiers against exploration: static first and exploration only for
what they leave undecided, or, for a race check whose caller already
holds the graph, the graph first and the static tiers only when it is
truncated.  :class:`TierOutcome` is the common per-tier record both
attach to their reports, so CLI/benchmark consumers can render any
ladder uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TierOutcome:
    """One rung of a ladder: what ran, how long, and whether it decided."""

    tier: str  #: e.g. "static-rw", "static-certify", "exploration"
    seconds: float
    decided: bool  #: True when this tier settled its question
    detail: str = ""

    def __str__(self) -> str:
        verdict = "decided" if self.decided else "fell through"
        note = f": {self.detail}" if self.detail else ""
        return f"{self.tier} [{self.seconds * 1000:.1f} ms] {verdict}{note}"


def format_tiers(tiers: Tuple[TierOutcome, ...]) -> str:
    """A one-line-per-tier rendering (empty string when untimed)."""
    return "\n".join(f"  {outcome}" for outcome in tiers)
