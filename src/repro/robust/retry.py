"""Configurable retry with exponential backoff and deterministic jitter.

The verification service's supervisor retries failed job attempts: a
worker that dies under transient load deserves more than one more
chance, but synchronized retry storms (every failed job retrying on the
same beat) must not be the next failure mode.  A :class:`RetryPolicy` is
the declarative spec:

* ``max_attempts``       — total tries, first attempt included;
* ``base_delay_seconds`` / ``multiplier`` / ``max_delay_seconds`` — the
  exponential backoff curve between attempts;
* ``jitter``             — fractional spread applied to each delay.

Jitter is *deterministic*: it derives from a SHA-256 hash of (seed, key,
attempt) rather than live RNG state, so two runs of the same chaos
schedule back off identically — a failing fault-injection test replays
exactly — while distinct job keys still de-correlate (different keys
draw different jitter, which is all the thundering-herd defense needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.robust.chaos import _unit_float


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry/backoff limits for one fallible operation."""

    max_attempts: int = 3
    base_delay_seconds: float = 0.05
    multiplier: float = 2.0
    max_delay_seconds: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @property
    def retries(self) -> int:
        """How many retries (attempts beyond the first) remain possible."""
        return self.max_attempts - 1

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered.

        ``attempt=0`` is the delay after the *first* failure.  The
        jittered value stays within ``±jitter`` of the exponential curve
        and never exceeds ``max_delay_seconds * (1 + jitter)``.
        """
        raw = min(
            self.max_delay_seconds,
            self.base_delay_seconds * (self.multiplier ** attempt),
        )
        if not self.jitter or raw <= 0:
            return raw
        spread = 2.0 * _unit_float(self.seed, key, attempt) - 1.0
        return raw * (1.0 + self.jitter * spread)

    def delays(self, key: str = "") -> Tuple[float, ...]:
        """The full backoff schedule: one delay per possible retry."""
        return tuple(self.delay(i, key) for i in range(self.retries))


__all__ = ["RetryPolicy"]
