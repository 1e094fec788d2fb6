"""Checkpoint/resume for long-running explorations.

A checkpoint captures everything the BFS of
:class:`repro.semantics.exploration.Explorer` needs to continue: the
interned state list (the visited set), the edge lists and terminal
flags accumulated so far, and the unexpanded frontier.  Because the
explorer expands one state atomically between budget ticks, a
budget-interrupted build is always in a consistent
"frontier-not-yet-expanded" shape, so resuming simply continues popping
the frontier — :func:`tests <tests.robust.test_checkpoint>` property-check
that an interrupt/resume cycle reaches the *identical*
:class:`~repro.semantics.exploration.BehaviorSet` as an uninterrupted run.

Integrity: the payload is pickled and wrapped with a SHA-256 digest; a
truncated or corrupted checkpoint file fails loudly at load time
(:class:`CheckpointError`), never by silently resuming from garbage.  A
checkpoint also records a digest of the program text and machine flavor
it was taken from, and the semantics version of the code that took it;
:meth:`Explorer.resume` refuses to resume onto a different program or
under a different semantics version.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from dataclasses import dataclass
from typing import List, Optional, Tuple


class CheckpointError(ValueError):
    """A checkpoint failed integrity or compatibility validation."""


def program_digest(program, nonpreemptive: bool) -> str:
    """Stable digest identifying (program text, machine flavor)."""
    from repro.lang.printer import format_program

    text = format_program(program) + ("\n#np" if nonpreemptive else "\n#il")
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class ExplorationCheckpoint:
    """A serializable snapshot of an in-progress exploration."""

    program_digest: str
    nonpreemptive: bool
    states: Tuple
    edges: Tuple[Tuple[Tuple[Optional[int], int], ...], ...]
    terminal: Tuple[bool, ...]
    frontier: Tuple[int, ...]
    exhaustive: bool
    stop_reason: Optional[str]
    #: True when the ``max_states`` cap permanently dropped successors —
    #: such a truncation cannot be healed by resuming.
    dropped: bool = False
    #: How many successor edges that cap discarded (severity of the
    #: truncation; 0 for pre-severity checkpoints).
    dropped_edges: int = 0
    #: DPOR continuation (``repro.semantics.dpor``): the DFS stack (each
    #: state index with the successors still to visit), the set of
    #: visited states, and stats.  ``None`` for plain-BFS checkpoints.
    dpor: Optional[tuple] = None
    #: The ``repro.semantics.version.SEMANTICS_VERSION`` of the code that took
    #: the snapshot (empty for checkpoints written before the field
    #: existed); resuming under any other version is refused.
    semantics_version: str = ""

    @property
    def state_count(self) -> int:
        return len(self.states)

    def __str__(self) -> str:
        return (
            f"ExplorationCheckpoint({self.state_count} states, "
            f"{len(self.frontier)} frontier, "
            f"{'np' if self.nonpreemptive else 'interleaving'})"
        )


def checkpoint_to_bytes(checkpoint: ExplorationCheckpoint) -> bytes:
    """Serialize with an integrity digest prepended."""
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode()
    return digest + b"\n" + payload


def checkpoint_from_bytes(blob: bytes) -> ExplorationCheckpoint:
    """Deserialize, verifying the integrity digest."""
    digest, sep, payload = blob.partition(b"\n")
    if not sep:
        raise CheckpointError("malformed checkpoint: missing digest header")
    if hashlib.sha256(payload).hexdigest().encode() != digest:
        raise CheckpointError("checkpoint integrity digest mismatch")
    try:
        checkpoint = pickle.loads(payload)
    except Exception as exc:  # corrupt pickle stream
        raise CheckpointError(f"unreadable checkpoint payload: {exc}") from exc
    if not isinstance(checkpoint, ExplorationCheckpoint):
        raise CheckpointError(
            f"checkpoint payload is {type(checkpoint).__name__}, "
            "not ExplorationCheckpoint"
        )
    return checkpoint


def save_checkpoint(checkpoint: ExplorationCheckpoint, path: str) -> None:
    """Atomically write a checkpoint file (write-temp + fsync + rename).

    A writer killed at any instant — including between the write and the
    rename (the ``checkpoint.save`` chaos fault point) — leaves either
    the previous checkpoint intact or the new one published, never a torn
    hybrid; the fsync keeps a post-rename crash from publishing a name
    that points at unwritten blocks.
    """
    from repro.robust import chaos

    blob = checkpoint_to_bytes(checkpoint)
    tmp = f"{path}.tmp.{os.getpid()}"
    with io.open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    chaos.fault_point("checkpoint.save", path)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ExplorationCheckpoint:
    """Read and validate a checkpoint file."""
    with io.open(path, "rb") as handle:
        return checkpoint_from_bytes(handle.read())


def frontier_states(checkpoint: ExplorationCheckpoint) -> List:
    """The unexpanded states (debugging/inspection helper)."""
    return [checkpoint.states[idx] for idx in checkpoint.frontier]
