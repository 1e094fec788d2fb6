"""Concurrency-safe content-addressed store for verification verdicts.

The one verdict store: the daemon's ``--store`` and the CLI sweeps'
``--cache`` are both this class, keyed and filled by the job layer
(:func:`repro.jobs.verdict_key`, :func:`repro.jobs.remember`).  One
directory is shared between a long-running daemon and any number of
``--jobs N`` sweeps, so the store is built for concurrent writers:

* **Atomic publishes** — write-temp + ``os.replace`` with an fsync, so a
  SIGKILL at any instant leaves either the old entry or the new one on
  disk, never a torn hybrid.  Two writers racing the same key both
  publish a complete entry; last replace wins, and since keys are content
  addresses both entries carry the same verdict.
* **Quarantine, not crash** — an entry that fails integrity validation
  (unparseable JSON, missing fields, digest mismatch) is *moved* to
  ``root/quarantine/`` and reported as a miss: the caller recomputes, the
  evidence is preserved for forensics, and one flipped bit can no longer
  take down a sweep.  The ``quarantined`` counter makes the event
  visible.
* **Bounded growth** — optional ``max_entries`` / ``max_bytes`` caps with
  LRU eviction (by mtime; reads refresh it).  Eviction runs under an
  exclusive ``flock`` on ``root/.lock`` so concurrent evictors do not
  double-delete, and it never touches the quarantine directory.
* **Warm start** — :meth:`preload` scans the store once into an
  in-memory index so a freshly started daemon answers its first requests
  at memory speed; corrupt entries found during the scan are quarantined
  on the spot.

Layout: ``root/<key[:2]>/<key>.json``, a two-level fan-out that keeps
directories small on multi-thousand-program corpora.  Each file wraps its payload as
``{"payload": ..., "digest": sha256(payload)}``; the digest is over the
canonical JSON of the payload alone, so integrity survives re-encoding.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.robust import chaos

try:  # POSIX; the store degrades to lock-free eviction elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

QUARANTINE_DIR = "quarantine"
_LOCK_FILE = ".lock"


def payload_digest(payload: Any) -> str:
    """Canonical SHA-256 of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def content_key(*parts: str) -> str:
    """A content address: SHA-256 over NUL-joined parts."""
    h = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


class ContentStore:
    """A shared on-disk payload store addressed by content key.

    ``max_entries`` / ``max_bytes`` bound the store (``None`` = unbounded);
    eviction is LRU by file mtime and triggered on :meth:`put`.  Counters
    (``hits``/``misses``/``stores``/``evictions``/``quarantined``) track
    this process's traffic.
    """

    def __init__(
        self,
        root: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = root
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0
        self.preloaded = 0
        self._index: Optional[Dict[str, Any]] = None

    # -- paths ----------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _quarantine_root(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock over mutating directory scans."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, _LOCK_FILE)
        with open(path, "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- integrity ------------------------------------------------------------

    def _validate(self, raw: str, path: str) -> Any:
        """The entry's payload, or raise ``ValueError`` on any corruption."""
        entry = json.loads(raw)  # ValueError on corrupt JSON
        if not isinstance(entry, dict) or "payload" not in entry or "digest" not in entry:
            raise ValueError(f"malformed store entry {path}: missing fields")
        if payload_digest(entry["payload"]) != entry["digest"]:
            raise ValueError(f"store entry {path} failed its integrity digest")
        return entry["payload"]

    def quarantine(self, path: str, reason: str = "") -> None:
        """Move a corrupt entry aside for forensics; never raises.

        ``os.replace`` into ``root/quarantine/`` is atomic, so concurrent
        readers either still see the corrupt entry (and quarantine it
        again — the second replace simply finds the file gone) or a clean
        miss.
        """
        quarantine_root = self._quarantine_root()
        try:
            os.makedirs(quarantine_root, exist_ok=True)
            os.replace(path, os.path.join(quarantine_root, os.path.basename(path)))
        except OSError:
            # Lost the race with another quarantiner (or the FS is gone);
            # either way the entry is no longer served.
            pass
        self.quarantined += 1

    # -- core API -------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The payload at ``key``, or ``None``.

        A corrupt entry is quarantined and reported as a miss — callers
        recompute instead of crashing.  A hit refreshes the entry's LRU
        clock.
        """
        if self._index is not None and key in self._index:
            self.hits += 1
            return self._index[key]
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            # UnicodeDecodeError is a ValueError: a bitflip that tears a
            # UTF-8 sequence quarantines like any other corruption.
            payload = self._validate(blob.decode("utf-8"), path)
        except ValueError as exc:
            self.quarantine(path, str(exc))
            self.misses += 1
            return None
        with contextlib.suppress(OSError):
            os.utime(path)  # refresh LRU recency
        self.hits += 1
        if self._index is not None:
            self._index[key] = payload
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Atomically publish ``payload`` at ``key`` (JSON-serializable).

        The temp file is fsynced before the rename: after :meth:`put`
        returns, a crash cannot resurrect a half-written entry.  Caps are
        enforced afterwards (the new entry is the most recent, so it
        survives its own eviction pass).
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"payload": payload, "digest": payload_digest(payload)}
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        chaos.fault_point("store.put", key)
        os.replace(tmp, path)
        self.stores += 1
        if self._index is not None:
            self._index[key] = payload
        if self.max_entries is not None or self.max_bytes is not None:
            self.evict()

    # -- eviction -------------------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, str]]:
        """Every published entry as ``(mtime, size, path)``, stale temp
        files from killed writers swept as a side effect."""
        found: List[Tuple[float, int, str]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for shard in shards:
            if shard in (QUARANTINE_DIR, _LOCK_FILE):
                continue
            shard_path = os.path.join(self.root, shard)
            if not os.path.isdir(shard_path):
                continue
            try:
                names = os.listdir(shard_path)
            except OSError:
                continue
            for name in names:
                path = os.path.join(shard_path, name)
                if ".tmp." in name:
                    # A killed writer's leftover: never published, safe to drop.
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                    continue
                if not name.endswith(".json"):
                    continue
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append((stat.st_mtime, stat.st_size, path))
        return found

    def evict(self) -> int:
        """Drop least-recently-used entries until within the caps.

        Runs under the store lock so concurrent evictors cooperate;
        returns how many entries this call removed.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        removed = 0
        with self._locked():
            entries = sorted(self._entries())
            total = len(entries)
            total_bytes = sum(size for _, size, _ in entries)
            for mtime, size, path in entries:
                over_count = self.max_entries is not None and total > self.max_entries
                over_bytes = self.max_bytes is not None and total_bytes > self.max_bytes
                if not over_count and not over_bytes:
                    break
                with contextlib.suppress(OSError):
                    os.unlink(path)
                if self._index is not None:
                    self._index.pop(self._key_of(path), None)
                total -= 1
                total_bytes -= size
                removed += 1
        self.evictions += removed
        return removed

    @staticmethod
    def _key_of(path: str) -> str:
        return os.path.basename(path)[: -len(".json")]

    # -- warm start -----------------------------------------------------------

    def preload(self) -> int:
        """Load every valid entry into an in-memory index (warm start).

        Returns the number of entries preloaded.  Corrupt entries found
        during the scan are quarantined immediately, so a daemon's first
        request never trips over last night's bit rot.  After preload,
        hits are answered from memory; :meth:`put` keeps the index
        current (entries published by *other* processes after the scan
        are still found on disk via the fallthrough in :meth:`get`).
        """
        index: Dict[str, Any] = {}
        for _mtime, _size, path in self._entries():
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                continue
            try:
                index[self._key_of(path)] = self._validate(blob.decode("utf-8"), path)
            except ValueError as exc:
                self.quarantine(path, str(exc))
        self._index = index
        self.preloaded = len(index)
        return self.preloaded

    # -- introspection --------------------------------------------------------

    def entry_count(self) -> int:
        """Published entries currently on disk."""
        return len(self._entries())

    def quarantine_count(self) -> int:
        """Entries sitting in the quarantine directory (all processes)."""
        try:
            return len(os.listdir(self._quarantine_root()))
        except OSError:
            return 0

    def stats(self) -> Dict[str, int]:
        """This process's store traffic."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "preloaded": self.preloaded,
        }

    def __str__(self) -> str:
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (
            f"store[{self.root}]: {self.hits} hits / {self.misses} misses "
            f"({rate:.0f}% hit rate), {self.stores} stored, "
            f"{self.evictions} evicted, {self.quarantined} quarantined"
        )


__all__ = ["ContentStore", "content_key", "payload_digest", "QUARANTINE_DIR"]
