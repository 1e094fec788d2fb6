"""State hash-consing: slotted structs, cached in-process hashes, intern tables.

The explorer's hot path is the visited-set probe ``succ in self._index``
(:meth:`repro.semantics.exploration.Explorer.build`).  Machine states are
deeply nested immutable structs — pools of thread states holding views over
sparse time maps of integer timestamps — and three complementary fixes keep
the probe cheap:

* **Slotted structs with cached hashes** — :class:`HashConsed` is the base
  class behind every state struct.  Subclasses declare ``__slots__`` (no
  instance dict, no per-field dataclass overhead), freeze themselves by
  construction, and store a precomputed structural hash in the
  ``_hashcode`` slot via :func:`seal`.  ``__hash__`` is a slot read.

* **In-process hashing** — :func:`seal` is Python's built-in ``hash`` of
  the seal key, masked to 64 bits; a key's hash-consed components
  contribute their cached hashes, so sealing never walks a substructure
  twice.  Hashes that containers sum (time-map entries, memory items)
  are finalized first (:func:`summand_hash`).  String hashes follow
  ``PYTHONHASHSEED``, so these hashes never leave the process: pickles
  carry constructor arguments only
  (``__reduce__``), and unpickling re-normalizes, re-interns and re-seals
  under the loading process's hash.  Everything persisted or compared
  across processes — verdict-store keys, config, behavior and checkpoint
  digests — is SHA-256 over canonical bytes instead
  (:mod:`repro.semantics.version`, :mod:`repro.serve.store`).

* **Interning** — :class:`Interner` canonicalizes shared substructures
  (views, time maps, per-location message tuples, thread states, thread
  pools) so equal values become the *same object*.  ``PyObject_RichCompareBool`` — the
  workhorse behind tuple/dict equality — short-circuits on identity, so
  interned substructures make the equality half of a dict probe O(1) per
  shared component, and deduplication shrinks the resident state graph.

Structs whose payload is a bag of entries (time maps, memories) keep an
*incremental* hash: an order-independent sum of per-entry hashes, so a
single-entry update recomputes the struct hash from the old sum plus a
delta instead of re-walking the whole structure (see
:func:`hash_pair` / :func:`hash_mix`).

Intern tables are process-global and bounded: past ``max_entries`` the
table is flushed wholesale (an *epoch flush*).  Flushing only loses
sharing, never correctness — interning is a pure identity optimization.
"""

from __future__ import annotations

from typing import Dict, Tuple, TypeVar

T = TypeVar("T")

#: Cached hashes are unsigned 64-bit ints.
HASH_MASK = (1 << 64) - 1
_PRIME = 0x100000001B3
_OFFSET = 0xCBF29CE484222325


def hash_mix(*values: int) -> int:
    """Mix already-hashed 64-bit values into one (order-sensitive, cheap).

    Used by structs whose components are themselves hashed (e.g. a view
    mixing its two time-map hashes) to avoid re-hashing a whole key tuple.
    """
    h = _OFFSET
    for v in values:
        h = ((h ^ (v & HASH_MASK)) * _PRIME) & HASH_MASK
    return h


def summand_hash(key: tuple) -> int:
    """A hash of ``key`` that is safe to add into an order-independent sum.

    Python's tuple hash is nearly additive in its integer lanes (an int
    hashes to itself, and each lane is added, rotated and multiplied), so
    a plain sum of tuple hashes collides on entries that trade timestamps
    or values — ``{x: 1, y: 2}`` against ``{x: 2, y: 1}`` — at a rate that
    depends on ``PYTHONHASHSEED``.  The splitmix64 finalizer breaks that
    additive structure.
    """
    h = hash(key) & HASH_MASK
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & HASH_MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & HASH_MASK
    return h ^ (h >> 31)


def hash_pair(var: str, t: int) -> int:
    """Hash of a ``(variable, timestamp)`` entry.

    Time maps hash as the mod-2**64 *sum* of their entry hashes, which is
    order-independent, so ``set``/``bump`` can subtract the old entry's
    hash and add the new one instead of re-hashing every entry.
    """
    return summand_hash((var, t))


class HashConsed:
    """Base class for immutable ``__slots__`` structs with a cached hash.

    Subclasses declare ``__slots__`` for their fields (plus any derived
    caches), list the *constructor* fields in ``_fields`` (in positional
    order), assign via ``object.__setattr__`` inside ``__init__``, and call
    :func:`seal` last.  The base provides:

    * ``__hash__`` — the cached ``_hashcode`` slot;
    * immutability — ``__setattr__``/``__delattr__`` raise;
    * ``replace(**changes)`` — the ``dataclasses.replace`` equivalent;
    * ``__reduce__`` — pickling re-runs the constructor with the field
      values, so unpickling re-normalizes, re-interns and re-seals (no
      stale caches can be smuggled between processes);
    * a generic ``__repr__`` over ``_fields``.
    """

    __slots__ = ("_hashcode",)

    _fields: Tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hashcode  # type: ignore[attr-defined]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def replace(self, **changes):
        """A copy with the given fields replaced (constructor re-run)."""
        kwargs = {f: getattr(self, f) for f in self._fields}
        kwargs.update(changes)
        return type(self)(**kwargs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


def seal(obj: object, key: tuple) -> None:
    """Precompute and store ``obj``'s hash (call last in ``__init__``).

    ``key`` should start with a type tag so structurally similar values of
    different classes do not collide systematically.  The hash is Python's
    own ``hash`` of the key, so it is only meaningful inside one process
    (string hashes follow ``PYTHONHASHSEED``); unpickling re-runs the
    constructor, which re-seals under the loading process's hash.
    """
    object.__setattr__(obj, "_hashcode", hash(key) & HASH_MASK)


def seal_summand(obj: object, key: tuple) -> None:
    """:func:`seal` for values whose hashes are summed into a container's
    hash (memory items): the hash is :func:`summand_hash` of ``key``."""
    object.__setattr__(obj, "_hashcode", summand_hash(key))


class Interner:
    """A bounded hash-consing table: ``intern(x)`` returns the canonical
    object equal to ``x``.

    Lookups rely on the value's ``__hash__``/``__eq__`` — with
    :class:`HashConsed` values the probe itself is cheap.  The table never
    exceeds ``max_entries``: on overflow it is flushed entirely, which
    costs only future sharing (an interned object already handed out stays
    valid — interning has no correctness obligations).
    """

    __slots__ = ("_table", "max_entries", "hits", "misses", "flushes")

    def __init__(self, max_entries: int = 1_000_000) -> None:
        self._table: Dict = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def intern(self, value: T) -> T:
        """Return the canonical object equal to ``value`` (inserting it
        as the canonical representative on a miss)."""
        canonical = self._table.get(value)
        if canonical is not None:
            self.hits += 1
            return canonical
        if len(self._table) >= self.max_entries:
            self._table.clear()
            self.flushes += 1
        self.misses += 1
        self._table[value] = value
        return value

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Flush the table and reset all counters."""
        self._table.clear()
        self.hits = 0
        self.misses = 0
        self.flushes = 0


class PoolInterner(Interner):
    """An :class:`Interner` for thread pools, keyed by the pool's hash.

    A pool tuple hashes through one Python-level ``__hash__`` call per
    thread, and a machine state needs that hash twice: to probe the table
    and to seal itself.  :meth:`intern_hashed` hashes the pool once and
    hands the hash back with the canonical pool (``seal`` of a key holding
    the hash equals ``seal`` of the key holding the pool).  Two unequal
    pools with one hash keep only the later one: interning has no
    correctness obligations.
    """

    __slots__ = ()

    def intern_hashed(self, pool: tuple) -> Tuple[tuple, int]:
        """``(canonical pool, hash(pool))``."""
        h = hash(pool)
        canonical = self._table.get(h)
        if canonical is not None and (canonical is pool or canonical == pool):
            self.hits += 1
            return canonical, h
        if len(self._table) >= self.max_entries:
            self._table.clear()
            self.flushes += 1
        self.misses += 1
        self._table[h] = pool
        return pool, h

    def intern(self, value: T) -> T:
        return self.intern_hashed(value)[0]  # type: ignore[arg-type]


#: Process-global intern tables for the substructures machine states share
#: most heavily.  Per-table rather than one big table so stats stay
#: attributable and a flush in one family does not evict the others.
TIMEMAPS = Interner()
VIEWS = Interner()
ITEM_TUPLES = Interner()
THREAD_STATES = Interner()
POOLS = PoolInterner()

_ALL = {
    "timemaps": TIMEMAPS,
    "views": VIEWS,
    "item_tuples": ITEM_TUPLES,
    "thread_states": THREAD_STATES,
    "pools": POOLS,
}


def intern_timemap(timemap):
    """Canonicalize a :class:`~repro.memory.timemap.TimeMap`."""
    return TIMEMAPS.intern(timemap)


def intern_view(view):
    """Canonicalize a :class:`~repro.memory.timemap.View`."""
    return VIEWS.intern(view)


def intern_items(items: tuple) -> tuple:
    """Canonicalize a tuple of memory items (whole-memory or per-location)."""
    return ITEM_TUPLES.intern(items)


def intern_thread_state(ts):
    """Canonicalize a :class:`~repro.semantics.threadstate.ThreadState`.

    Pools are interned process-wide, so a pool keeps the thread state
    objects of the first build that made it; interning those objects too
    keeps every later probe keyed by a thread state an identity hit."""
    return THREAD_STATES.intern(ts)


def intern_pool(pool: tuple) -> Tuple[tuple, int]:
    """Canonicalize a thread pool tuple: ``(canonical pool, its hash)``."""
    return POOLS.intern_hashed(pool)


def interner_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counters for every global intern table."""
    return {
        name: {
            "entries": len(table),
            "hits": table.hits,
            "misses": table.misses,
            "flushes": table.flushes,
        }
        for name, table in _ALL.items()
    }


def clear_interners() -> None:
    """Flush every global intern table (tests, long-lived processes)."""
    for table in _ALL.values():
        table.clear()
