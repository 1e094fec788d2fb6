"""Spans, counters and profile attribution for the traced run.

Spans are recorded by the benchmark's own files only: around the calls it
makes into a layer's public function, and around public methods it wraps
for the duration of the traced phase (``Explorer.build``, optimizer
``run``).  Module-level functions that the library imports with ``from x
import f`` cannot be wrapped where they are defined, so the time of the
layers behind them comes from :mod:`cProfile` attribution instead.
"""

from __future__ import annotations

import contextlib
import functools
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory spans and counters of one traced run (main thread only)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]``; parent -1 for a root span.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


@contextlib.contextmanager
def wrapped(
    targets: Iterable[Tuple[type, str]],
    tracer: Tracer,
    span_name: str,
    after: Optional[Callable[[object, object], None]] = None,
) -> Iterator[None]:
    """Wrap methods ``cls.attr`` in a span for the duration of the block.

    Targets share one depth counter, so a call that re-enters any of them
    (a composed optimizer running its parts) records one outermost span.
    ``after(instance, result)`` runs once per outermost call.
    """
    depth = [0]
    originals = []

    def wrap(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            if depth[0]:
                return original(self, *args, **kwargs)
            depth[0] += 1
            try:
                with tracer.span(span_name):
                    result = original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if after is not None:
                after(self, result)
            return result

        return wrapper

    for cls, attr in dict.fromkeys(targets):
        original = cls.__dict__[attr]
        originals.append((cls, attr, original))
        setattr(cls, attr, wrap(original))
    try:
        yield
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)


# -- profile attribution --------------------------------------------------------

#: Self time per group of ``src/repro`` modules (ROADMAP item 1's split of
#: exploration): ``(files, function names or None for every function)``.
SELF_GROUPS: Dict[str, Tuple[Tuple[str, ...], Optional[Tuple[str, ...]]]] = {
    "semantics.successors_self_s": (
        ("semantics/thread.py", "semantics/threadstate.py", "semantics/machine.py",
         "semantics/promises.py", "semantics/events.py"),
        None,
    ),
    "semantics.certification_self_s": (
        ("semantics/certification.py", "static/certcheck.py"), None,
    ),
    "semantics.dpor_self_s": (("semantics/dpor.py",), None),
    "memory.self_s": (
        ("memory/memory.py", "memory/message.py", "memory/timemap.py", "memory/timestamps.py"),
        None,
    ),
    "perf.intern.hash_self_s": (("perf/intern.py",), ("stable_hash", "_int_hash", "replace")),
}

#: Cumulative time of layer entry points the benchmark cannot wrap.  No
#: listed function calls another listed under the same metric.
CUMULATIVE: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "analysis.solve_s": (("analysis/dataflow.py", ("solve_forward", "solve_backward")),),
    "static.absint.solve_s": (("static/absint/engine.py", ("solve",)),),
    "static.certify_s": (("static/certify.py", ("certify_transformation",)),),
    "static.crossing_s": (("static/crossing.py", ("check_crossing",)),),
    "sim.og_s": (("sim/og.py", ("check_og",)),),
    "sim.refinement_s": (("sim/refinement.py", ("check_refinement",)),),
    "races.static_s": (
        ("static/wwraces.py", ("analyze_ww_races",)),
        ("static/rwraces.py", ("analyze_rw_races",)),
    ),
    "races.scan_explore_s": (("races/wwrf.py", ("_check",)),),
}


def _module(filename: str) -> Optional[str]:
    """``.../src/repro/semantics/dpor.py`` → ``semantics/dpor.py``."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    if marker not in path:
        return None
    return path.rsplit(marker, 1)[1]


def attribute(stats: pstats.Stats) -> Dict[str, float]:
    """Per-group self time and per-entry-point cumulative time, in seconds."""
    out = {name: 0.0 for name in list(SELF_GROUPS) + list(CUMULATIVE)}
    for (filename, _, func), (_, _, self_s, cum_s, _) in stats.stats.items():  # type: ignore[attr-defined]
        module = _module(filename)
        if module is None:
            continue
        for name, (files, funcs) in SELF_GROUPS.items():
            if module in files and (funcs is None or func in funcs):
                out[name] += self_s
        for name, entries in CUMULATIVE.items():
            for file, funcs in entries:
                if module == file and func in funcs:
                    out[name] += cum_s
    return out
