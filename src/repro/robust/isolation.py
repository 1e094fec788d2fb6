"""The governed fork worker: one job per child, classified, never fatal.

A pathological input (a divergent exploration, a memory bomb, an
interpreter crash) must not take down the process that asked for it.
:class:`ForkWorker` runs module-level jobs in a forked child under an
optional memory ceiling and *classifies* whatever happens to each as a
``(status, value)`` pair:

* ``STATUS_OK``      — the job returned a value (shipped back pickled);
* ``STATUS_TIMEOUT`` — the job outlived its timeout and the child was killed;
* ``STATUS_OOM``     — the child hit its memory ceiling (``MemoryError``);
* ``STATUS_CRASHED`` — the child died without reporting (segfault, kill);
* ``STATUS_ERROR``   — the job raised an ordinary exception.

It is the one fork primitive: the parallel sweep
(:func:`repro.perf.pool.run_sweep`) keeps a few workers alive across
many jobs, and the service supervisor forks a fresh one per attempt.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_OOM = "oom"
STATUS_CRASHED = "crashed"
STATUS_ERROR = "error"


#: How often the child's memory watchdog samples traced allocation.
_WATCHDOG_INTERVAL_SECONDS = 0.05

#: Address space the ``RLIMIT_AS`` backstop grants beyond ``memory_mb``:
#: room for one watchdog interval of allocation at over 1 GB/s.  The
#: watchdog must decide first — an rlimit failure while tracemalloc is
#: tracing can wedge the interpreter (a ``SystemError`` or a spin that
#: holds the GIL until the parent's timeout) instead of raising
#: ``MemoryError``.
_BACKSTOP_SLACK_MB = 64


def _address_space_bytes() -> int:
    """The process's current virtual size (0 where ``/proc`` is absent)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[0]) * resource.getpagesize()
    except OSError:
        return 0


_OOM_DETAIL = "MemoryError: memory ceiling hit"


def _start_memory_watchdog(conn, memory_mb) -> None:
    """Enforce ``memory_mb`` against Python-level allocation in the child.

    ``RLIMIT_AS`` only fails *new* address-space mappings.  A forked
    child inherits the parent's allocator free lists, so a small-object
    workload (exploration states) can recycle already-mapped pages
    indefinitely without the rlimit ever firing — the ceiling would then
    silently depend on how warm the parent's heap was.  tracemalloc
    counts the child's own allocations regardless of which pages serve
    them; the watchdog samples it and, past the ceiling, reports
    ``STATUS_OOM`` and exits the child outright (``os._exit`` also keeps
    the report race-free: the main thread can no longer send a competing
    payload).

    Must be called *before* the rlimit is applied — starting a thread
    maps a fresh stack, which the rlimit would refuse.
    """
    import os
    import threading
    import tracemalloc

    if not tracemalloc.is_tracing():
        tracemalloc.start()
    ceiling = memory_mb * 1024 * 1024

    def watch() -> None:
        while True:
            time.sleep(_WATCHDOG_INTERVAL_SECONDS)
            try:
                current, _peak = tracemalloc.get_traced_memory()
                over = current >= ceiling
            except MemoryError:
                over = True  # the probe itself OOMed: same verdict
            if over:
                try:
                    conn.send((STATUS_OOM, _OOM_DETAIL))
                    conn.close()
                finally:
                    os._exit(1)

    threading.Thread(target=watch, daemon=True, name="memory-watchdog").start()


def _worker_main(conn, memory_mb) -> None:
    """Child-process main: apply the memory ceiling once, then run jobs.

    Protocol: the parent sends ``(fn, args, kwargs)`` and finally
    ``None``; the child answers every job with ``(status, value)``.  On
    ``MemoryError`` the soft address-space limit is restored *before*
    pickling the reply, so reporting the OOM cannot itself OOM, and the
    child exits: its heap is no longer trustworthy for another job.
    """
    old_limit = None
    if memory_mb is not None:
        _start_memory_watchdog(conn, memory_mb)
        old_limit = resource.getrlimit(resource.RLIMIT_AS)
        backstop = _address_space_bytes() + (memory_mb + _BACKSTOP_SLACK_MB) * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (int(backstop), old_limit[1]))
    with conn:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):  # parent went away
                return
            if job is None:
                return
            fn, args, kwargs = job
            try:
                reply = (STATUS_OK, fn(*args, **kwargs))
            except MemoryError:
                if old_limit is not None:
                    resource.setrlimit(resource.RLIMIT_AS, old_limit)
                conn.send((STATUS_OOM, _OOM_DETAIL))
                return
            except BaseException as exc:  # report, never propagate out of the child
                reply = (STATUS_ERROR, f"{type(exc).__name__}: {exc}")
            try:
                conn.send(reply)
            except OSError:  # parent went away
                return
            except Exception as exc:  # the result does not pickle
                conn.send((STATUS_ERROR, f"{type(exc).__name__}: {exc}"))


class ForkWorker:
    """One governed child process running module-level jobs one at a time.

    The child forks once and applies the memory ceiling (tracemalloc
    watchdog, then ``RLIMIT_AS``) before its first job; fork keeps the
    already-imported interpreter, so a worker starts in milliseconds and
    shares the monotonic clock with the parent.  Each job comes back
    classified as ``(status, value)`` — ``value`` is the job's result for
    ``STATUS_OK`` and a human-readable detail otherwise.  The parent
    waits on the result pipe *and* the process sentinel, so a child that
    dies mid-job (OOM killer, segfault, SIGKILL) is reported as
    ``STATUS_CRASHED`` at once instead of hanging the caller.

    The parallel sweep keeps a few workers alive across many jobs; the
    service supervisor uses a fresh worker per attempt (:meth:`run`).
    """

    def __init__(self, memory_mb: Optional[float] = None) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, memory_mb), daemon=True
        )
        self.process.start()
        child_conn.close()

    def __enter__(self) -> "ForkWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, fn: Callable, args: Tuple = (), kwargs: Optional[Dict] = None) -> None:
        """Hand the child one job; its answer arrives via :meth:`result`.

        A child already dead at dispatch is not an error here: the next
        :meth:`result` sees its sentinel and reports ``STATUS_CRASHED``.
        """
        try:
            self.conn.send((fn, args, kwargs or {}))
        except OSError:
            pass

    def result(self, timeout: Optional[float] = None) -> Optional[Tuple[str, object]]:
        """The in-flight job's ``(status, value)``, or ``None`` if it is
        still running after ``timeout`` seconds (``None`` waits forever)."""
        if not wait([self.conn, self.process.sentinel], timeout):
            return None
        # Whatever the child sent before dying is still in the pipe;
        # EOF without a payload means it died before reporting.
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        self.process.join(timeout=1.0)
        return (
            STATUS_CRASHED,
            f"child died without reporting (exit code {self.process.exitcode})",
        )

    def run(
        self,
        fn: Callable,
        args: Tuple = (),
        kwargs: Optional[Dict] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[str, object]:
        """Run one job to a classified ``(status, value)``; a job still
        running after ``timeout`` seconds is ``STATUS_TIMEOUT`` and its
        child is killed."""
        self.submit(fn, args, kwargs)
        reply = self.result(timeout)
        if reply is None:
            self.process.kill()
            return STATUS_TIMEOUT, f"no result within {timeout:.1f}s; child killed"
        return reply

    @staticmethod
    def ready(workers: Sequence["ForkWorker"]) -> List["ForkWorker"]:
        """Block until at least one of ``workers`` has an answer (or has
        died); returns those that do."""
        woke = set(wait([h for w in workers for h in (w.conn, w.process.sentinel)]))
        return [w for w in workers if woke & {w.conn, w.process.sentinel}]

    def close(self) -> None:
        """Stop the child (politely when idle), reap it, close the pipe."""
        if self.process.is_alive():
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # stuck mid-job
                self.process.kill()
        self.process.join()
        self.conn.close()


__all__ = [
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_OOM",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "ForkWorker",
]
