"""The four workloads: set-up, the timed call per request, and judging.

A *request* is what one latency sample times: one input for the
in-process workloads, one batch POST for ``serve``.  ``call`` is the
only code inside the timed region; ``judge`` compares the answer with
the golden afterwards.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import corpus
from perfbench.tracing import Tracer
from repro.lang.printer import format_program
from repro.robust.budget import Budget
from repro.robust.confidence import Confidence
from repro.serve.daemon import DaemonConfig, VerificationDaemon

#: Serve: jobs per batch (one per daemon worker) and the share of batches
#: that repeat content already answered (store hits).
SERVE_WORKERS = 2
SERVE_BATCH = 2
SERVE_REPEAT_EVERY = 4
#: Serve's litmus endpoint explores with the spec's own configuration
#: (``por="none"``), so it takes the explore inputs whose oracle run stayed
#: under this many milliseconds; a batch round trip then stays near 0.1 s.
SERVE_LITMUS_MAX_MS = 60.0
SERVE_BATCHES = 4000


@dataclass(frozen=True)
class Verdict:
    """The judgement of one decided input."""

    item: str
    proved: bool
    failed: bool
    wrong: bool


class InProcess:
    """``explore``, ``validate-static`` and ``validate-explore``: every
    input decided serially in this process through the public API."""

    def __init__(self, name: str, seed: int, goldens_path: Path, tiny: bool) -> None:
        self.name = name
        self.seed = seed
        self.goldens_path = goldens_path
        self.tiny = tiny
        self.budget = Budget(deadline_seconds=corpus.INPUT_DEADLINE_S)
        self.parse_s = 0.0

    def setup(self) -> None:
        """Golden load, seeded draw, and generation/parsing of the inputs."""
        self.goldens = corpus.load_goldens(self.goldens_path)[self.name]
        self.items = corpus.sample(self.name, self.seed, {self.name: self.goldens}, self.tiny)
        self.subjects: Dict[str, corpus.Subject] = {}
        self.parse_s = 0.0
        for item in self.items:
            pid, _ = corpus.split_item(item)
            if pid not in self.subjects:
                started = time.perf_counter()
                self.subjects[pid] = corpus.load_subject(pid)
                if pid.startswith("file:"):
                    self.parse_s += time.perf_counter() - started

    def requests(self) -> List[str]:
        return self.items

    def items_of(self, item: str) -> List[str]:
        return [item]

    def inputs(self) -> int:
        return len(self.items)

    def call(self, item: str):
        pid, opt = corpus.split_item(item)
        return corpus.run(self.name, self.subjects[pid], opt, corpus.DEFAULT_POR, self.budget)

    def judge(self, item: str, raw) -> List[Verdict]:
        answer = corpus.answer(self.name, raw)
        wrong = bool(corpus.mismatches(self.name, answer, self.goldens[item]))
        return [Verdict(item, answer["proved"], not answer["proved"], wrong)]

    def observe(self, raw, tracer: Tracer) -> None:
        """Layer counters read off a report (traced phase only)."""
        if self.name == "explore":
            return
        tracer.add("opt.requests")
        tracer.add("opt.changed", raw.changed)
        report = raw
        if self.name == "validate-static":
            tracer.add("static.certify_calls")
            tracer.add("static.certified", raw.certificate.certified)
            report = raw.report
        if report is None:
            return
        for race in (report.source_wwrf, report.target_wwrf):
            if race is not None:
                tracer.add("races.checks")
                tracer.add("races.static", race.method == "static")
                tracer.add("races.downgrades", race.downgrade is not None)

    def close(self) -> None:
        pass


class _LoopThread:
    """An asyncio loop on a background thread, hosting the daemon."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="bench-daemon-loop")
        self.thread.start()

    def run(self, coroutine, timeout: float):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


class Serve:
    """``serve``: an in-process daemon (``workers=2``, content store on)
    and one closed-loop client POSTing fixed-size batches."""

    def __init__(self, seed: int, goldens_path: Path, tiny: bool, work_dir: Path) -> None:
        self.name = "serve"
        self.seed = seed
        self.goldens_path = goldens_path
        self.tiny = tiny
        self.work_dir = work_dir
        self.parse_s = 0.0
        self.daemon: Optional[VerificationDaemon] = None
        self.host: Optional[_LoopThread] = None
        self.starts = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Golden load, batch generation, and daemon start (fresh store)."""
        self.close()
        goldens = corpus.load_goldens(self.goldens_path)
        explore = goldens["explore"]
        litmus = [
            item
            for item in corpus.sample("explore", self.seed, goldens, self.tiny)
            if explore[item]["oracle_ms"] <= SERVE_LITMUS_MAX_MS and not item.endswith(".csimp")
        ]
        validate = corpus.sample("validate-static", self.seed, goldens, self.tiny)
        self.parse_s = 0.0
        sources: Dict[str, Dict[str, str]] = {"litmus": {}, "validate": {}}
        for item in litmus:
            started = time.perf_counter()
            subject = corpus.load_subject(item)
            if item.startswith("file:"):
                self.parse_s += time.perf_counter() - started
            sources["litmus"][item] = _litmus_source(subject, explore[item])
        for item in validate:
            pid, _ = corpus.split_item(item)
            if pid not in sources["validate"]:
                # CSimpRTL text, also for the structured-syntax example.
                sources["validate"][pid] = format_program(corpus.load_subject(pid).program)
        self.expected = {("litmus", item): explore[item].get("spec_ok", True) for item in litmus}
        self.expected.update(
            {("validate", item): goldens["validate-static"][item]["ok"] for item in validate}
        )
        self.batches = _batches(self.seed, litmus, validate, sources)
        self.inputs_n = len(litmus) + len(validate)
        self.starts += 1
        store = self.work_dir / f"store-{self.starts}"
        shutil.rmtree(store, ignore_errors=True)
        config = DaemonConfig(
            host="127.0.0.1", port=0, workers=SERVE_WORKERS, store_root=str(store),
            max_deadline_seconds=corpus.INPUT_DEADLINE_S,
        )
        self.host = _LoopThread()
        self.daemon = VerificationDaemon(config)
        self.port = self.host.run(self.daemon.start(), timeout=30)
        status, health = self._http("GET", "/healthz", None)
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"daemon not healthy: {status} {health}")

    def requests(self) -> List[dict]:
        return self.batches

    def items_of(self, batch: dict) -> List[str]:
        return batch["items"]

    def inputs(self) -> int:
        return self.inputs_n

    # -- requests ----------------------------------------------------------------

    def _http(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def call(self, batch: dict) -> Tuple[int, Any, float]:
        started = time.perf_counter()
        status, payload = self._http("POST", f"/v1/{batch['kind']}", batch["body"])
        return status, payload, time.perf_counter() - started

    def judge(self, batch: dict, raw) -> List[Verdict]:
        status, payload, _ = raw
        results = payload.get("results", []) if status == 200 else []
        verdicts = []
        for index, item in enumerate(batch["items"]):
            result = results[index] if index < len(results) else None
            if result is None or result.get("ok") is None:
                verdicts.append(Verdict(item, False, True, False))
                continue
            proved = result.get("confidence") == str(Confidence.PROVED)
            wrong = result["ok"] != self.expected[(batch["kind"], item)]
            verdicts.append(Verdict(item, proved, False, wrong))
        return verdicts

    def observe(self, raw, tracer: Tracer) -> None:
        status, payload, round_trip = raw
        tracer.add("serve.batches")
        if status == 429:
            tracer.add("serve.queue_rejected")
        results = payload.get("results", []) if status == 200 else []
        elapsed = [result.get("elapsed_seconds", 0.0) for result in results]
        tracer.add("serve.job_s", sum(elapsed))
        tracer.add("serve.overhead_s", round_trip - max(elapsed, default=0.0))
        for result in results:
            tracer.add("serve.jobs")
            if result.get("cached"):
                tracer.add("serve.store_hits")
            else:
                tracer.add("serve.fresh_jobs")
                tracer.add("serve.attempts", len(result.get("attempts", ())))

    def close(self) -> None:
        if self.daemon is not None and self.host is not None:
            self.host.run(self.daemon.drain(timeout=30), timeout=60)
            self.host.close()
            self.daemon = self.host = None
            shutil.rmtree(self.work_dir / f"store-{self.starts}", ignore_errors=True)


def _litmus_source(subject: corpus.Subject, golden: Dict[str, Any]) -> str:
    """A ``/v1/litmus`` job: the file as written, or the program with an
    ``only`` clause listing its golden outcomes (so the service's own
    verdict says whether it found exactly the reference outcome set)."""
    if subject.pid.startswith("file:") or not golden["outputs"]:
        return subject.source
    only = " ".join("(" + ", ".join(str(v) for v in outcome) + ")" for outcome in golden["outputs"])
    return f"//! only {only}\n{subject.source}"


def _batches(
    seed: int, litmus: List[str], validate: List[str], sources: Dict[str, Dict[str, str]]
) -> List[dict]:
    """Alternating litmus/validate batches; every ``SERVE_REPEAT_EVERY``-th
    batch re-sends an earlier one verbatim (a store hit).  Fresh jobs get a
    ``// job N`` comment so their content key is new even when the program
    recurs, which keeps the hit share fixed however far a run gets."""
    rng = random.Random(f"serve:{seed}")
    # The validate endpoint takes one batch-wide "opt": group by optimizer
    # and walk the optimizers round-robin.
    by_opt: Dict[str, List[str]] = {}
    for item in validate:
        by_opt.setdefault(corpus.split_item(item)[1], []).append(item)
    opts = sorted(by_opt)
    cursor = {"litmus": 0, **{opt: 0 for opt in opts}}
    validate_batches = 0
    batches: List[dict] = []
    for index in range(SERVE_BATCHES):
        if index % SERVE_REPEAT_EVERY == SERVE_REPEAT_EVERY - 1:
            batches.append(batches[rng.randrange(len(batches))])
            continue
        if index % 2 == 0:
            kind, key, pool, opt = "litmus", "litmus", litmus, None
        else:
            opt = opts[validate_batches % len(opts)]
            validate_batches += 1
            kind, key, pool = "validate", opt, by_opt[opt]
        items = [pool[(cursor[key] + k) % len(pool)] for k in range(SERVE_BATCH)]
        cursor[key] += SERVE_BATCH
        programs = [
            {"name": item, "source": f"// job {index}.{k}\n{sources[kind][corpus.split_item(item)[0]]}"}
            for k, item in enumerate(items)
        ]
        body: Dict[str, Any] = {"programs": programs}
        if opt is not None:
            body["opt"] = opt
        body["deadline_seconds"] = corpus.INPUT_DEADLINE_S
        batches.append({"kind": kind, "items": items, "body": json.dumps(body).encode()})
    return batches


def make(name: str, seed: int, goldens_path: Path, tiny: bool, work_dir: Path):
    if name == "serve":
        return Serve(seed, goldens_path, tiny, work_dir)
    return InProcess(name, seed, goldens_path, tiny)
