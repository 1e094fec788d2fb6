"""The HTTP daemon end to end: routing, batch verdicts, admission
control, drain, and the ``repro serve`` process itself.

The daemon under test runs on a background-thread event loop inside the
test process (so chaos rules installed by a test reach the queue's fault
point); the final test spawns the real ``python -m repro serve`` process
and exercises the SIGTERM drain path from outside.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.robust.chaos import FaultRule, chaos_rules
from repro.robust.retry import RetryPolicy
from repro.serve.daemon import DaemonConfig, VerificationDaemon
from repro.serve.supervisor import SupervisorConfig

SB = """
//! name: SB
//! exists (0, 0)
//! forbidden (7, 7)
atomics x, y;
fn t1 { entry: x.rlx := 1; r1 := y.rlx; print(r1); return; }
fn t2 { entry: y.rlx := 1; r2 := x.rlx; print(r2); return; }
threads t1, t2;
"""

STRAIGHTLINE = """
fn t1 {
entry:
    r := 2;
    s := r * 3;
    print(s);
    return;
}
threads t1;
"""

FAST = SupervisorConfig(
    job_deadline_seconds=15.0,
    retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
)


class Harness:
    """A daemon on a background-thread event loop, plus a tiny client."""

    def __init__(self, config: DaemonConfig) -> None:
        self.daemon = VerificationDaemon(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.port = asyncio.run_coroutine_threadsafe(
            self.daemon.start(), self.loop
        ).result(timeout=10)

    def drain(self, timeout=None) -> bool:
        return asyncio.run_coroutine_threadsafe(
            self.daemon.drain(timeout), self.loop
        ).result(timeout=60)

    def shutdown(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()

    # -- client ---------------------------------------------------------------

    def request(self, path, payload=None, timeout=60):
        """(status, body-dict, headers) for GET (payload None) or POST."""
        url = f"http://127.0.0.1:{self.port}{path}"
        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read()), dict(resp.headers)
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read()), dict(err.headers)


@pytest.fixture
def served():
    harness = Harness(DaemonConfig(port=0, workers=2, supervisor=FAST))
    yield harness
    try:
        harness.drain(timeout=10)
    finally:
        harness.shutdown()


class TestRouting:
    def test_healthz(self, served):
        status, body, _ = served.request("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0

    def test_metrics_counts_requests(self, served):
        served.request("/healthz")
        status, body, _ = served.request("/metrics")
        assert status == 200
        assert body["requests"] >= 2
        assert body["queue"]["capacity"] == 64
        assert "supervisor" in body

    def test_unknown_endpoint_404(self, served):
        status, body, _ = served.request("/v1/frobnicate", {"programs": [SB]})
        assert status == 404
        assert "unknown endpoint" in body["error"]

    def test_unknown_path_404(self, served):
        status, _, _ = served.request("/nope")
        assert status == 404


class TestBatches:
    def test_litmus_batch_proved(self, served):
        status, body, _ = served.request(
            "/v1/litmus",
            {"programs": [{"name": "SB", "source": SB}, STRAIGHTLINE]},
        )
        assert status == 200
        assert body["ok"] is True
        assert body["confidence"] == "PROVED"
        assert body["answered"] == body["total"] == 2
        by_name = {r["name"]: r for r in body["results"]}
        assert by_name["SB"]["ok"] is True
        assert by_name["SB"]["attempts"] == [["exhaustive", "ok"]]
        assert by_name["prog1"]["ok"] is True  # unnamed programs get progN

    def test_validate_batch(self, served):
        status, body, _ = served.request(
            "/v1/validate",
            {"programs": [STRAIGHTLINE], "opt": "constprop"},
        )
        assert status == 200
        assert body["ok"] is True and body["confidence"] == "PROVED"

    def test_races_batch(self, served):
        status, body, _ = served.request(
            "/v1/races", {"programs": [STRAIGHTLINE]}
        )
        assert status == 200
        assert body["ok"] is True

    def test_failing_spec_fails_batch(self, served):
        bad = SB.replace("//! exists (0, 0)", "//! exists (9, 9)")
        status, body, _ = served.request("/v1/litmus", {"programs": [bad]})
        assert status == 200
        assert body["ok"] is False
        assert body["results"][0]["ok"] is False  # a verdict, not an error

    def test_unanswerable_job_is_not_a_verdict(self, served):
        status, body, _ = served.request(
            "/v1/litmus", {"programs": [SB, "garbage ^ program"]}
        )
        assert status == 200
        assert body["ok"] is False  # an unanswered job can't make a batch ok
        assert body["answered"] == 1 and body["total"] == 2
        unanswered = body["results"][1]
        assert unanswered["ok"] is None
        assert "every rung failed" in unanswered["error"]


class TestAdmission:
    def test_bad_json_400(self, served):
        url = f"http://127.0.0.1:{served.port}/v1/litmus"
        req = urllib.request.Request(url, data=b"{torn")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def test_missing_programs_400(self, served):
        status, body, _ = served.request("/v1/litmus", {"nope": 1})
        assert status == 400
        assert "programs" in body["error"]

    def test_empty_batch_400(self, served):
        status, _, _ = served.request("/v1/litmus", {"programs": []})
        assert status == 400

    def test_unknown_optimizer_400_lists_the_choices(self, served):
        """Refused at admission: no worker is forked, no rung is walked."""
        status, body, _ = served.request(
            "/v1/validate", {"programs": [STRAIGHTLINE], "opt": "nonsense"}
        )
        assert status == 400
        assert "unknown optimizer 'nonsense'" in body["error"]
        assert "'constprop'" in body["error"] and "'pipeline'" in body["error"]
        assert served.daemon.supervisor.stats()["jobs"] == 0

    def test_oversize_batch_413(self, served):
        programs = [SB] * (served.daemon.config.max_batch_jobs + 1)
        status, body, _ = served.request("/v1/litmus", {"programs": programs})
        assert status == 413
        assert "max_batch_jobs" in body["error"]

    def test_injected_queue_full_is_429_with_retry_after(self, served):
        """Chaos forces the backpressure path deterministically: the
        client gets 429 plus a Retry-After hint, and the very next
        request (chaos uninstalled) succeeds."""
        with chaos_rules(FaultRule("queue.put", kind="error")):
            status, body, headers = served.request(
                "/v1/litmus", {"programs": [SB]}
            )
        assert status == 429
        assert body["retry_after_seconds"] >= 1.0
        assert int(headers["Retry-After"]) >= 1
        status, body, _ = served.request("/v1/litmus", {"programs": [SB]})
        assert status == 200 and body["ok"] is True


class TestDrain:
    def test_drain_refuses_then_exits_clean(self, served):
        status, body, _ = served.request("/v1/litmus", {"programs": [SB]})
        assert status == 200
        assert served.drain(timeout=30) is True
        # The listener is closed: new connections are refused outright.
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{served.port}/healthz", timeout=5
            )

    def test_draining_flag_turns_batches_away(self):
        harness = Harness(DaemonConfig(port=0, workers=1, supervisor=FAST))
        try:
            harness.daemon.draining = True  # drain announced, not yet complete
            status, body, _ = harness.request("/v1/litmus", {"programs": [SB]})
            assert status == 503
            assert "draining" in body["error"]
            status, body, _ = harness.request("/healthz")
            assert status == 200 and body["status"] == "draining"
        finally:
            harness.daemon.draining = False
            harness.drain(timeout=10)
            harness.shutdown()


class TestServeProcess:
    """ISSUE satellite (CI smoke): the real process end to end —
    start, verify a batch, SIGTERM, clean exit."""

    def test_smoke_start_verify_sigterm(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on 127.0.0.1:" in banner
            port = int(banner.split("127.0.0.1:")[1].split()[0])

            payload = json.dumps({"programs": [{"name": "SB", "source": SB}]})
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/litmus", data=payload.encode()
            )
            deadline = time.monotonic() + 60
            body = None
            while body is None and time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(req, timeout=60) as resp:
                        body = json.loads(resp.read())
                except (urllib.error.URLError, ConnectionError):
                    time.sleep(0.2)
            assert body is not None, "service never answered"
            assert body["ok"] is True
            assert body["confidence"] == "PROVED"

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        assert proc.returncode == 0, err
        assert "draining" in out
        assert "stopped (clean)" in out
