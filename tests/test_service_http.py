"""Wire-level tests: the threading HTTP server, concurrency, and fuzz.

The acceptance contract for the service (ISSUE 8 / ROADMAP
"analysis-as-a-service"):

- ≥8 concurrent clients against a 4-slot LRU pool complete
  create → delta → query round-trips with correct per-client results,
  evictions surfacing only as structured 404s;
- every ADVERSARIAL fuzz program submitted over HTTP yields either a
  session or a structured JSON diagnostic response — never a 500;
- the ``python -m repro serve`` CLI announces its bound URL, serves a
  round-trip, and shuts down cleanly on SIGTERM.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.service import ServiceConfig, start_server
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import _Handler
from repro.store import ResultStore
from repro.suite.generator import ADVERSARIAL, generate_program

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def server():
    with start_server(ServiceConfig(port=0, pool_size=4)) as handle:
        yield handle


def client_source(i: int) -> str:
    return (f"int a{i}, b{i}, *p{i};\n"
            f"void main(void) {{ p{i} = &a{i}; }}\n")


class TestRoundTrip:
    def test_create_delta_query(self, server):
        client = ServiceClient(server.url)
        doc = client.create_session(client_source(0), name="rt.c")
        sid = doc["session"]["id"]
        assert client.points_to(sid, "p0")["names"] == ["a0"]
        client.add_statements(
            sid, [{"form": "addrof", "lhs": "p0", "target": "b0"}],
            function="main",
        )
        assert client.points_to(sid, "p0")["names"] == ["a0", "b0"]
        assert client.healthz()["sessions_live"] == 1

    def test_error_envelope_crosses_the_wire(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceClientError) as exc:
            client.create_session("int x = ;")
        assert exc.value.status == 422
        assert exc.value.kind == "analysis-failed"
        assert exc.value.diagnostics[0]["kind"] == "parse-error"
        assert exc.value.diagnostics[0]["severity"] == "ERROR"

    def test_invalid_json_body_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/sessions", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        payload = json.loads(exc.value.read())
        assert payload["error"]["kind"] == "bad-request"

    def test_oversized_body_is_413(self):
        config = ServiceConfig(port=0, max_request_bytes=512)
        with start_server(config) as handle:
            client = ServiceClient(handle.url)
            with pytest.raises(ServiceClientError) as exc:
                client.create_session("int x;" + " " * 4096)
            assert exc.value.status == 413
            assert exc.value.kind == "request-too-large"


class TestWireContract:
    def _request(self, server, method, path, body=None):
        host, port = server.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.getheader("Content-Type"), resp.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("verb", ["PUT", "PATCH"])
    def test_unsupported_verb_is_json_405(self, server, verb):
        status, ctype, data = self._request(server, verb, "/v1/sessions",
                                            body=b"{}")
        assert status == 405
        assert ctype == "application/json"
        error = json.loads(data)["error"]
        assert error["kind"] == "method-not-allowed"
        assert "GET" in error["message"] and "POST" in error["message"]

    def test_read_bug_is_500_and_counted(self, server, monkeypatch):
        def broken(self):
            raise RuntimeError("bug in the body reader")

        monkeypatch.setattr(_Handler, "_read_body", broken)
        status, ctype, data = self._request(server, "GET", "/healthz")
        assert status == 500
        assert ctype == "application/json"
        error = json.loads(data)["error"]
        assert error["kind"] == "internal-error"
        assert "RuntimeError" in error["message"]
        assert "bug in the body reader" not in error["message"]
        assert server.app.counters.internal_errors == 1

    def test_read_socket_error_stays_400(self, server, monkeypatch):
        def timed_out(self):
            raise TimeoutError("read timed out")

        monkeypatch.setattr(_Handler, "_read_body", timed_out)
        status, _, data = self._request(server, "GET", "/healthz")
        assert status == 400
        assert json.loads(data)["error"]["kind"] == "bad-request"
        assert server.app.counters.internal_errors == 0


class TestPersistAfterDelete:
    """A ``DELETE`` answers first; the session's re-drained results are
    written to the store after the response, on the same thread."""

    SRC = "int x, y, *p, *q;\nvoid main(void) { p = &x; }\n"
    DELTA = [{"form": "copy", "lhs": "q", "rhs": "p"},
             {"form": "addrof", "lhs": "p", "target": "y"}]

    def _grown(self, client):
        sid = client.create_session(self.SRC)["session"]["id"]
        assert client.points_to(sid, "p")["names"] == ["x"]
        client.add_statements(sid, self.DELTA)
        assert client.points_to(sid, "q")["names"] == ["x", "y"]
        return sid

    def test_delete_answers_before_the_write(self, tmp_path, monkeypatch):
        config = ServiceConfig(port=0, pool_size=4, store=str(tmp_path))
        with start_server(config) as handle:
            # A write on the request path would block the DELETE until
            # the client gave up.
            client = ServiceClient(handle.url, timeout=5)
            sid = self._grown(client)
            assert len(list(tmp_path.glob("*.json"))) == 1
            entered, release = threading.Event(), threading.Event()
            original = ResultStore.put

            def blocking_put(self, *args, **kwargs):
                entered.set()
                release.wait(30)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(ResultStore, "put", blocking_put)
            try:
                assert client.delete_session(sid) == {"deleted": sid}
                assert entered.wait(10)
                assert len(list(tmp_path.glob("*.json"))) == 1
            finally:
                release.set()
            deadline = time.monotonic() + 10
            while (len(list(tmp_path.glob("*.json"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert len(list(tmp_path.glob("*.json"))) == 2

    def test_a_failing_write_is_counted_and_the_connection_serves_on(
            self, tmp_path, monkeypatch):
        config = ServiceConfig(port=0, pool_size=4, store=str(tmp_path))
        with start_server(config) as handle:
            sid = self._grown(ServiceClient(handle.url))

            def broken(self, *args, **kwargs):
                raise RuntimeError("bug in put")

            monkeypatch.setattr(ResultStore, "put", broken)
            host, port = handle.server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("DELETE", f"/v1/sessions/{sid}")
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read()) == {"deleted": sid}
                conn.request("GET", "/metrics")    # same connection
                resp = conn.getresponse()
                assert resp.status == 200
                server = json.loads(resp.read())["server"]
            finally:
                conn.close()
            assert server["internal_errors"] == 1


class TestKeepAlive:
    """Many requests on one connection, as a keep-alive client sends them.

    A response written as head then body stalls each request after the
    first for the client's delayed ACK (~40 ms on Linux).  ``urlopen``
    opens a connection per call, where TCP quick-ACK hides the stall,
    so this drives ``http.client`` directly.  The bound is on what the
    kept connection adds over a fresh one, so the handler's own time
    (a few ms for bc's mod/ref table) cancels out.
    """

    STALL_FREE_S = 0.010     # the stall adds ~44 ms; one write adds ~0

    @staticmethod
    def _get(conn, path):
        started = time.perf_counter()
        conn.request("GET", path)
        resp = conn.getresponse()
        data = resp.read()
        elapsed = time.perf_counter() - started
        assert resp.status == 200, data[:200]
        return elapsed, data

    def _added_by_keep_alive(self, server, path, n):
        """Median seconds one connection adds per request, and a body."""
        host, port = server.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            _, data = self._get(conn, path)     # the first is never stalled
            kept = [self._get(conn, path)[0] for _ in range(n)]
        finally:
            conn.close()
        fresh = []
        for _ in range(n):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                fresh.append(self._get(conn, path)[0])
            finally:
                conn.close()
        return statistics.median(kept) - statistics.median(fresh), data

    def test_healthz_has_no_delayed_ack_stall(self, server):
        added, _ = self._added_by_keep_alive(server, "/healthz", 20)
        assert added < self.STALL_FREE_S, added

    def test_large_body_has_no_delayed_ack_stall(self, server):
        source = (REPO_ROOT / "benchmarks" / "c_programs" / "bc.c").read_text()
        sid = ServiceClient(server.url).create_session(
            source, name="bc.c")["session"]["id"]
        added, data = self._added_by_keep_alive(
            server, f"/v1/sessions/{sid}/query?kind=modref", 5)
        # Larger than an 8 KiB write buffer, so a buffered writer would
        # still send the body in a second write.
        assert len(data) > 16 * 1024
        assert added < self.STALL_FREE_S, added


class TestConcurrentClients:
    N_CLIENTS = 8
    ROUNDS = 4

    def test_eight_clients_four_slots(self, server):
        """The acceptance scenario: 8 clients, 4-slot pool, evictions."""
        errors = []

        def worker(i: int) -> None:
            client = ServiceClient(server.url)
            completed = 0
            try:
                while completed < self.ROUNDS:
                    doc = client.create_session(client_source(i),
                                                name=f"client{i}.c")
                    sid = doc["session"]["id"]
                    try:
                        q = client.points_to(sid, f"p{i}")
                        assert q["names"] == [f"a{i}"], q
                        client.add_statements(
                            sid,
                            [{"form": "addrof", "lhs": f"p{i}",
                              "target": f"b{i}"}],
                            function="main",
                        )
                        q = client.points_to(sid, f"p{i}")
                        assert q["names"] == [f"a{i}", f"b{i}"], q
                        completed += 1
                    except ServiceClientError as err:
                        # Evicted mid-round-trip by another tenant: the
                        # only legal failure, and it must be structured.
                        assert err.status == 404, err
                        assert err.kind == "unknown-session", err
            except Exception as exc:  # noqa: BLE001 - collected for report
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        metrics = ServiceClient(server.url).metrics()["server"]
        # 8 tenants cycling through 4 slots must have evicted someone,
        # and the pool may never exceed its capacity.
        assert metrics["evictions"] > 0
        assert metrics["sessions_live"] <= 4
        assert metrics["sessions_created"] >= self.N_CLIENTS
        assert metrics["internal_errors"] == 0
        assert "5xx" not in metrics["responses_by_status"]

    def test_shared_session_concurrent_queries(self, server):
        """Many clients hammering ONE session serialize on its lock."""
        client = ServiceClient(server.url)
        sid = client.create_session(client_source(9))["session"]["id"]
        errors = []

        def worker() -> None:
            c = ServiceClient(server.url)
            try:
                for _ in range(10):
                    assert c.points_to(sid, "p9")["names"] == ["a9"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        server_counters = client.metrics()["server"]
        # One engine solved; every other query was a solve-cache hit.
        assert server_counters["solves"] == 1
        assert server_counters["solve_cache_hits"] >= 79


class TestAdversarialOverHttp:
    SEEDS = range(0, 30)

    def test_fuzz_inputs_never_500(self):
        """Hostile translation units through the HTTP path: 2xx/4xx only."""
        config = ServiceConfig(port=0, pool_size=4)
        with start_server(config) as handle:
            client = ServiceClient(handle.url)
            outcomes = {"created": 0, "rejected": 0}
            for seed in self.SEEDS:
                source = generate_program(seed, ADVERSARIAL)
                for strict in (True, False):
                    try:
                        doc = client.create_session(
                            source, name=f"fuzz{seed}.c", strict=strict)
                        outcomes["created"] += 1
                        sid = doc["session"]["id"]
                        # Queries on a hostile program must also stay
                        # structured (callgraph/derefs need no target).
                        client.call_graph(sid)
                        client.deref_stats(sid)
                        client.diagnostics(sid)
                    except ServiceClientError as err:
                        outcomes["rejected"] += 1
                        assert 400 <= err.status < 500, (seed, strict, err)
                        assert err.payload["error"]["kind"], err.payload
            metrics = client.metrics()["server"]
            assert metrics["internal_errors"] == 0
            assert "5xx" not in metrics["responses_by_status"]
            # Lenient mode must accept essentially everything.
            assert outcomes["created"] >= len(self.SEEDS)


class TestServeCli:
    def _spawn(self, *args, env_extra=None):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.update(env_extra or {})
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )

    def test_announce_roundtrip_clean_shutdown(self):
        proc = self._spawn()
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on http://"), line
            client = ServiceClient(line.split()[-1])
            sid = client.create_session(client_source(1))["session"]["id"]
            assert client.points_to(sid, "p1")["names"] == ["a1"]
            assert client.healthz()["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "shutdown: clean" in out

    def test_bad_backend_fails_fast(self):
        proc = self._spawn(env_extra={"REPRO_BACKEND": "warpdrive"})
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "unknown propagation backend" in err
        assert "REPRO_BACKEND" in err
        assert "Traceback" not in err

    def test_out_of_range_port_fails_fast(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "99999"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_explicit_backend_flag_round_trip(self):
        proc = self._spawn("--backend", "diffprop", "--lenient")
        try:
            line = proc.stdout.readline().strip()
            client = ServiceClient(line.split()[-1])
            # Lenient default: a degraded construct creates a session.
            doc = client.create_session(
                "int *p; int g;\nvoid main(void) { p = &g; g = g.oops; }")
            sid = doc["session"]["id"]
            assert client.points_to(sid, "p")["names"] == ["g"]
            [result] = client.metrics()["sessions"][0]["results"]
            assert result["backend"] == "diffprop"
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
