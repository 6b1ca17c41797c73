#!/usr/bin/env python
"""CI smoke test for the analysis service (`python -m repro serve`).

Boots the real server as a subprocess on an ephemeral port, then drives
it the way an external tenant would:

1. parse the ``serving on <url>`` announce line;
2. ``GET /healthz`` must report ``ok``;
3. a full create → query → incremental delta → re-query round-trip via
   :class:`repro.service.client.ServiceClient`, checking the points-to
   answers at each step;
4. the same round-trip again: its create must be a front-end cache hit
   (``GET /metrics``, ``server.frontend_cache.hits``) and every answer
   must equal the first round-trip's;
5. a sweep of ADVERSARIAL-preset fuzz programs submitted over HTTP in
   both strict and lenient mode — every response must be a session or a
   structured JSON diagnostic envelope, never a 500;
6. on one keep-alive connection, 20 ``GET /healthz`` and 5 mod/ref
   queries on ``bc.c`` (a ~28 KB answer) must each take, in the median,
   under 10 ms more than on fresh connections — a response sent in two
   writes stalls ~40 ms per request on the client's delayed ACK;
7. 30 sessions over distinct generated programs, each created, queried
   for ``derefs`` under the four paper strategies, and deleted: the
   server's ``VmRSS`` must grow by at most 25 MB between the 5th and the
   30th session (skipped where ``/proc`` is absent); the leg also prints
   how many objects the server's cyclic collector freed per deleted
   session (``GET /metrics``, ``server.gc``);
8. SIGTERM must produce a clean shutdown (exit 0, ``shutdown: clean``).

Exit status is nonzero on any violation, with the failing step named on
stderr.  Usage::

    PYTHONPATH=src python tools/service_smoke.py [--seeds 0:25]
"""

from __future__ import annotations

import argparse
import http.client
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import ServiceClient, ServiceClientError  # noqa: E402
from repro.core import ALL_STRATEGIES  # noqa: E402
from repro.suite.generator import (  # noqa: E402
    ADVERSARIAL,
    GenConfig,
    generate_program,
)

SOURCE = """\
struct S { int *s1; int *s2; };
struct S s;
int x, y, *p;
void main(void) {
    s.s1 = &x;
    p = s.s1;
}
"""


def fail(step: str, detail: str) -> None:
    print(f"service-smoke FAILED at {step}: {detail}", file=sys.stderr)
    raise SystemExit(1)


def boot() -> tuple[subprocess.Popen, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("serving on http://"):
        proc.kill()
        _, err = proc.communicate(timeout=10)
        fail("boot", f"bad announce line {line!r}; stderr: {err.strip()}")
    return proc, line.split()[-1]


def check_round_trip(client: ServiceClient) -> list:
    """Create → query → delta → re-query; returns the answers."""
    if client.healthz().get("status") != "ok":
        fail("healthz", repr(client.healthz()))
    doc = client.create_session(SOURCE, name="smoke.c")
    sid = doc["session"]["id"]
    first = client.points_to(sid, "p")["names"]
    if first != ["x"]:
        fail("query", f"p -> {first}, expected ['x']")
    added = client.add_statements(
        sid, [{"form": "addrof", "lhs": "p", "target": "y"},
              {"form": "copy", "lhs": "p", "rhs": "s", "path": ["s1"]}],
        function="main",
    )["added"]
    got = client.points_to(sid, "p")["names"]
    if got != ["x", "y"]:
        fail("delta re-query", f"p -> {got}, expected ['x', 'y']")
    alias = client.may_alias(sid, "p", "s.s1")
    if not alias["may_alias"]:
        fail("alias query", repr(alias))
    print(f"round-trip ok: session {sid}, delta grew p to {got}")
    return [doc["session"]["statements"], first, added, got,
            alias["may_alias"], alias["may_point_to_same"]]


def check_cached_round_trip(client: ServiceClient, expected: list) -> None:
    """A second create of ``SOURCE`` is a front-end cache hit whose
    session answers exactly like the first (which took a delta since)."""
    hits = client.metrics()["server"]["frontend_cache"]["hits"]
    answers = check_round_trip(client)
    cache = client.metrics()["server"]["frontend_cache"]
    if cache["hits"] != hits + 1:
        fail("cached round-trip",
             f"front-end cache hits went {hits} -> {cache['hits']}, "
             f"expected one hit")
    if answers != expected:
        fail("cached round-trip",
             f"answers {answers!r} differ from the first session's "
             f"{expected!r}")
    print(f"cached round-trip ok: a front-end cache hit, same answers "
          f"({cache['entries']} cached programs, {cache['bytes']} bytes)")


def check_adversarial(client: ServiceClient, seeds: range) -> None:
    created = rejected = 0
    for seed in seeds:
        source = generate_program(seed, ADVERSARIAL)
        for strict in (True, False):
            try:
                doc = client.create_session(
                    source, name=f"fuzz{seed}.c", strict=strict)
                created += 1
                client.deref_stats(doc["session"]["id"])
            except ServiceClientError as err:
                rejected += 1
                if not 400 <= err.status < 500:
                    fail("adversarial",
                         f"seed {seed} strict={strict}: HTTP {err.status}")
                if not err.kind:
                    fail("adversarial",
                         f"seed {seed} strict={strict}: unstructured "
                         f"error {err.payload!r}")
    metrics = client.metrics()["server"]
    if metrics["internal_errors"] or "5xx" in metrics["responses_by_status"]:
        fail("adversarial", f"server saw a 500: {metrics}")
    print(f"adversarial sweep ok: {created} sessions created, "
          f"{rejected} structured rejections, 0 internal errors")


def keep_alive_added_s(url: str, path: str, n: int) -> tuple[float, bytes]:
    """Median seconds one kept connection adds per ``GET`` over a fresh
    connection, and the response body.  The handler's own time cancels
    out; a delayed-ACK stall does not."""
    parts = urlsplit(url)

    def connect() -> http.client.HTTPConnection:
        return http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=30)

    def get(conn: http.client.HTTPConnection) -> tuple[float, bytes]:
        started = time.perf_counter()
        conn.request("GET", path)
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            fail("keep-alive", f"GET {path}: HTTP {resp.status}")
        return time.perf_counter() - started, data

    conn = connect()
    try:
        _, data = get(conn)             # the first request is never stalled
        kept = [get(conn)[0] for _ in range(n)]
    finally:
        conn.close()
    fresh = []
    for _ in range(n):
        conn = connect()
        try:
            fresh.append(get(conn)[0])
        finally:
            conn.close()
    return statistics.median(kept) - statistics.median(fresh), data


def check_keep_alive(client: ServiceClient, limit_s: float = 0.010) -> None:
    source = (REPO / "benchmarks" / "c_programs" / "bc.c").read_text()
    sid = client.create_session(source, name="bc.c")["session"]["id"]
    report = []
    for label, path, n in (
            ("healthz", "/healthz", 20),
            ("bc modref", f"/v1/sessions/{sid}/query?kind=modref", 5)):
        added, data = keep_alive_added_s(client.base_url, path, n)
        if added >= limit_s:
            fail("keep-alive",
                 f"{label} ({len(data)} bytes): one connection adds "
                 f"{added * 1e3:.1f} ms per request (limit "
                 f"{limit_s * 1e3:.0f} ms) -- a response sent in more than "
                 f"one write waits for the client's delayed ACK")
        report.append(f"{label} ({len(data)} bytes) {added * 1e3:+.2f} ms")
    print("keep-alive ok: per request over a fresh connection, "
          + ", ".join(report))


def vm_rss_mb(pid: int) -> float:
    """Resident set size of process ``pid`` in MB, from ``/proc``."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    fail("session churn", f"no VmRSS line in /proc/{pid}/status")


def gc_collected(client: ServiceClient) -> int:
    """Objects the server's cyclic collector has freed so far."""
    return sum(g["collected"] for g in client.metrics()["server"]["gc"])


def check_session_churn(client: ServiceClient, pid: int, sessions: int = 30,
                        settle: int = 5, limit_mb: float = 25.0) -> None:
    if not Path(f"/proc/{pid}/status").exists():
        print("session churn skipped: no /proc to read the server's RSS")
        return
    cfg = GenConfig(n_statements=500, n_helper_functions=4, n_structs=6)
    settled = 0.0
    collected = 0
    for i in range(1, sessions + 1):
        source = generate_program(1000 + i, cfg)
        sid = client.create_session(source, name=f"churn{i}.c")["session"]["id"]
        for cls in ALL_STRATEGIES:
            client.deref_stats(sid, strategy=cls.key)
        client.delete_session(sid)
        if i == settle:
            settled = vm_rss_mb(pid)
            collected = gc_collected(client)
    grown = vm_rss_mb(pid) - settled
    if grown > limit_mb:
        fail("session churn",
             f"server RSS grew {grown:.1f} MB from session {settle} to "
             f"{sessions} (limit {limit_mb:.0f} MB) -- a deleted session's "
             f"program is still reachable")
    per_session = (gc_collected(client) - collected) / (sessions - settle)
    print(f"session churn ok: {sessions} create/derefs/delete cycles, RSS "
          f"{grown:+.1f} MB from session {settle} to {sessions}, "
          f"{per_session:.0f} objects collected by the cyclic collector "
          f"per deleted session")


def check_shutdown(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("shutdown", "server did not exit within 30s of SIGTERM")
    if proc.returncode != 0:
        fail("shutdown", f"exit code {proc.returncode}; stderr: {err.strip()}")
    if "shutdown: clean" not in out:
        fail("shutdown", f"missing clean-shutdown line in {out!r}")
    print("shutdown ok: exit 0, clean")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0:25", metavar="LO:HI",
                    help="ADVERSARIAL seed range for the HTTP fuzz sweep")
    args = ap.parse_args(argv)
    lo, hi = (int(part) for part in args.seeds.split(":"))

    started = time.monotonic()
    proc, url = boot()
    try:
        client = ServiceClient(url)
        check_cached_round_trip(client, check_round_trip(client))
        check_adversarial(client, range(lo, hi))
        check_keep_alive(client)
        check_session_churn(client, proc.pid)
    except BaseException:
        proc.kill()
        raise
    check_shutdown(proc)
    print(f"service-smoke PASSED in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
