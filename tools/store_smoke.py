#!/usr/bin/env python
"""CI smoke test for the content-addressed result store (`repro.store`).

Exercises the store the way it is meant to be used — across process
boundaries — and asserts the three properties the unit tests cannot see
from inside one interpreter:

1. **CLI cold/warm**: ``python -m repro <prog> --store DIR`` in one
   process writes the entry (``0 hit(s), 1 miss(es)``); the *same
   command in a fresh process* warm-starts (``1 hit(s), 0 miss(es)``)
   and prints byte-identical points-to answers;
2. **server crash/restart**: a ``python -m repro serve --store DIR``
   instance answers a session's first query with one solve (``/metrics``
   ``solves`` rises by 1; a second query leaves it unchanged), is
   SIGKILLed (no clean shutdown, no in-memory state survives), and a
   rebooted server over the same directory answers the same query from
   the store — the first query leaves ``solves`` at 0, the session
   document shows ``store.hits == 1``, and the names are identical;
3. **re-drain crash/restart**: on a server over an empty store, a
   session solves, takes a delta, answers from the re-drained fixpoint
   and is deleted; the ``DELETE`` writes that fixpoint after answering.
   After a SIGKILL and a reboot, a new session over the same source and
   delta answers from the store — ``solves`` stays 0, the session
   document shows ``store.hits == 1``, and the names are identical;
4. **latency**: an in-process warm start is at least 5x faster than the
   cold solve it replaces (measured on a benchmark where the solve
   dominates; the ratio is asserted with margin for CI-load noise).

Exit status is nonzero on any violation, with the failing step named on
stderr.  Usage::

    PYTHONPATH=src python tools/store_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import ServiceClient  # noqa: E402

#: The suite's densest program: its solve dominates the warm-start
#: rebuild by ~7x even with all code paths hot, and by far more in the
#: fresh-process probes below; the smoke asserts a conservative 5x so
#: CI-load noise cannot flake it.
PROGRAM = REPO / "benchmarks" / "c_programs" / "bc.c"
MIN_SPEEDUP = 5.0

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
    print(f"store-smoke FAILED at {step}: {detail}", file=sys.stderr)
    raise SystemExit(1)


def run_cli(store: str) -> tuple[str, list[str]]:
    """One `python -m repro` run; returns (store line, answer lines)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", str(PROGRAM),
         "--store", store, "--profile"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        fail("cli", f"exit {proc.returncode}; stderr tail: "
             f"{proc.stderr.strip().splitlines()[-3:]}")
    store_lines = [ln for ln in proc.stderr.splitlines()
                   if ln.startswith("# store:")]
    if len(store_lines) != 1:
        fail("cli", f"expected one '# store:' line, got {store_lines!r}")
    answers = [ln for ln in proc.stdout.splitlines()
               if ln and not ln.startswith("#")]
    return store_lines[0], answers


def check_cli_round_trip(store: str) -> None:
    cold_line, cold_answers = run_cli(store)
    if "0 hit(s), 1 miss(es)" not in cold_line:
        fail("cli cold", f"expected a miss+write, got {cold_line!r}")
    if not cold_answers:
        fail("cli cold", "no points-to answers on stdout")

    warm_line, warm_answers = run_cli(store)       # fresh process
    if "1 hit(s), 0 miss(es)" not in warm_line:
        fail("cli warm", f"expected a pure hit, got {warm_line!r}")
    if warm_answers != cold_answers:
        diff = [(a, b) for a, b in zip(cold_answers, warm_answers) if a != b]
        fail("cli warm", f"answers not byte-identical: {diff[:3]!r}")
    print(f"cli round-trip ok: {len(cold_answers)} answer lines "
          f"byte-identical across processes")


def boot_server(store: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", store],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("serving on http://"):
        proc.kill()
        _, err = proc.communicate(timeout=10)
        fail("server boot", f"bad announce line {line!r}; "
             f"stderr: {err.strip()}")
    return proc, line.split()[-1]


def check_server_restart(store: str) -> None:
    proc, url = boot_server(store)
    try:
        client = ServiceClient(url)
        sid = client.create_session(SOURCE, name="smoke.c")["session"]["id"]
        # The first query solves the whole program once; the second is a
        # cache hit, not a second solve.
        before = client.metrics()["server"]["solves"]
        cold = client.points_to(sid, "p")["names"]
        solves = client.metrics()["server"]["solves"]
        if solves != before + 1:
            fail("server cold", f"the first query ran {solves - before} "
                 f"solve(s), expected 1")
        if cold != ["x"]:
            fail("server cold", f"p -> {cold}, expected ['x']")
        again = client.points_to(sid, "p")["names"]
        after = client.metrics()["server"]["solves"]
        if after != solves:
            fail("server cold", f"the second query solved again "
                 f"(solves {solves} -> {after})")
        if again != cold:
            fail("server cold", f"p -> {again} on the second query, "
                 f"had {cold}")
    finally:
        proc.send_signal(signal.SIGKILL)           # crash, not shutdown
        proc.communicate(timeout=30)

    proc, url = boot_server(store)
    try:
        client = ServiceClient(url)
        sid = client.create_session(SOURCE, name="smoke.c")["session"]["id"]
        # The first query after the restart loads the stored fixpoint:
        # no solve, one store hit.
        warm = client.points_to(sid, "p")["names"]
        if warm != cold:
            fail("server warm", f"p -> {warm} after restart, had {cold}")
        doc = client.get_session(sid)["session"]
        hits = (doc.get("store") or {}).get("hits", 0)
        if hits != 1:
            fail("server warm", f"store.hits = {hits}, expected 1: "
                 f"{doc.get('store')}")
        solves = client.metrics()["server"]["solves"]
        if solves != 0:
            fail("server warm", f"solves = {solves} after the first query, "
                 f"expected 0 (answered from the store)")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    print(f"server restart ok: SIGKILL survived, {hits} store hit, "
          f"no solve, identical answer {warm}")


#: A delta that grows ``SOURCE``'s ``p`` from ``{x}`` to ``{x, y}``.
DELTA = [{"form": "addrof", "lhs": "p", "target": "y"}]


def _entries(store: str) -> int:
    return len(list(Path(store).glob("*.json")))


def check_server_redrain(store: str) -> None:
    proc, url = boot_server(store)
    try:
        client = ServiceClient(url)
        sid = client.create_session(SOURCE, name="smoke.c")["session"]["id"]
        client.points_to(sid, "p")                 # solve, written at once
        client.add_statements(sid, DELTA)
        grown = client.points_to(sid, "p")["names"]   # re-drained
        if grown != ["x", "y"]:
            fail("re-drain", f"p -> {grown} after the delta, "
                 f"expected ['x', 'y']")
        written = _entries(store)
        client.delete_session(sid)
        # The DELETE writes the re-drained fixpoint after it answers.
        deadline = time.monotonic() + 30
        while _entries(store) == written and time.monotonic() < deadline:
            time.sleep(0.01)
        if _entries(store) != written + 1:
            fail("re-drain", f"{_entries(store) - written} entries written "
                 f"after DELETE, expected 1")
    finally:
        proc.send_signal(signal.SIGKILL)           # crash, not shutdown
        proc.communicate(timeout=30)

    proc, url = boot_server(store)
    try:
        client = ServiceClient(url)
        sid = client.create_session(SOURCE, name="smoke.c")["session"]["id"]
        client.add_statements(sid, DELTA)
        warm = client.points_to(sid, "p")["names"]
        if warm != grown:
            fail("re-drain warm", f"p -> {warm} after restart, had {grown}")
        doc = client.get_session(sid)["session"]
        hits = (doc.get("store") or {}).get("hits", 0)
        if hits != 1:
            fail("re-drain warm", f"store.hits = {hits}, expected 1: "
                 f"{doc.get('store')}")
        solves = client.metrics()["server"]["solves"]
        if solves != 0:
            fail("re-drain warm", f"solves = {solves} after the grown "
                 f"query, expected 0 (answered from the store)")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    print(f"re-drain restart ok: DELETE wrote the grown fixpoint, "
          f"{hits} store hit, no solve, identical answer {warm}")


_PROBE = """\
import sys, time
from repro import CommonInitialSequence
from repro.session import AnalysisSession

mode, store, path = sys.argv[1], sys.argv[2], sys.argv[3]
source = open(path).read()
session = AnalysisSession.from_c(source, name="probe.c", store=store)
strategy = CommonInitialSequence()
t0 = time.perf_counter()
if mode == "cold":
    session.solve(strategy)
else:
    if session.warm_start(strategy) is None:
        sys.exit("warm_start missed")
elapsed = time.perf_counter() - t0
if mode == "warm" and session.store_hits != 1:
    sys.exit(f"store_hits = {session.store_hits}")
print(f"{elapsed:.6f}")
"""


def _probe(mode: str, store: str) -> float:
    """Time one solve/warm-start as the first action of a fresh process
    — the scenario the on-disk store exists for.  Interpreter startup
    and parsing stay outside the timed region on both sides."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, mode, store, str(PROGRAM)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        fail("latency", f"{mode} probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def check_latency(store: str) -> None:
    _probe("cold", store)                  # write the entry
    t_cold = min(_probe("cold", os.path.join(store, f"fresh{i}"))
                 for i in range(2))        # fresh dirs: always a real solve
    t_warm = min(_probe("warm", store) for i in range(2))
    ratio = t_cold / t_warm
    if ratio < MIN_SPEEDUP:
        fail("latency", f"warm start only {ratio:.1f}x faster "
             f"({t_cold * 1e3:.1f}ms -> {t_warm * 1e3:.1f}ms), "
             f"need >= {MIN_SPEEDUP}x")
    print(f"latency ok: cold {t_cold * 1e3:.1f}ms, warm "
          f"{t_warm * 1e3:.1f}ms ({ratio:.1f}x, floor {MIN_SPEEDUP}x)")


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-store-smoke-") as store:
        check_cli_round_trip(store)
        check_server_restart(store)
        check_server_redrain(os.path.join(store, "redrain"))
        check_latency(os.path.join(store, "latency"))
    print(f"store-smoke PASSED in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
