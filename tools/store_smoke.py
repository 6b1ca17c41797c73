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
   instance answers a session's first ``demand=1`` query with one
   exhaustive solve (``demand.source == "solve"``; the plain query
   after it leaves ``/metrics`` ``solves`` unchanged), is SIGKILLed (no
   clean shutdown, no in-memory state survives), and a rebooted server
   over the same directory answers the same query from the store — a
   ``demand=1`` query reports ``demand.source == "store"``,
   ``store_hits > 0`` in the session document, identical names;
3. **latency**: an in-process warm start is at least 5x faster than the
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
        # The first demand query solves the whole program once; the
        # plain query after it is a cache hit, not a second solve.
        answer = client.query(sid, "points_to", target="p", demand="1")
        source = answer.get("demand", {}).get("source")
        if source != "solve":
            fail("server cold demand",
                 f"demand.source = {source!r}, expected 'solve'")
        solves = client.metrics()["server"]["solves"]
        cold = client.points_to(sid, "p")["names"]
        if cold != ["x"] or answer["names"] != cold:
            fail("server cold", f"p -> {cold} (demand: {answer['names']}), "
                 f"expected ['x']")
        after = client.metrics()["server"]["solves"]
        if after != solves:
            fail("server cold", f"the plain query after a demand query "
                 f"solved again (solves {solves} -> {after})")
    finally:
        proc.send_signal(signal.SIGKILL)           # crash, not shutdown
        proc.communicate(timeout=30)

    proc, url = boot_server(store)
    try:
        client = ServiceClient(url)
        sid = client.create_session(SOURCE, name="smoke.c")["session"]["id"]
        # A demand query is answered from the stored fixpoint, not by a
        # demand solve.
        answer = client.query(sid, "points_to", target="p", demand="1")
        if answer["names"] != cold:
            fail("server warm demand",
                 f"p -> {answer['names']} after restart, had {cold}")
        source = answer.get("demand", {}).get("source")
        if source != "store":
            fail("server warm demand",
                 f"demand.source = {source!r}, expected 'store'")
        warm = client.points_to(sid, "p")["names"]
        if warm != cold:
            fail("server warm", f"p -> {warm} after restart, had {cold}")
        doc = client.get_session(sid)["session"]
        hits = (doc.get("store") or {}).get("hits", 0)
        if not hits:
            fail("server warm", f"store_hits not visible: {doc.get('store')}")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    print(f"server restart ok: SIGKILL survived, {hits} store hit(s), "
          f"identical answer {warm}, demand query from the store")


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
        check_latency(os.path.join(store, "latency"))
    print(f"store-smoke PASSED in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
