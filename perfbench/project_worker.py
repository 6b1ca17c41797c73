"""The long-lived process of workload ``project-warm``.

``python3 -m perfbench.project_worker INPUTS.json`` loads the projects
set-up wrote, analyses the first one untimed (the warm-up), prints
``{"ready": ...}`` and waits; end of input makes it exit.  The parent then writes one line,
``CYCLES TRACE SPANS.json``; the worker makes that many cycles over the
remaining projects and prints one JSON line with every operation's
timing and output digests.

An operation is one project: link its translation units
(``AnalysisSession.from_sources``), solve all four strategies and take
``deref_stats`` of each.  With ``TRACE`` = 1 every project runs twice in
a row, once untraced and once with the span wrappers installed
(alternating which goes first), and the spans go to ``SPANS.json``.
Garbage is collected, untimed, before each operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import repro.clients.derefstats as derefstats
from repro.core import ALL_STRATEGIES
from repro.session import AnalysisSession


clock = time.monotonic


def digest(result) -> str:
    """A hash of every points-to fact of ``result``."""
    facts = sorted(f"{s!r}->{d!r}" for s, d in result.facts.all_facts())
    return hashlib.sha1("\n".join(facts).encode()).hexdigest()


def analyse(project: dict) -> tuple:
    """One operation; returns its results (for checking, untimed)."""
    session = AnalysisSession.from_sources(
        [tuple(tu) for tu in project["tus"]], name=project["name"])
    results = []
    for cls in ALL_STRATEGIES:
        result = session.solve(cls())
        derefstats.deref_stats(result)
        results.append(result)
    return session.program.stmt_count(), results


def main(argv) -> int:
    projects = json.loads(open(argv[0]).read())
    warm_up, measured = projects[0], projects[1:]
    analyse(warm_up)
    print(json.dumps({"ready": len(measured)}), flush=True)
    command = sys.stdin.readline().split()
    if not command:
        return 0                      # set-up was discarded
    cycles, trace, spans_out = int(command[0]), command[1] == "1", command[2]
    rec = None
    if trace:
        from perfbench.spans import Recorder, install

        rec = Recorder()
    ops = []

    def one(index: int, traced: bool) -> None:
        # Each project starts with no collector backlog from earlier
        # ones, so back-to-back projects do not trade collection pauses.
        gc.collect()
        if traced:
            install(rec, ("frontend", "link", "engine", "session", "clients"))
            rec.set_op(len(ops) + 1)
        start = clock()
        stmts, results = analyse(measured[index])
        end = clock()
        if traced:
            rec.uninstall()
        ops.append({
            "project": index, "traced": traced, "op": len(ops) + 1,
            "start": start, "end": end, "stmts": stmts,
            "digests": {r.strategy.key: digest(r) for r in results},
        })

    def cycle() -> None:
        for index in range(len(measured)):
            if not trace:
                one(index, False)
                continue
            pair = len(ops) // 2
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                one(index, traced)

    for _ in range(cycles):
        cycle()
    if rec is not None:
        rec.dump(Path(spans_out))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ops": ops, "peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
