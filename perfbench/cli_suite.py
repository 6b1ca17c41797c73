"""Workload ``cli-suite``: one ``python -m repro PROG.c --compare`` per program.

A closed loop with one client.  Every operation is a fresh process
analysing one of the 20 suite programs under all four strategies, in an
order drawn from the seed, so each pays interpreter start, import, the
pycparser parse and cold strategy memo tables.  A run makes whole passes
over the suite.

Outputs are checked against answers fixed before timing: the 64 cells
``BENCH_engine.json`` records (``edges``, ``deref_average``) and, for
the 16 cells it does not (no-cast programs under Collapse Always and
Offsets), the dict-based reference solver.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import sys
from typing import Dict, List, Tuple

from perfbench.common import (
    BASELINE, STRATEGIES, SUITE_DIR, Outcome, child_env, measure_setup,
    passes_for, run_child, run_dir, tail,
)
from perfbench.spans import clock, load_dump

_ROW = re.compile(r"^(\S.*?)\s+([\d.]+)ms\s+(\d+)\s+([\d.]+)$")
TRACE_GROUPS = "frontend,engine,session,clients"
#: Seconds one pass over the suite took when the workload was defined.
PASS_S = 7.0


class Plan:
    """Set-up output: program order, expected rows, statement counts."""

    def __init__(self, seed: int) -> None:
        from repro.clients.derefstats import deref_stats
        from repro.core import ALL_STRATEGIES
        from repro.core.reference import reference_analyze
        from repro.frontend import program_from_c
        from repro.suite.registry import SUITE

        names = [p.name for p in SUITE]
        random.Random(seed).shuffle(names)
        self.order = names
        self.paths = {p.name: SUITE_DIR / p.filename for p in SUITE}
        self.display = {cls().name: cls().key for cls in ALL_STRATEGIES}
        recorded = json.loads(BASELINE.read_text())["programs"]
        #: program → strategy key → (facts, avg |pts| as printed)
        self.expected: Dict[str, Dict[str, Tuple[int, str]]] = {}
        self.stmts: Dict[str, int] = {}
        for prog in SUITE:
            program = program_from_c(self.paths[prog.name].read_text(),
                                     name=prog.filename)
            self.stmts[prog.name] = program.stmt_count()
            cells = recorded[prog.name]["strategies"]
            rows = {}
            for cls in ALL_STRATEGIES:
                key = cls.key
                if key in cells:
                    rows[key] = (cells[key]["edges"],
                                 f"{cells[key]['deref_average']:.2f}")
                else:
                    ref = reference_analyze(program, cls())
                    rows[key] = (ref.facts.edge_count(),
                                 f"{deref_stats(ref).average:.2f}")
            self.expected[prog.name] = rows

    def close(self) -> None:
        pass

    def check(self, name: str, code: int, output: str) -> List[str]:
        """Every mismatch between one invocation's output and the plan."""
        if code != 0:
            return [f"{name}: exit code {code}: {output.strip()[-200:]}"]
        seen = {}
        for line in output.splitlines():
            m = _ROW.match(line.strip())
            if m and m.group(1) in self.display:
                seen[self.display[m.group(1)]] = (int(m.group(3)), m.group(4))
        problems = []
        for key in STRATEGIES:
            want = self.expected[name][key]
            got = seen.get(key)
            if got != want:
                problems.append(f"{name}/{key}: facts, avg |pts| = {got}, "
                                f"expected {want}")
        return problems


def _untraced(path) -> List[str]:
    return [sys.executable, "-m", "repro", str(path), "--compare"]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    setup_s, plan = measure_setup(lambda: Plan(seed))
    if trace:
        return _run_traced(plan, seconds, setup_s)
    env = child_env(bench=False)
    latencies: List[float] = []
    stmts = failed = 0
    peak = 0.0
    failures: List[str] = []

    def one_pass() -> None:
        nonlocal stmts, peak, failed
        for name in plan.order:
            code, out, wall, rss = run_child(_untraced(plan.paths[name]), env)
            latencies.append(wall)
            peak = max(peak, rss)
            stmts += plan.stmts[name] * len(STRATEGIES)
            problems = plan.check(name, code, out)
            failed += bool(problems)
            failures.extend(problems)

    for _ in range(passes_for(seconds, PASS_S)):
        one_pass()
    busy = sum(latencies)
    value, pct, n = tail(latencies)
    return Outcome(
        attempted=len(latencies), failed=failed, problems=failures,
        metrics={
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": value,
            "throughput_ops_s": len(latencies) / busy,
            "stmts_per_s": stmts / busy,
            "peak_rss_mb": peak,
        },
        notes={"latency_tail_s": f"p{pct:.1f} of {n} samples"},
    )


def _run_traced(plan: Plan, seconds: float, setup_s: float) -> Outcome:
    """Pairs of untraced and traced invocations of the same program."""
    from perfbench.layers import layer_metrics, unattributed

    out_dir = run_dir("cli-trace")
    untraced_env = child_env(bench=False)
    walls = {False: 0.0, True: 0.0}
    dumps, op_spans, failures = [], [], []
    ops = failed = 0

    def one_pass() -> None:
        nonlocal ops, failed
        for i, name in enumerate(plan.order):
            for traced in ((False, True) if (ops + i) % 2 == 0 else (True, False)):
                if traced:
                    ops += 1
                    dump = out_dir / f"op{ops}.json"
                    env = child_env(bench=True, extra={
                        "PERFBENCH_SPAWN": repr(clock()),
                        "PERFBENCH_OP": str(ops)})
                    argv = [sys.executable, "-m", "perfbench.child", str(dump),
                            TRACE_GROUPS, str(plan.paths[name]), "--compare"]
                else:
                    env, argv = untraced_env, _untraced(plan.paths[name])
                code, out, wall, _rss = run_child(argv, env)
                walls[traced] += wall
                problems = plan.check(name, code, out)
                failed += bool(problems)
                failures.extend(problems)
                if traced and dump.exists():
                    spans = load_dump(dump)["spans"]
                    dumps.append(spans)
                    op_spans.append((wall, spans))

    for _ in range(passes_for(seconds, 2 * PASS_S)):
        one_pass()
    layers = layer_metrics(dumps, ops, fig5_phase="cold")
    layers["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    layers["trace.unattributed_s"] = unattributed(op_spans)
    return Outcome(attempted=2 * ops, failed=failed,
                   problems=failures, metrics=layers,
                   notes={"setup_s": f"{setup_s:.3f} s"})
