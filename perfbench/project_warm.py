"""Workload ``project-warm``: generated multi-TU projects in one warm process.

A closed loop with one client, in one long-lived process
(:mod:`perfbench.project_worker`), after one warm-up project.  The
inputs are generated projects: ``generate_program`` with helper
functions and casts (about 2k generator statements, ~4.5k IR
statements), split into 4 translation units by
``split_translation_units``.  Each operation links one project, solves
it under all four strategies and takes ``deref_stats`` of each; a run
makes whole cycles over the projects, in an order drawn from the seed.

The projects come from fixed generator seeds, like the fixed suite of
``cli-suite``: one project costs up to 1.5x another, so with three
projects drawn from each run's seed the run-to-run spread of every
timing was 0.11-0.26 of its median, wider than any useful bound.

Every strategy's points-to facts are checked against the dict-based
reference solver on the same linked program, computed during set-up.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from typing import Dict, List

from perfbench.common import (
    STRATEGIES, BenchError, Outcome, child_env, measure_setup, passes_for,
    run_dir, tail,
)

#: Generator seeds of the warm-up project and of the measured ones.
WARM_UP_SEED = 0
PROJECT_SEEDS = (1, 2, 3)
GENERATOR = dict(n_statements=2000, n_helper_functions=8, n_structs=8,
                 cast_probability=0.3)
#: Seconds one cycle over the projects took when the workload was defined.
CYCLE_S = 3.5


class Plan:
    """Generated projects, their reference digests and a ready worker."""

    def __init__(self, seed: int) -> None:
        from repro.core import ALL_STRATEGIES
        from repro.core.reference import reference_analyze
        from repro.frontend import program_from_sources
        from repro.link.split import split_translation_units
        from repro.suite import GenConfig, generate_program

        from perfbench.project_worker import digest

        self.dir = run_dir("project-warm")
        measured = list(PROJECT_SEEDS)
        random.Random(seed).shuffle(measured)
        projects = []
        for gen_seed in [WARM_UP_SEED] + measured:
            name = f"proj{gen_seed}"
            source = generate_program(gen_seed, GenConfig(**GENERATOR))
            tus = split_translation_units(source, f"{name}.c", parts=4)
            projects.append({"name": name, "tus": tus})
        self.names = [p["name"] for p in projects[1:]]
        inputs = self.dir / "inputs.json"
        inputs.write_text(json.dumps(projects))
        # The worker warms up while the reference answers are computed.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.project_worker", str(inputs)],
            env=child_env(bench=True), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        try:
            #: measured project index → strategy key → reference digest
            self.expected: List[Dict[str, str]] = []
            for project in projects[1:]:
                program = program_from_sources(project["tus"], project["name"])
                self.expected.append({
                    cls.key: digest(reference_analyze(program, cls()))
                    for cls in ALL_STRATEGIES
                })
            ready = self.proc.stdout.readline()
            if not ready.startswith('{"ready"'):
                raise BenchError(f"project worker failed to start: {ready!r}")
        except BaseException:
            self.close()
            raise

    def measure(self, cycles: int, trace: bool) -> dict:
        spans = self.dir / "spans.json"
        self.proc.stdin.write(f"{cycles} {int(trace)} {spans}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("project worker exited without a report")
        report = json.loads(line)
        report["spans_path"] = spans
        return report

    def check(self, op: dict) -> List[str]:
        want = self.expected[op["project"]]
        return [f"{self.names[op['project']]}/{key}: points-to facts differ from "
                f"the reference solver"
                for key in STRATEGIES if op["digests"].get(key) != want[key]]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    setup_s, plan = measure_setup(lambda: Plan(seed))
    try:
        report = plan.measure(
            passes_for(seconds, 2 * CYCLE_S if trace else CYCLE_S), trace)
    finally:
        plan.close()
    ops = report["ops"]
    problems: List[str] = []
    failed = 0
    for op in ops:
        mismatches = plan.check(op)
        failed += bool(mismatches)
        problems.extend(mismatches)
    if trace:
        return _traced(ops, report, failed, problems, setup_s)
    latencies = [op["end"] - op["start"] for op in ops]
    busy = sum(latencies)
    value, pct, n = tail(latencies)
    return Outcome(
        attempted=len(ops), failed=failed, problems=problems,
        metrics={
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": value,
            "throughput_ops_s": len(ops) / busy,
            "stmts_per_s": sum(op["stmts"] for op in ops) * len(STRATEGIES) / busy,
            "peak_rss_mb": report["peak_rss_mb"],
        },
        notes={"latency_tail_s": f"p{pct:.1f} of {n} samples"},
    )


def _traced(ops, report, failed, problems, setup_s) -> Outcome:
    from perfbench.layers import layer_metrics, unattributed
    from perfbench.spans import load_dump

    spans = load_dump(report["spans_path"])["spans"]
    traced = [op for op in ops if op["traced"]]
    by_op: Dict[int, list] = {}
    for span in spans:
        by_op.setdefault(span[2], []).append(span)
    layers = layer_metrics([spans], len(traced), fig5_phase="warm")
    walls = {flag: sum(op["end"] - op["start"] for op in ops
                       if op["traced"] is flag) for flag in (False, True)}
    layers["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    layers["trace.unattributed_s"] = unattributed(
        (op["end"] - op["start"], by_op.get(op["op"], [])) for op in traced)
    return Outcome(attempted=len(ops), failed=failed, problems=problems,
                   metrics=layers, notes={"setup_s": f"{setup_s:.3f} s"})
