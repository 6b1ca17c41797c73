"""Steadiness self-check: how much each end-to-end metric moves between runs.

``python3 perfbench/run.py --steadiness N --seeds A,B --seconds S`` runs
every workload N times on seed A, then N times on seed B, reversing the
workload order from one round to the next.  For each workload and
end-to-end metric it prints, per seed and over all runs, the median, the
quartiles and the spread: the inter-quartile distance as a share of the
median.  A metric's bound in ``BENCHMARK.json`` should be at least three
times the largest spread seen here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict, List

from perfbench.common import ROOT, quartiles
from perfbench.metrics import END_TO_END


def _one(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def _row(label: str, values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return (f"  {label:24s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
            f"  spread {spread:6.3f}  (n={len(values)})")


def steadiness(workloads: List[str], seeds: List[int], n: int,
               seconds: float) -> int:
    runs: Dict[str, Dict[int, List[dict]]] = {
        w: {s: [] for s in seeds} for w in workloads}
    for k, seed in enumerate(seeds):
        for i in range(n):
            order = workloads if (k * n + i) % 2 == 0 else workloads[::-1]
            for workload in order:
                result = _one(workload, seed, seconds)
                runs[workload][seed].append(result)
                values = {k: round(v["value"], 4)
                          for k, v in result["metrics"].items()}
                print(f"# {workload} seed {seed} run {i + 1}/{n}: {values}",
                      file=sys.stderr, flush=True)
    ok = True
    for workload in workloads:
        every = [r for s in seeds for r in runs[workload][s]]
        failed = sum(r["failed"] for r in every)
        ok &= all(r["correct"] for r in every)
        print(f"{workload}: {len(every)} runs, {failed} failed operations")
        for name, (unit, _better, bound) in END_TO_END.items():
            print(f" {name} [{unit}], bound {bound}")
            for seed in seeds:
                print(_row(f"seed {seed}", [r["metrics"][name]["value"]
                                            for r in runs[workload][seed]]))
            print(_row("all runs", [r["metrics"][name]["value"] for r in every]))
    return 0 if ok else 1
