"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness N [--seeds A,B] [--seconds S]

``--trace 0`` measures the end-to-end metrics with the program imported
exactly as a user would; ``--trace 1`` wraps each layer's entry point in
a span recorder and reports the per-layer metrics instead.  Every metric
is printed by name with its unit, then the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--steadiness`` runs every workload N times per seed and prints each
end-to-end metric's median, quartiles and relative spread.

Exits 2, printing no result, when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import cli_suite, project_warm, serve_mix  # noqa: E402
from perfbench.common import BenchError, Outcome, clean_scratch, require_program  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = {
    "cli-suite": cli_suite.run,
    "project-warm": project_warm.run,
    "serve-mix": serve_mix.run,
}


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name]["unit"]


def report(workload: str, outcome: Outcome, trace: bool) -> dict:
    names = list(PER_LAYER) if trace else list(END_TO_END)
    for line in outcome.problems:
        print(f"MISMATCH {workload}: {line}", file=sys.stderr)
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{workload:13s} {'failed_share':28s} {share:14.6g} ratio"
          f"   ({outcome.failed} of {outcome.attempted})")
    for name in names:
        note = outcome.notes.get(name, "")
        print(f"{workload:13s} {name:28s} {outcome.metrics[name]:14.6g} "
              f"{_unit(name)}" + (f"   ({note})" if note else ""))
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": _unit(name)}
                    for name in names},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N", default=0,
                   help="run every workload N times per seed and print "
                   "the spread of each end-to-end metric")
    p.add_argument("--seeds", default="1,2",
                   help="comma-separated seeds for --steadiness")
    args = p.parse_args(argv)
    if not args.steadiness and not args.workload:
        p.error("--workload is required")
    # Unwind on SIGTERM too, so every child the run started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_program()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.steadiness:
        from perfbench.steady import steadiness

        seeds = [int(s) for s in args.seeds.split(",")]
        return steadiness(list(WORKLOADS), seeds, args.steadiness,
                          args.seconds)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                           bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        clean_scratch()
    print(json.dumps(report(args.workload, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
