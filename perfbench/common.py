"""Paths, child-process plumbing and order statistics shared by the workloads."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUITE_DIR = ROOT / "benchmarks" / "c_programs"
BASELINE = ROOT / "BENCH_engine.json"
#: Scratch space for one run (inputs, span files, the service's store).
OUT = ROOT / ".bench_out"

#: The strategy keys, in the order ``python -m repro --compare`` prints them.
STRATEGIES = ("collapse_always", "collapse_on_cast",
              "common_initial_sequence", "offsets")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    #: Every mismatch or error, one line each.
    problems: List[str]
    #: Metric name → value (end-to-end or per-layer, by run mode).
    metrics: Dict[str, float]
    #: Metric name → remark printed beside the value.
    notes: Dict[str, str] = field(default_factory=dict)


def measure_setup(build: Callable[[], T], reps: int = 3) -> Tuple[float, T]:
    """Set up ``reps`` times; the median time and the last set-up.

    Every earlier set-up is closed before the next starts.
    """
    times = []
    plan = None
    for _ in range(reps):
        if plan is not None:
            plan.close()
        t0 = time.monotonic()
        plan = build()
        times.append(time.monotonic() - t0)
    return statistics.median(times), plan


def passes_for(seconds: float, nominal_pass: float) -> int:
    """Whole passes over a workload's inputs for a ``seconds`` run.

    ``nominal_pass`` is a workload constant: the length of one pass when
    the workload was defined.  Deriving the count from a constant rather
    than from a measured pass keeps the work of a run fixed, so two runs
    of one seed do the same operations however fast each pass went.
    """
    return max(1, round(seconds / nominal_pass))


def require_program() -> None:
    """Fail fast when the checkout lacks the program under test."""
    missing = [p for p in (SRC / "repro" / "__init__.py", SUITE_DIR, BASELINE)
               if not p.exists()]
    if missing:
        raise BenchError("program under test not found: "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_root() -> Path:
    """This process's scratch directory (removed by :func:`clean_scratch`)."""
    return OUT / str(os.getpid())


def run_dir(name: str) -> Path:
    """A fresh directory ``name`` in this process's scratch directory."""
    path = scratch_root() / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_scratch() -> None:
    shutil.rmtree(scratch_root(), ignore_errors=True)
    try:
        OUT.rmdir()
    except OSError:
        pass                      # another run still uses it


def child_env(bench: bool, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment of a child running the program.

    Without ``bench`` the child sees only ``src`` on its path, so it
    imports the program exactly as a user's ``python -m repro`` would;
    with it, the child can also import this package.
    """
    env = dict(os.environ)
    paths = [str(SRC)] + ([str(ROOT)] if bench else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONHASHSEED"] = "0"
    if extra:
        env.update(extra)
    return env


def run_child(argv: Sequence[str], env: Dict[str, str],
              timeout: float = 120.0) -> Tuple[int, str, float, float]:
    """Run one child to completion, stderr merged into stdout.

    Returns ``(exit code, output, wall seconds, peak RSS in MB)``.  The
    child is reaped with ``wait4`` so its own peak RSS is known; a child
    still running after ``timeout`` seconds is killed.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(list(argv), env=env, cwd=str(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        timer.join()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Order statistics.
# ----------------------------------------------------------------------
def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ten or fewer
    samples there is no such percentile and the maximum is reported
    as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
