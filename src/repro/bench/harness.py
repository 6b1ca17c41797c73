"""Regenerating every table and figure of the paper's evaluation (§5).

One function per exhibit:

- :func:`figure3` — per-program statistics: lines of code, number of
  normalized assignment statements, and the lookup/resolve
  instrumentation (percentage of calls involving structures; of those,
  percentage where the types did not match) for the "Collapse on Cast"
  and "Common Initial Sequence" algorithms;
- :func:`figure4` — average points-to set size of a dereferenced pointer
  for the 12 structure-casting programs under all four algorithms
  (Collapse Always facts expanded per-field);
- :func:`figure5` — analysis times normalized to the "Offsets" algorithm;
- :func:`figure6` — total points-to edges normalized to "Offsets".

Each ``figureN`` returns structured rows; ``format_figureN`` renders the
paper-style text table.  :func:`run_all` regenerates everything (used by
``python -m repro.bench``).

Shared collection pass
----------------------

The four exhibits consume overlapping slices of the same underlying
measurements, so the harness runs one *collection pass*
(:func:`collect_results`): each suite program is parsed once, analyzed
under every strategy it needs (with ``repeats`` timed solves per
casting-program/strategy pair for Figure 5), and every exhibit then
assembles its rows from the shared :class:`SuiteResult` records.  The
per-program jobs are embarrassingly parallel and fan out across worker
processes (``jobs=``); each worker keeps the Figure 5 timing loop fully
inside the process so solve times are never polluted by IPC.  Results
are returned in deterministic (suite) order regardless of ``jobs``.

Timing methodology: Figure 5 keeps the minimum solve time over
``repeats`` runs, which is the standard way to reduce scheduler noise
for ratio reporting; the pytest-benchmark targets in
``benchmarks/bench_figure5.py`` provide statistically richer timings.

:func:`write_baseline` dumps the collection pass as JSON
(``BENCH_engine.json`` at the repo root is the committed baseline) so
the perf trajectory of the engine is tracked across changes.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from ..clients.derefstats import deref_stats
from ..core import ALL_STRATEGIES, analyze
from ..core.backend import backend_name
from ..core.engine import EngineStats, Result
from ..frontend import program_from_c
from ..ir.program import Program
from ..suite.registry import SUITE, BenchmarkProgram, by_name, casting_programs, load_source

__all__ = [
    "Figure3Row",
    "Figure4Row",
    "RatioRow",
    "SuiteResult",
    "analyze_suite_program",
    "collect_results",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "format_figure3",
    "format_figure4",
    "format_ratios",
    "metrics_records",
    "run_all",
    "write_baseline",
    "append_history",
    "history_path",
    "compare_to_baseline",
]

STRATEGY_ORDER = [cls.key for cls in ALL_STRATEGIES]
#: The two portable casting-aware algorithms Figure 3 instruments.
FIGURE3_KEYS = ("collapse_on_cast", "common_initial_sequence")
_HEADERS = {
    "collapse_always": "Collapse Always",
    "collapse_on_cast": "Collapse on Cast",
    "common_initial_sequence": "Common Init Seq",
    "offsets": "Offsets",
}


def loc_of(source: str) -> int:
    """Non-blank source lines (the paper's "lines of source code")."""
    return sum(1 for line in source.splitlines() if line.strip())


def load_program(bp: BenchmarkProgram) -> Program:
    """Parse and normalize one suite program."""
    return program_from_c(load_source(bp), name=bp.name)


def analyze_suite_program(bp: BenchmarkProgram, strategy_key: str,
                          program: Optional[Program] = None) -> Result:
    """Analyze one suite program under one strategy (by key)."""
    from ..core import STRATEGY_BY_KEY

    if program is None:
        program = load_program(bp)
    return analyze(program, STRATEGY_BY_KEY[strategy_key]())


# ---------------------------------------------------------------------------
# The shared collection pass.
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    """One (program, strategy) measurement from the collection pass.

    Picklable (plain strings/numbers/dicts only), so records cross the
    worker-process boundary unchanged.
    """

    program: str
    strategy: str
    casting: bool
    loc: int
    stmts: int
    #: :meth:`EngineStats.as_dict` of the first (result-bearing) run.
    stats: Dict[str, float]
    edges: int
    deref_average: float
    #: Minimum solve time over ``repeats`` runs (Figure 5 methodology),
    #: under the *primary* backend.
    solve_seconds: float
    repeats: int
    #: Primary propagation backend (the one ``stats``/``solve_seconds``
    #: describe).
    backend: str = "bigint"
    #: Per-backend min solve seconds when the pass timed several
    #: backends (``None`` for single-backend passes).
    solve_seconds_by_backend: Optional[Dict[str, float]] = None

    @property
    def engine_stats(self) -> EngineStats:
        return EngineStats.from_dict(self.stats)


#: key of the collection mapping: (program name, strategy key).
ResultMap = Dict[Tuple[str, str], SuiteResult]


def _suite_worker(
    job: Tuple[str, Tuple[str, ...], int, Tuple[str, ...]]
) -> List[dict]:
    """Analyze one program under several strategies (runs in a worker).

    Parses the program once, performs ``repeats`` timed solves per
    strategy and backend (timing stays inside this process), and returns
    plain-dict records.  The analysis result (stats, edges, deref
    average) is taken from the first run under the *primary* (first)
    backend — solves are deterministic, so re-runs only serve the timing
    minimum.  When several backends are timed, every backend's result is
    asserted precision-identical to the primary's (same edges, deref
    averages, and gated counters) before its timing is recorded.

    Every solve runs with the cyclic garbage collector paused by the
    engine itself (:func:`repro.core.engine.no_cyclic_gc`), so no
    collection lands inside a timed fixpoint.
    """
    from ..core import STRATEGY_BY_KEY
    from ..session import AnalysisSession

    name, keys, repeats, backends = job
    bp = by_name(name)
    source = load_source(bp)
    session = AnalysisSession(program_from_c(source, name=bp.name))
    loc = loc_of(source)
    stmts = session.program.stmt_count()
    primary = backends[0]
    out: List[dict] = []
    for key in keys:
        # One strategy per (program, strategy): every repeat and backend
        # reuses its memo tables, so "warm" means warm within this program.
        strategy = STRATEGY_BY_KEY[key]()
        first: Optional[Result] = None
        by_backend: Dict[str, float] = {}
        first_gated: Optional[dict] = None
        for be in backends:
            best: Optional[float] = None
            for _ in range(max(repeats, 1)):
                # fresh=True: every timed run drains the full worklist
                # on a new engine.
                res = session.solve(strategy, fresh=True, backend=be)
                if first is None:
                    first = res
                    first_gated = _gated_stats(res.stats.as_dict())
                elif best is None:
                    # First run under a secondary backend: the
                    # fixpoint must be byte-identical to the
                    # primary's.
                    got = _gated_stats(res.stats.as_dict())
                    if (
                        res.facts.edge_count() != first.facts.edge_count()
                        or deref_stats(res).average != deref_stats(first).average
                        or got != first_gated
                    ):
                        raise AssertionError(
                            f"{name}/{key}: backend {be!r} diverged "
                            f"from {primary!r}: edges "
                            f"{res.facts.edge_count()} vs "
                            f"{first.facts.edge_count()}, gated stats "
                            f"{_dict_diff(got, first_gated)}"
                        )
                t = res.stats.solve_seconds
                best = t if best is None or t < best else best
            by_backend[be] = best or 0.0
        assert first is not None
        out.append(
            dict(
                program=name,
                strategy=key,
                casting=bp.casting,
                loc=loc,
                stmts=stmts,
                stats=first.stats.as_dict(),
                edges=first.facts.edge_count(),
                deref_average=deref_stats(first).average,
                solve_seconds=by_backend[primary],
                repeats=max(repeats, 1),
                backend=primary,
                solve_seconds_by_backend=(
                    by_backend if len(backends) > 1 else None
                ),
            )
        )
    return out


def _gated_stats(stats: Dict[str, object]) -> Dict[str, object]:
    """The precision-gated slice of an ``EngineStats.as_dict``."""
    return {k: v for k, v in stats.items() if k not in _UNGATED_STATS}


def _dict_diff(a: Dict[str, object], b: Optional[Dict[str, object]]) -> str:
    b = b or {}
    diffs = [
        f"{k}: {a.get(k)!r} != {b.get(k)!r}"
        for k in sorted(set(a) | set(b))
        if a.get(k) != b.get(k)
    ]
    return "{" + ", ".join(diffs) + "}"


def _default_jobs() -> int:
    return os.cpu_count() or 1


def collect_results(
    repeats: int = 3,
    jobs: Optional[int] = None,
    programs: Optional[Sequence[BenchmarkProgram]] = None,
    figures: Iterable[str] = ("3", "4", "5", "6"),
    backends: Optional[Sequence[str]] = None,
) -> ResultMap:
    """Run the shared collection pass.

    ``jobs=None`` or ``1`` runs serially in-process; ``jobs>1`` fans the
    per-program jobs out over a process pool.  ``figures`` trims the work
    to what the requested exhibits need (e.g. without Figure 5 no timing
    repeats are run; without Figure 3 the no-cast programs are skipped).
    ``backends`` lists the propagation backends to time; the first is the
    primary whose stats populate each record, and every other backend is
    asserted precision-identical before its timing is kept (defaults to
    the environment-selected backend alone).
    """
    figures = {str(f) for f in figures}
    suite = list(programs) if programs is not None else list(SUITE)
    want_casting = bool(figures & {"4", "5", "6"})
    timing_repeats = repeats if "5" in figures else 1
    bes = tuple(backends) if backends else (backend_name(None),)

    jobs_list: List[Tuple[str, Tuple[str, ...], int, Tuple[str, ...]]] = []
    for bp in suite:
        if bp.casting and want_casting:
            keys = tuple(
                dict.fromkeys(
                    (list(FIGURE3_KEYS) if "3" in figures else []) + STRATEGY_ORDER
                )
            )
            jobs_list.append((bp.name, keys, timing_repeats, bes))
        elif "3" in figures:
            jobs_list.append((bp.name, FIGURE3_KEYS, 1, bes))

    if jobs is None or jobs <= 1 or len(jobs_list) <= 1:
        batches = [_suite_worker(j) for j in jobs_list]
    else:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else None
        ctx = mp.get_context(method)
        with ctx.Pool(min(jobs, len(jobs_list))) as pool:
            batches = pool.map(_suite_worker, jobs_list)

    data: ResultMap = {}
    for batch in batches:
        for rec in batch:
            sr = SuiteResult(**rec)
            data[(sr.program, sr.strategy)] = sr
    return data


def _ensure(data: Optional[ResultMap], figures: Iterable[str],
            repeats: int = 1) -> ResultMap:
    """Use ``data`` if given, else run a minimal serial collection."""
    if data is not None:
        return data
    return collect_results(repeats=repeats, jobs=None, figures=figures)


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------


@dataclass
class Figure3Row:
    name: str
    casting: bool
    loc: int
    stmts: int
    #: strategy key -> (% of lookup+resolve calls involving structures,
    #:                  % of those where the types did not match)
    struct_pct: Dict[str, float]
    mismatch_pct: Dict[str, float]


def figure3(data: Optional[ResultMap] = None) -> List[Figure3Row]:
    """Figure 3: program sizes and lookup/resolve instrumentation."""
    data = _ensure(data, figures=("3",))
    rows: List[Figure3Row] = []
    for bp in SUITE:
        struct_pct: Dict[str, float] = {}
        mismatch_pct: Dict[str, float] = {}
        rec = None
        for key in FIGURE3_KEYS:
            rec = data.get((bp.name, key))
            if rec is None:
                continue
            s = rec.stats
            calls = s["lookup_calls"] + s["resolve_calls"]
            struct = s["lookup_struct_calls"] + s["resolve_struct_calls"]
            mismatch = s["lookup_mismatch_calls"] + s["resolve_mismatch_calls"]
            struct_pct[key] = 100.0 * struct / calls if calls else 0.0
            mismatch_pct[key] = 100.0 * mismatch / struct if struct else 0.0
        if rec is None:
            continue
        rows.append(
            Figure3Row(
                name=bp.name,
                casting=bp.casting,
                loc=rec.loc,
                stmts=rec.stmts,
                struct_pct=struct_pct,
                mismatch_pct=mismatch_pct,
            )
        )
    # Paper ordering: the 8 no-casting programs first, then the 12 with
    # casting, each block sorted by size.
    rows.sort(key=lambda r: (r.casting, r.loc))
    return rows


def format_figure3(rows: List[Figure3Row]) -> str:
    out = [
        "Figure 3: test programs and lookup/resolve instrumentation",
        "(struct%: lookup+resolve calls involving structures;",
        " cast%: of those, calls where the types did not match)",
        "",
        f"{'program':12s} {'cast':4s} {'LOC':>5s} {'stmts':>6s} "
        f"{'CoC struct%':>12s} {'CoC cast%':>10s} "
        f"{'CIS struct%':>12s} {'CIS cast%':>10s}",
    ]
    for r in rows:
        out.append(
            f"{r.name:12s} {'yes' if r.casting else 'no':4s} {r.loc:5d} "
            f"{r.stmts:6d} "
            f"{r.struct_pct['collapse_on_cast']:12.1f} "
            f"{r.mismatch_pct['collapse_on_cast']:10.1f} "
            f"{r.struct_pct['common_initial_sequence']:12.1f} "
            f"{r.mismatch_pct['common_initial_sequence']:10.1f}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@dataclass
class Figure4Row:
    name: str
    #: strategy key -> average points-to set size per dereference.
    averages: Dict[str, float]


def _casting_names(data: ResultMap) -> List[str]:
    """Casting programs present in ``data``, in suite order."""
    present = {name for (name, _key) in data}
    return [bp.name for bp in casting_programs() if bp.name in present]


def figure4(data: Optional[ResultMap] = None) -> List[Figure4Row]:
    """Figure 4: average deref points-to set size, 12 casting programs."""
    data = _ensure(data, figures=("4",))
    return [
        Figure4Row(
            name=name,
            averages={
                key: data[(name, key)].deref_average for key in STRATEGY_ORDER
            },
        )
        for name in _casting_names(data)
    ]


def format_figure4(rows: List[Figure4Row]) -> str:
    out = [
        "Figure 4: average points-to set size of a dereferenced pointer",
        "",
        f"{'program':12s} " + " ".join(f"{_HEADERS[k]:>17s}" for k in STRATEGY_ORDER),
    ]
    for r in rows:
        out.append(
            f"{r.name:12s} "
            + " ".join(f"{r.averages[k]:17.2f}" for k in STRATEGY_ORDER)
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Figures 5 and 6 (ratios normalized to Offsets)
# ---------------------------------------------------------------------------


@dataclass
class RatioRow:
    name: str
    #: strategy key -> value (seconds for fig. 5, edge count for fig. 6).
    values: Dict[str, float]

    def normalized(self) -> Dict[str, float]:
        base = self.values.get("offsets") or 1.0
        return {k: v / base for k, v in self.values.items()}


def figure5(repeats: int = 3, data: Optional[ResultMap] = None) -> List[RatioRow]:
    """Figure 5: analysis time per algorithm (normalize to Offsets)."""
    data = _ensure(data, figures=("5",), repeats=repeats)
    return [
        RatioRow(
            name=name,
            values={
                key: data[(name, key)].solve_seconds for key in STRATEGY_ORDER
            },
        )
        for name in _casting_names(data)
    ]


def figure6(data: Optional[ResultMap] = None) -> List[RatioRow]:
    """Figure 6: total points-to edges per algorithm."""
    data = _ensure(data, figures=("6",))
    return [
        RatioRow(
            name=name,
            values={
                key: float(data[(name, key)].edges) for key in STRATEGY_ORDER
            },
        )
        for name in _casting_names(data)
    ]


def format_ratios(rows: List[RatioRow], title: str, unit: str) -> str:
    out = [
        title,
        f"(ratios normalized to Offsets; absolute Offsets {unit} in last column)",
        "",
        f"{'program':12s} "
        + " ".join(f"{_HEADERS[k]:>17s}" for k in STRATEGY_ORDER)
        + f" {('offsets ' + unit):>16s}",
    ]
    for r in rows:
        norm = r.normalized()
        base = r.values["offsets"]
        base_txt = f"{base:16.4f}" if base < 10 else f"{base:16.0f}"
        out.append(
            f"{r.name:12s} "
            + " ".join(f"{norm[k]:17.2f}" for k in STRATEGY_ORDER)
            + f" {base_txt}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Baseline writer (perf trajectory tracking).
# ---------------------------------------------------------------------------


def write_baseline(path: str, data: ResultMap, repeats: int,
                   wall_seconds: Optional[float] = None) -> None:
    """Dump a collection pass to JSON (``BENCH_engine.json`` schema v2).

    Per program and strategy: min solve seconds (primary backend, plus a
    per-backend breakdown when the pass timed several), points-to edges,
    and the full :class:`EngineStats` record; plus field-wise totals (via
    :meth:`EngineStats.merged` — no hand-rolled field lists).  Every v1
    key is preserved, so older readers (and ``compare_to_baseline``
    against an old baseline) keep working.
    """
    programs: Dict[str, dict] = {}
    backends_seen: List[str] = []
    for (name, key), rec in sorted(data.items()):
        entry = programs.setdefault(
            name,
            {"casting": rec.casting, "loc": rec.loc, "stmts": rec.stmts,
             "strategies": {}},
        )
        srec = {
            "solve_seconds": round(rec.solve_seconds, 6),
            "edges": rec.edges,
            "deref_average": round(rec.deref_average, 6),
            "stats": rec.stats,
        }
        if rec.solve_seconds_by_backend:
            srec["solve_seconds_by_backend"] = {
                be: round(t, 6)
                for be, t in sorted(rec.solve_seconds_by_backend.items())
            }
            for be in rec.solve_seconds_by_backend:
                if be not in backends_seen:
                    backends_seen.append(be)
        elif rec.backend not in backends_seen:
            backends_seen.append(rec.backend)
        entry["strategies"][key] = srec
    totals = EngineStats.merged(r.engine_stats for r in data.values())
    totals_doc: Dict[str, object] = {
        "measurements": len(data),
        "min_solve_seconds_sum": round(
            sum(r.solve_seconds for r in data.values()), 6
        ),
        "edges_sum": sum(r.edges for r in data.values()),
        "stats": totals.as_dict(),
    }
    by_backend: Dict[str, float] = {}
    for rec in data.values():
        for be, t in (rec.solve_seconds_by_backend
                      or {rec.backend: rec.solve_seconds}).items():
            by_backend[be] = by_backend.get(be, 0.0) + t
    if len(by_backend) > 1:
        totals_doc["min_solve_seconds_sum_by_backend"] = {
            be: round(t, 6) for be, t in sorted(by_backend.items())
        }
    doc = {
        "schema": 2,
        "tool": "python -m repro.bench --write-baseline",
        "repeats": repeats,
        "strategy_order": STRATEGY_ORDER,
        "backends": sorted(backends_seen),
        "programs": programs,
        "totals": totals_doc,
    }
    if wall_seconds is not None:
        doc["wall_seconds"] = round(wall_seconds, 3)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def history_path(baseline_path: str) -> Path:
    """The timing-history sidecar next to a baseline file.

    ``BENCH_engine.json`` maps to ``BENCH_history.jsonl``; any other
    baseline name ``<stem>.json`` maps to ``<stem>_history.jsonl`` in
    the same directory.
    """
    p = Path(baseline_path)
    stem = p.stem
    if stem.endswith("_engine"):
        stem = stem[: -len("_engine")]
    return p.with_name(f"{stem}_history.jsonl")


def append_history(baseline_path: str, data: ResultMap, repeats: int,
                   wall_seconds: Optional[float] = None) -> Path:
    """Append one timing-trajectory record beside the baseline.

    ``BENCH_engine.json`` is the *precision* gate — timings there are
    informational snapshots, overwritten on every ``--write-baseline``.
    The sidecar (``BENCH_history.jsonl``) keeps the trajectory instead:
    one JSON line per baseline write with the suite's min-solve sums
    (overall, per backend, per program), so performance regressions and
    wins stay visible across PRs without ever touching the gate.
    """
    by_backend: Dict[str, float] = {}
    per_program: Dict[str, float] = {}
    for (name, _key), rec in sorted(data.items()):
        per_program[name] = per_program.get(name, 0.0) + rec.solve_seconds
        for be, t in (rec.solve_seconds_by_backend
                      or {rec.backend: rec.solve_seconds}).items():
            by_backend[be] = by_backend.get(be, 0.0) + t
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repeats": repeats,
        "measurements": len(data),
        "min_solve_seconds_sum": round(
            sum(r.solve_seconds for r in data.values()), 6
        ),
        "min_solve_seconds_sum_by_backend": {
            be: round(t, 6) for be, t in sorted(by_backend.items())
        },
        "min_solve_seconds_by_program": {
            name: round(t, 6) for name, t in sorted(per_program.items())
        },
    }
    if wall_seconds is not None:
        record["wall_seconds"] = round(wall_seconds, 3)
    path = history_path(baseline_path)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def metrics_records(data: ResultMap) -> List[dict]:
    """One ``repro.obs``-style metrics record per measurement.

    The collection pass crosses a process boundary, so these records are
    assembled from the picklable :class:`SuiteResult` slice (EngineStats
    incl. per-rule firing counters, edges, deref average, min solve);
    per-instance memo counters and tracer summaries only exist for
    in-process runs — use :func:`repro.obs.metrics` on a single
    :class:`~repro.core.engine.Result` for those.
    """
    out: List[dict] = []
    for (name, key), rec in sorted(data.items()):
        out.append(
            {
                "program": name,
                "strategy": key,
                "casting": rec.casting,
                "loc": rec.loc,
                "stmts": rec.stmts,
                "stats": rec.stats,
                "facts": rec.edges,
                "deref_average": rec.deref_average,
                "min_solve_seconds": rec.solve_seconds,
                "repeats": rec.repeats,
                "backend": rec.backend,
                "min_solve_seconds_by_backend": rec.solve_seconds_by_backend,
            }
        )
    return out


#: Stats fields excluded from the precision gate: timings, the collapse
#: counters, the backend identity/how-counters, the session counters,
#: and the link/modular provenance counters (they describe *how* the
#: fixpoint was reached — propagation order, backend, incremental vs.
#: from scratch, linked vs. single-TU, modular vs. whole-program — not
#: *what* it computed).
_UNGATED_STATS = (
    "solve_seconds",
    "sccs_collapsed",
    "props_saved",
    "backend",
    "dense_rounds",
    "accel_active",
    "frontier_bits_suppressed",
    "incremental_solves",
    "delta_stmts",
    "reused_graph_refs",
    "tus_linked",
    "externs_resolved",
    "summaries_computed",
    "demanded_facts",
    "demand_widenings",
    "store_hits",
    "store_misses",
)


def compare_to_baseline(path: str, data: ResultMap) -> Tuple[bool, str]:
    """Diff a collection pass against a committed baseline JSON.

    The precision-bearing measurements — points-to edge counts, logical
    fact counts and the rest of the order-independent
    :class:`EngineStats` counters, and per-dereference averages — must
    match the baseline *exactly* for every (program, strategy) pair the
    baseline records; any drift is a failure.  Timings are reported for
    context but never gated (CI machines are too noisy to gate on).

    Returns ``(ok, report)``; ``report`` is a human-readable summary.
    """
    with open(path) as fh:
        base = json.load(fh)

    problems: List[str] = []
    checked = 0
    for name, entry in sorted(base.get("programs", {}).items()):
        for key, brec in sorted(entry.get("strategies", {}).items()):
            rec = data.get((name, key))
            if rec is None:
                problems.append(f"{name}/{key}: measurement missing from run")
                continue
            checked += 1
            if rec.edges != brec["edges"]:
                problems.append(
                    f"{name}/{key}: edges {rec.edges} != baseline {brec['edges']}"
                )
            if round(rec.deref_average, 6) != brec["deref_average"]:
                problems.append(
                    f"{name}/{key}: deref_average {rec.deref_average:.6f} "
                    f"!= baseline {brec['deref_average']:.6f}"
                )
            for field, bval in sorted(brec["stats"].items()):
                if field in _UNGATED_STATS:
                    continue
                got = rec.stats.get(field, 0)
                if got != bval:
                    problems.append(
                        f"{name}/{key}: stats.{field} {got} != baseline {bval}"
                    )

    base_time = base.get("totals", {}).get("min_solve_seconds_sum")
    run_time = sum(
        data[k].solve_seconds
        for k in data
        if k[0] in base.get("programs", {})
        and k[1] in base["programs"][k[0]].get("strategies", {})
    )
    lines = [
        f"baseline check vs {path}: {checked} measurements compared, "
        f"{len(problems)} mismatches"
    ]
    if base_time is not None:
        delta = 100.0 * (run_time - base_time) / base_time if base_time else 0.0
        lines.append(
            f"timing (informational): min-solve sum {run_time:.3f}s "
            f"vs baseline {base_time:.3f}s ({delta:+.1f}%)"
        )
    run_by_backend: Dict[str, float] = {}
    for rec in data.values():
        for be, t in (rec.solve_seconds_by_backend
                      or {rec.backend: rec.solve_seconds}).items():
            run_by_backend[be] = run_by_backend.get(be, 0.0) + t
    if len(run_by_backend) > 1:
        base_by_backend = base.get("totals", {}).get(
            "min_solve_seconds_sum_by_backend", {}
        )
        for be, t in sorted(run_by_backend.items()):
            bt = base_by_backend.get(be)
            vs = f" vs baseline {bt:.3f}s" if bt is not None else ""
            lines.append(
                f"timing (informational): backend {be}: {t:.3f}s{vs}"
            )
    lines.extend(problems)
    return (not problems, "\n".join(lines))


# ---------------------------------------------------------------------------
def run_all(
    out: Optional[TextIO] = None,
    repeats: int = 3,
    jobs: Optional[int] = None,
    programs: Optional[Sequence[BenchmarkProgram]] = None,
    figures: Iterable[str] = ("3", "4", "5", "6"),
    backends: Optional[Sequence[str]] = None,
) -> ResultMap:
    """Regenerate the requested exhibits and print them.

    One shared collection pass feeds every figure; ``jobs`` defaults to
    the machine's CPU count.  Returns the collected data so callers
    (e.g. the baseline writer) can reuse it.
    """
    figures = [str(f) for f in figures]
    if out is None:
        out = sys.stdout
    if jobs is None:
        jobs = _default_jobs()
    data = collect_results(repeats=repeats, jobs=jobs, programs=programs,
                           figures=figures, backends=backends)
    blocks: List[str] = []
    if "3" in figures:
        blocks.append(format_figure3(figure3(data)))
    if "4" in figures:
        blocks.append(format_figure4(figure4(data)))
    if "5" in figures:
        blocks.append(
            format_ratios(figure5(repeats, data),
                          "Figure 5: analysis-time ratios", "seconds")
        )
    if "6" in figures:
        blocks.append(
            format_ratios(figure6(data), "Figure 6: points-to edge ratios",
                          "edges")
        )
    print("\n\n".join(blocks), file=out)
    return data
