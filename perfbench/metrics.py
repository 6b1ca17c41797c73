"""The benchmark's metrics: names, units, bounds and what each layer moves.

``END_TO_END`` and ``PER_LAYER`` are the source of ``BENCHMARK.json``'s
two metric lists (``python3 -m perfbench.metrics`` prints them in that
form).  ``PER_LAYER`` additionally records, for each per-layer metric,
which end-to-end metric it should move and on which workload (``moves``;
empty for counts and validity checks that should move nothing).
"""

from __future__ import annotations

import json
from typing import Dict, List

from perfbench.common import STRATEGIES

WORKLOADS = {
    "cli-suite": "each of the 20 suite programs in a fresh `python -m repro "
                 "--compare` process: start-up, import, parse and cold "
                 "strategy memos dominate",
    "project-warm": "3 generated 4-TU projects (~4.5k IR statements), in "
                    "seeded order, linked and solved four ways in one warm "
                    "process: rule setup, drain and link dominate",
    "serve-mix": "20 user flows over the suite, in seeded order, against "
                 "`repro serve --store`: sessions, demand queries, deltas "
                 "and the result store; no process start",
}

#: name → (unit, better, bound).  ``failed_share`` is not listed: it is 0
#: at a correct commit, and it travels as ``failed``/``attempted``.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_s": ("s", "lower", 0.25),
    "latency_tail_s": ("s", "lower", 0.25),
    "throughput_ops_s": ("op/s", "higher", 0.25),
    "stmts_per_s": ("stmt/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_CLI, _PROJ, _SERVE = "cli-suite", "project-warm", "serve-mix"


def _layer(unit, better, moves=()):
    return {"unit": unit, "better": better, "moves": list(moves)}


def _per_layer() -> Dict[str, dict]:
    m: Dict[str, dict] = {}
    m["proc.start_import_s"] = _layer(
        "s", "lower", [("latency_p50_s", _CLI)])
    m["frontend.preprocess_s"] = _layer(
        "s", "lower", [("latency_p50_s", _CLI)])
    m["frontend.parse_s"] = _layer(
        "s", "lower", [("latency_p50_s", _CLI), ("throughput_ops_s", _CLI),
                       ("latency_p50_s", _SERVE)])
    m["frontend.normalize_s"] = _layer(
        "s", "lower", [("latency_p50_s", _CLI), ("throughput_ops_s", _CLI),
                       ("latency_p50_s", _SERVE)])
    m["frontend.lines_per_s"] = _layer(
        "line/s", "higher", [("throughput_ops_s", _CLI)])
    m["frontend.stmts_out"] = _layer("count", "lower")
    m["link.link_s"] = _layer("s", "lower", [("latency_p50_s", _PROJ)])
    m["link.tus"] = _layer("count", "lower")
    m["link.externs_resolved"] = _layer("count", "lower")
    for name in ("setup_s", "drain_s"):
        moves = ([("latency_p50_s", _CLI), ("stmts_per_s", _PROJ)]
                 if name == "setup_s" else
                 [("stmts_per_s", _PROJ), ("latency_p50_s", _CLI)])
        m[f"engine.{name}"] = _layer("s", "lower", moves)
        for key in STRATEGIES:
            m[f"engine.{name}.{key}"] = _layer("s", "lower", moves)
    for name in ("facts", "rule_firings", "lookup_calls", "resolve_calls",
                 "sccs_collapsed", "props_saved"):
        m[f"engine.{name}"] = _layer("count", "lower")
    m["strategy.memo_hit_ratio"] = _layer(
        "ratio", "higher", [("latency_p50_s", _CLI)])
    m["session.solve_s"] = _layer("s", "lower", [("latency_p50_s", _SERVE)])
    m["session.cache_hit_ratio"] = _layer(
        "ratio", "higher", [("latency_p50_s", _SERVE)])
    m["session.add_statements_s"] = _layer(
        "s", "lower", [("latency_tail_s", _SERVE)])
    m["demand.solve_s"] = _layer(
        "s", "lower", [("latency_p50_s", _SERVE)])
    m["demand.widened_share"] = _layer(
        "ratio", "lower", [("latency_p50_s", _SERVE)])
    m["demand.installed_share"] = _layer(
        "ratio", "lower", [("latency_p50_s", _SERVE)])
    m["store.load_s"] = _layer("s", "lower", [("latency_p50_s", _SERVE)])
    m["store.put_s"] = _layer("s", "lower", [("latency_p50_s", _SERVE)])
    m["store.hit_ratio"] = _layer("ratio", "higher",
                                  [("latency_p50_s", _SERVE)])
    for key in STRATEGIES:
        m[f"store.hit_ratio.{key}"] = _layer(
            "ratio", "higher", [("latency_p50_s", _SERVE)])
    m["store.corrupt_warnings"] = _layer("count", "lower")
    m["clients.query_s"] = _layer(
        "s", "lower", [("latency_p50_s", _SERVE), ("latency_p50_s", _PROJ)])
    for route in ("create", "query", "statements", "delete"):
        m[f"service.handle_s.{route}"] = _layer(
            "s", "lower", [("latency_tail_s", _SERVE)])
    m["service.wire_s"] = _layer("s", "lower", [("latency_p50_s", _SERVE)])
    m["service.internal_errors"] = _layer(
        "count", "lower", [("failed_share", _SERVE)])
    m["pool.evictions"] = _layer(
        "count", "lower", [("failed_share", _SERVE)])
    m["loadgen.late_p99_s"] = _layer("s", "lower")
    m["trace.overhead_share"] = _layer("ratio", "lower")
    m["trace.unattributed_s"] = _layer("s", "lower")
    for phase in ("cold", "warm"):
        for key in STRATEGIES:
            m[f"fig5.{key}.{phase}"] = _layer("ratio", "lower")
            m[f"fig5.{key}.{phase}.iqr"] = _layer("ratio", "lower")
    return m


PER_LAYER = _per_layer()


def benchmark_lists() -> Dict[str, List[dict]]:
    """The ``end_to_end`` / ``per_layer`` lists of ``BENCHMARK.json``."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": d["unit"], "better": d["better"]}
            for n, d in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_lists(), indent=2))
