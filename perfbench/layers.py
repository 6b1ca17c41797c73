"""Turn recorded spans into the per-layer metrics of ``metrics.PER_LAYER``."""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.common import STRATEGIES, quartiles
from perfbench.metrics import PER_LAYER
from perfbench.spans import ENGINE_COUNTS, Span, covered, self_times


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: Iterable[Sequence[Span]], ops: int,
                  fig5_phase: str = "") -> Dict[str, float]:
    """Per-layer metrics over the spans of one traced segment.

    ``dumps`` holds one span list per traced process (span ids are
    unique within a process only); ``ops`` is the number of operations
    the segment ran, the divisor of every per-operation time.
    ``fig5_phase`` ("cold"/"warm") names the Figure 5 rows this
    workload provides.  Metrics that need more than spans are left at 0
    for the workload to fill in.
    """
    out = {name: 0.0 for name in PER_LAYER}
    self_sum: Dict[str, float] = defaultdict(float)
    incl: Dict[str, List[float]] = defaultdict(list)
    by_strategy: Dict[Tuple[str, str], float] = defaultdict(float)
    route_self: Dict[str, List[float]] = defaultdict(list)
    solve_by_op: Dict[Tuple[int, int], Dict[str, float]] = defaultdict(dict)
    distinct_engine: Dict[Tuple[str, str], dict] = {}
    distinct_stmts: Dict[str, int] = {}
    distinct_link: Dict[str, dict] = {}
    lines = memo_hits = memo_attempts = 0
    demand = [0, 0, 0]                        # widened, installed, stmts
    for proc, spans in enumerate(dumps):
        selfs = self_times(spans)
        for sid, _parent, op, name, start, end, attrs in spans:
            self_sum[name] += selfs[sid]
            incl[name].append(end - start)
            attrs = attrs or {}
            if name == "engine.solve":
                key = attrs["strategy"]
                by_strategy["setup_s", key] += selfs[sid]
                solve_by_op[proc, op][key] = (
                    solve_by_op[proc, op].get(key, 0.0) + end - start)
                memo_hits += attrs["memo_hits"]
                memo_attempts += attrs["memo_attempts"]
                if "facts" in attrs:
                    distinct_engine.setdefault((attrs["program"], key), attrs)
            elif name == "engine.drain":
                by_strategy["drain_s", attrs["strategy"]] += selfs[sid]
            elif name == "frontend.parse":
                lines += attrs.get("lines", 0)
            elif name == "frontend.normalize" and attrs:
                distinct_stmts.setdefault(attrs["program"], attrs["stmts"])
            elif name == "link.link" and attrs:
                distinct_link.setdefault(attrs["program"], attrs)
            elif name == "demand.solve" and attrs:
                demand[0] += attrs["widened"]
                demand[1] += attrs["installed"]
                demand[2] += attrs["stmts"]
            elif name == "service.handle":
                route_self[attrs.get("route", "other")].append(selfs[sid])

    def per_op(name: str) -> float:
        return _ratio(self_sum[name], ops)

    def per_call(name: str) -> float:
        return statistics.fmean(incl[name]) if incl[name] else 0.0

    out["proc.start_import_s"] = per_call("proc.start_import")
    out["frontend.preprocess_s"] = per_op("frontend.preprocess")
    out["frontend.parse_s"] = per_op("frontend.parse")
    out["frontend.normalize_s"] = per_op("frontend.normalize")
    out["frontend.lines_per_s"] = _ratio(lines, sum(incl["frontend.parse"]))
    out["frontend.stmts_out"] = sum(distinct_stmts.values())
    out["link.link_s"] = per_op("link.link")
    out["link.tus"] = sum(a["tus"] for a in distinct_link.values())
    out["link.externs_resolved"] = sum(
        a["externs"] for a in distinct_link.values())
    out["engine.setup_s"] = per_op("engine.solve")
    out["engine.drain_s"] = per_op("engine.drain")
    for (metric, key), total in by_strategy.items():
        out[f"engine.{metric}.{key}"] = _ratio(total, ops)
    for name in ENGINE_COUNTS:
        out[f"engine.{name}"] = sum(a[name] for a in distinct_engine.values())
    out["strategy.memo_hit_ratio"] = _ratio(memo_hits, memo_attempts)
    out["session.solve_s"] = per_op("session.solve")
    out["session.add_statements_s"] = per_call("session.add_statements")
    out["demand.solve_s"] = per_call("demand.solve")
    out["demand.widened_share"] = _ratio(demand[0], len(incl["demand.solve"]))
    out["demand.installed_share"] = _ratio(demand[1], demand[2])
    out["store.load_s"] = per_call("store.load")
    out["store.put_s"] = per_call("store.put")
    out["clients.query_s"] = per_op("clients.query")
    for route in ("create", "query", "statements", "delete"):
        values = route_self.get(route)
        out[f"service.handle_s.{route}"] = (
            statistics.fmean(values) if values else 0.0)
    if fig5_phase:
        out.update(fig5_rows(solve_by_op.values(), fig5_phase))
    return out


def fig5_rows(per_op: Iterable[Dict[str, float]], phase: str) -> Dict[str, float]:
    """Figure 5: each strategy's setup + drain time ÷ Offsets', per
    operation, as median and inter-quartile range over operations."""
    ratios: Dict[str, List[float]] = defaultdict(list)
    for times in per_op:
        base = times.get("offsets")
        if not base or len(times) != len(STRATEGIES):
            continue
        for key in STRATEGIES:
            ratios[key].append(times[key] / base)
    out = {}
    for key in STRATEGIES:
        values = ratios.get(key)
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        out[f"fig5.{key}.{phase}"] = q2
        out[f"fig5.{key}.{phase}.iqr"] = q3 - q1
    return out


def unattributed(op_spans: Iterable[Tuple[float, Sequence[Span]]]) -> float:
    """Mean operation time covered by no span: ``(wall, spans)`` per op."""
    gaps = [max(0.0, wall - covered(spans)) for wall, spans in op_spans]
    return statistics.fmean(gaps) if gaps else 0.0
