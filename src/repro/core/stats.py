"""Analysis counters and the fact budget.

:class:`EngineStats` reproduces the paper's instrumentation (Figure 3 —
lookup/resolve call counts, structure involvement, type-mismatch rates)
plus engine-level measurements that back Figures 5 and 6 and the
observability layer (:mod:`repro.obs`).  It is deliberately a plain
dataclass of numbers: every field must be serializable (``as_dict``),
mergeable (``merge``), and comparable across runs — the bench harness
gates most of them byte-for-byte against ``BENCH_engine.json``.

Counter families, and whether the baseline precision gate may include
them:

- **Figure-3 instrumentation** (``lookup_*``/``resolve_*``) and
  **per-rule firings** (``rule1_firings`` … ``rule5_firings``) are
  determined by the least fixpoint — order-independent, gated.
- **Structure counts** (``facts``, ``copy_edges``, ``windows``,
  ``calls_bound``) are deduplicated sets at fixpoint — gated.
- **How-counters** (``sccs_collapsed``, ``props_saved``,
  ``dense_rounds``, ``frontier_bits_suppressed``) depend on propagation
  order and the selected backend — reported, never gated.
- **Backend identity** (``backend``) names the propagation backend that
  produced the result (:mod:`repro.core.backend`) — reported, never
  gated, because every backend reaches the identical fixpoint.
- **Session counters** (``incremental_solves``, ``delta_stmts``,
  ``reused_graph_refs``) describe *how the solve was reached* (from
  scratch vs. incrementally via
  :meth:`repro.session.AnalysisSession.add_statements`) — reported,
  never gated, because an incremental re-solve provably computes the
  same fixpoint as a from-scratch one.
- **Link/modular counters** (``tus_linked``, ``externs_resolved``,
  ``summaries_computed``) describe program provenance
  (:mod:`repro.link`) and the modular solve schedule
  (:mod:`repro.core.modular`) — reported, never gated: linked and
  modular solves reach the identical fixpoint, these counters only
  record how the program was assembled and scheduled.
- **Demand/store counters** (``demanded_facts``, ``demand_widenings``,
  ``store_hits``, ``store_misses``) describe how an answer was reached —
  a demand-restricted fixpoint of the library solver
  (:func:`repro.core.demand.solve_demand`; sessions answer demand
  queries from the exhaustive fixpoint, so these stay 0 there) or a
  content-addressed store lookup (:mod:`repro.store`) — reported, never
  gated: demanded answers are differentially tested equal to the
  exhaustive fixpoint, and a store hit replays a previously solved one.

:class:`AnalysisBudgetExceeded` is raised by every drain variant — the
layered untraced drain, the traced drain, and incremental re-solves —
through the same accounting chokepoint (``Engine._account``), so
``max_facts`` bounds all of them identically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable

__all__ = ["AnalysisBudgetExceeded", "EngineStats"]


class AnalysisBudgetExceeded(Exception):
    """Raised when the fact count exceeds the configured budget."""


@dataclass
class EngineStats:
    """Counters reproducing the paper's instrumentation (Figure 3) plus
    engine-level measurements (Figures 5 and 6)."""

    lookup_calls: int = 0
    lookup_struct_calls: int = 0
    lookup_mismatch_calls: int = 0
    resolve_calls: int = 0
    resolve_struct_calls: int = 0
    resolve_mismatch_calls: int = 0
    #: Figure-2 rule firings.  Rule 1 fires once per AddrOf statement;
    #: rules 2, 4 and 5 fire once per (statement, distinct pointee) —
    #: the granularity of the paper's inference rules — and rule 3 once
    #: per Copy statement.  All five are order-independent (determined
    #: by the least fixpoint), so they are safe to gate in baselines.
    rule1_firings: int = 0
    rule2_firings: int = 0
    rule3_firings: int = 0
    rule4_firings: int = 0
    rule5_firings: int = 0
    facts: int = 0
    copy_edges: int = 0
    windows: int = 0
    calls_bound: int = 0
    #: Copy-edge cycle-collapse events (each merges >= 2 sources).
    sccs_collapsed: int = 0
    #: Edge propagations skipped because the edge is internal to a
    #: collapsed class, or fully suppressed by a difference-propagation
    #: frontier (the work the optimization eliminated).
    props_saved: int = 0
    #: Propagation backend that produced this result
    #: (:mod:`repro.core.backend` registry key; "" for the reference
    #: solver, which predates the backend layer).
    backend: str = ""
    #: Dense propagation rounds executed by the numpy backend (0 under
    #: other backends, and the observable signal that the numpy backend
    #: fell back to diffprop).
    dense_rounds: int = 0
    #: 1 when the ``accel`` backend found (and used) the optionally
    #: compiled drain module; 0 when it fell back to the generated
    #: Python drain, or under any other backend.  Reported, never gated.
    accel_active: int = 0
    #: Delta bits withheld by difference-propagation frontiers because
    #: the receiving edge/window/subscriber-list had already been sent
    #: them (duplicate work the bigint drain would re-dedup downstream).
    frontier_bits_suppressed: int = 0
    #: Incremental re-solves performed on this engine
    #: (:meth:`repro.core.engine.Engine.add_statements` calls).
    incremental_solves: int = 0
    #: Statements seeded by incremental re-solves (sum over all of them).
    delta_stmts: int = 0
    #: Interned refs already in the constraint graph when the most recent
    #: incremental re-solve started — the graph size that was *reused*
    #: rather than rebuilt.  0 for from-scratch solves.
    reused_graph_refs: int = 0
    #: Translation units merged by the linker to build the analyzed
    #: program (:mod:`repro.link`); 0 for single-TU programs.  Copied
    #: from ``program.link_info`` so every solve of a linked program
    #: reports its provenance.
    tus_linked: int = 0
    #: Cross-TU extern declarations / prototypes the linker bound to a
    #: definition in another TU; 0 for single-TU programs.
    externs_resolved: int = 0
    #: Per-function points-to summaries computed by the modular
    #: bottom-up solve mode (:mod:`repro.core.modular`); 0 for the
    #: whole-program fixpoint.
    summaries_computed: int = 0
    #: Facts computed by a demand-driven solve (:mod:`repro.core.demand`)
    #: — the size of the demanded fragment's fixpoint, to compare against
    #: the exhaustive ``facts``.  0 for exhaustive solves.
    demanded_facts: int = 0
    #: Times a demand-driven solve widened to the exhaustive engine
    #: because a query escaped the demanded fragment (function pointers,
    #: lenient-mode havoc objects).  Reported, never gated.
    demand_widenings: int = 0
    #: Results served from the content-addressed result store
    #: (:mod:`repro.store`) instead of a fresh fixpoint.  Reported,
    #: never gated: a hit replays a previously solved identical program.
    store_hits: int = 0
    #: Store lookups that missed (key absent, or a corrupted entry
    #: degraded to a miss with a WARNING diagnostic).
    store_misses: int = 0
    solve_seconds: float = 0.0

    @property
    def lookup_struct_pct(self) -> float:
        """Figure 3 column "calls to lookup ... involving structures" (%)."""
        return 100.0 * self.lookup_struct_calls / self.lookup_calls if self.lookup_calls else 0.0

    @property
    def resolve_struct_pct(self) -> float:
        return 100.0 * self.resolve_struct_calls / self.resolve_calls if self.resolve_calls else 0.0

    @property
    def lookup_mismatch_pct(self) -> float:
        """Figure 3 column "of those, types did not match" (%)."""
        return (
            100.0 * self.lookup_mismatch_calls / self.lookup_struct_calls
            if self.lookup_struct_calls
            else 0.0
        )

    @property
    def resolve_mismatch_pct(self) -> float:
        return (
            100.0 * self.resolve_mismatch_calls / self.resolve_struct_calls
            if self.resolve_struct_calls
            else 0.0
        )

    # ------------------------------------------------------------------
    # Serialization / aggregation (bench harness, JSON baselines).
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """All counters (plus the backend name) as a flat dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "EngineStats":
        """Rebuild stats from :meth:`as_dict` output (extra keys ignored,
        missing keys — e.g. a pre-collapse baseline — default to 0)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Field-wise sum of two stats records (counters and seconds).

        The one non-numeric field, ``backend``, merges by agreement:
        equal (or one-sided) values survive, disagreeing ones become
        ``"mixed"``.
        """
        vals: Dict[str, object] = {}
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "backend":
                vals[f.name] = a if a == b or not b else (b if not a else "mixed")
            else:
                vals[f.name] = a + b
        return EngineStats(**vals)

    @classmethod
    def merged(cls, stats: Iterable["EngineStats"]) -> "EngineStats":
        """Field-wise sum of any number of stats records."""
        total = cls()
        for s in stats:
            total = total.merge(s)
        return total
