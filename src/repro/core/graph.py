"""The constraint graph: every persistent structure the fixpoint drains over.

The paper's inference rules (Figure 2) are evaluated semi-naively: rule
instantiations are installed *once* as persistent structures, and facts
then flow along them until the least fixpoint is reached.  This module is
the store for those structures — the "graph" the solver operates on:

- the **fact base** (:class:`~repro.core.facts.FactBase`): interned refs,
  bitset points-to sets, and the union-find plane used by online cycle
  collapsing (paper §3's ``pointsTo`` relation);
- **copy edges** ``x̂ → d̂`` (the explicit pair lists returned by
  ``resolve`` for the portable strategies — rules 3/4/5 — plus
  parameter/return copies and library summaries);
- **windows** (the byte-range copies of the "Offsets" ``resolve``,
  §4.2.2), held in a per-object interval index;
- **subscriptions** (the ``pointsTo(p̂, …)`` premises of rules 2/4/5:
  callbacks run once per distinct pointee);
- the probe memo for lazy cycle detection.

Edges and windows are deduplicated on insertion, so installing the same
``resolve`` result twice is a no-op.

The graph is deliberately *passive*: it stores, de-duplicates, and
answers structural queries (including the cycle-collapse merge), but it
never calls a strategy, bumps a Figure-3 counter, or talks to a tracer —
that is :class:`~repro.core.engine.Engine`'s job.  The narrow interface
is what lets :class:`repro.session.AnalysisSession` keep a solved graph
alive and seed only new deltas into it on incremental re-solves.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..ir.objects import AbstractObject
from ..ir.refs import Ref
from .facts import FactBase

__all__ = ["ConstraintGraph", "_WindowIndex"]

# A subscription entry: (seen, callback, descriptor).  ``seen`` holds
# the *interned IDs* of the pointee refs already delivered (one ID per
# logical ref, so the dedup is exact); the drains check it inline — one
# set probe instead of a closure call per (subscription, pointee) pair,
# most of which are dedup hits.  ``descriptor`` is either None (the
# callback is an opaque closure — summaries, indirect calls, traced
# rules) or a small tuple naming a Figure-2 rule case with its fixed
# operands (see :mod:`repro.core.rules`), which lets the specialized
# drains (:mod:`repro.core.codegen`, the numpy backend's fused rounds)
# dispatch the rule inline instead of through the closure.
_Subscription = Tuple[Set[int], Callable[[Ref], None], Optional[tuple]]


class _WindowIndex:
    """Interval index over one object's windows: sorted by ``lo`` + bisect.

    ``matches(off)`` finds every window ``[lo, hi)`` containing ``off``
    without scanning the whole list: windows are kept sorted by ``lo``,
    a bisect bounds the candidates to those with ``lo <= off``, and a
    prefix-maximum over ``hi`` lets the right-to-left scan stop as soon
    as no remaining candidate can still cover ``off``.  Inserts are
    O(n) (rare — once per installed window); queries are O(log n + k).
    """

    __slots__ = ("los", "his", "dsts", "pmax")

    def __init__(self) -> None:
        self.los: List[int] = []
        self.his: List[int] = []
        self.dsts: List[Tuple[AbstractObject, int]] = []
        #: pmax[j] = max(his[0..j]) — the early-out bound for matches().
        self.pmax: List[int] = []

    def insert(self, lo: int, size: int, dst_obj: AbstractObject, dst_base: int) -> None:
        hi = lo + size
        i = bisect_right(self.los, lo)
        self.los.insert(i, lo)
        self.his.insert(i, hi)
        self.dsts.insert(i, (dst_obj, dst_base))
        pmax = self.pmax
        run = pmax[i - 1] if i else 0
        if hi > run:
            run = hi
        pmax.insert(i, run)
        # The shift left ``pmax[j]`` (j > i) holding the old prefix max of
        # ``his[0..j-1]``; the insert only raises it where the new window's
        # ``hi`` exceeds it, and ``pmax`` is non-decreasing — so stop at
        # the first entry already >= ``hi``.
        for j in range(i + 1, len(pmax)):
            if pmax[j] >= hi:
                break
            pmax[j] = hi

    def matches(self, off: int) -> List[Tuple[int, AbstractObject, int]]:
        """All ``(lo, dst_obj, dst_base)`` whose window contains ``off``."""
        out: List[Tuple[int, AbstractObject, int]] = []
        los, his, dsts, pmax = self.los, self.his, self.dsts, self.pmax
        j = bisect_right(los, off) - 1
        while j >= 0 and pmax[j] > off:
            if his[j] > off:
                d = dsts[j]
                out.append((los[j], d[0], d[1]))
            j -= 1
        return out


class ConstraintGraph:
    """The constraint store: facts, copy edges, windows, subscriptions.

    Attributes are exposed directly (not behind accessors): the drain
    loops in :mod:`repro.core.worklist` bind them to locals once per
    drain, which is the whole point of the ID-indexed representation.
    """

    __slots__ = (
        "facts",
        "copy_adj",
        "edge_set",
        "windows",
        "window_set",
        "subs",
        "lcd_done",
        "compacted_len",
        "__weakref__",
    )

    def __init__(self, facts: Optional[FactBase] = None) -> None:
        #: The points-to fact base (interning, bitsets, union-find).
        self.facts = facts if facts is not None else FactBase()
        #: Copy edges: representative ID -> destination IDs (originals;
        #: mapped through union-find at propagation time).
        self.copy_adj: Dict[int, List[int]] = {}
        #: Edge dedup on the *original* (src, dst) ID pair — packed as
        #: ``(sid << 21) | did`` (IDs are dense interning indices; the
        #: tuple form covers the >2M-ref tail) — so the Figure 3
        #: ``copy_edges`` counter is identical with and without
        #: collapsing.  A set of small-int keys: membership is one O(1)
        #: hash probe, where the former per-source bitsets paid an
        #: O(max-ID) ``1 << did`` allocation plus a full-bitset copy on
        #: every insert.
        self.edge_set: Set[Union[int, Tuple[int, int]]] = set()
        #: Windows indexed by source object (interval index per object).
        self.windows: Dict[AbstractObject, _WindowIndex] = {}
        self.window_set: Set[Tuple[AbstractObject, int, int, AbstractObject, int]] = set()
        #: Subscriptions ``(seen, callback)``, keyed by class
        #: representative (merged on collapse).
        self.subs: Dict[int, List[_Subscription]] = {}
        #: Lazy cycle detection: (src_rep, dst_rep) pairs already probed.
        self.lcd_done: Set[Tuple[int, int]] = set()
        #: Representative -> length of its ``copy_adj`` list right after
        #: the last compaction in :meth:`merge_classes`.
        self.compacted_len: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Copy edges.
    # ------------------------------------------------------------------
    def add_edge_ids(self, sid: int, did: int) -> bool:
        """Register the copy edge ``sid -> did``; False if already present.

        Dedup is on the original ID pair (pre-union-find), keeping the
        edge count independent of collapse order.
        """
        key = (sid << 21) | did if did < 2097152 else (sid, did)
        edge_set = self.edge_set
        if key in edge_set:
            return False
        edge_set.add(key)
        return True

    def attach_edge(self, rep: int, did: int) -> None:
        """Hang destination ``did`` off class representative ``rep``."""
        self.copy_adj.setdefault(rep, []).append(did)

    # ------------------------------------------------------------------
    # Windows.
    # ------------------------------------------------------------------
    def add_window(
        self, src_obj: AbstractObject, lo: int, size: int,
        dst_obj: AbstractObject, dst_base: int,
    ) -> bool:
        """Register a byte-window copy; False if an identical one exists."""
        key = (src_obj, lo, size, dst_obj, dst_base)
        if key in self.window_set:
            return False
        self.window_set.add(key)
        index = self.windows.get(src_obj)
        if index is None:
            index = self.windows[src_obj] = _WindowIndex()
        index.insert(lo, size, dst_obj, dst_base)
        return True

    # ------------------------------------------------------------------
    # Subscriptions.
    # ------------------------------------------------------------------
    def add_subscriber(self, rep: int, entry: _Subscription) -> None:
        self.subs.setdefault(rep, []).append(entry)

    # ------------------------------------------------------------------
    # Online cycle collapsing (lazy cycle detection + union-find).
    # ------------------------------------------------------------------
    def lcd_mark(self, src_rep: int, dst_rep: int) -> bool:
        """Record a lazy-cycle-detection probe; False if already probed."""
        key = (src_rep, dst_rep)
        done = self.lcd_done
        if key in done:
            return False
        done.add(key)
        return True

    def cycle_path(self, start: int, goal: int) -> Optional[List[int]]:
        """DFS over class-level copy edges for a path ``start ->* goal``.

        Returns the classes on the path (including ``start`` and
        ``goal``), or None when ``goal`` is unreachable.  The search only
        expands classes whose points-to set equals the cycle candidates'
        (the probe fires when ``start``'s and ``goal``'s sets have
        converged, and every member of a copy cycle converges to that
        same set) — pruning the DFS to the candidate SCC region instead
        of the whole copy graph.  A path missed because an intermediate
        set has not converged yet is only a deferred opportunity: a later
        no-op propagation re-probes.
        """
        facts = self.facts
        find = facts.find
        parent = facts._parent
        pts = facts._pts
        adj = self.copy_adj
        start = find(start)
        goal = find(goal)
        if start == goal:
            return None
        want = pts[start]
        empty: Tuple[int, ...] = ()
        stack: List[Iterable[int]] = [iter(adj.get(start, empty))]
        on_path = [start]
        visited = {start}
        while stack:
            edge_iter = stack[-1]
            advanced = False
            for tid in edge_iter:
                # find()'s fast path, inlined: almost every ID is root.
                t = parent[tid]
                if parent[t] != t:
                    t = find(t)
                if t == goal:
                    on_path.append(goal)
                    return on_path
                if t not in visited:
                    visited.add(t)
                    if pts[t] != want:
                        continue
                    stack.append(iter(adj.get(t, empty)))
                    on_path.append(t)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.pop()
        return None

    def merge_classes(
        self,
        nodes: List[int],
        worklist,
        account: Callable[[int], None],
    ) -> bool:
        """Merge the classes in ``nodes`` into one (they form a copy-edge
        cycle and share one fixpoint set).

        Moves the absorbed classes' adjacency, subscribers, and pending
        worklist deltas onto the surviving representative and schedules
        the set difference for re-delivery.  ``account`` is called with
        each union's logical-fact gain (the engine's budget chokepoint);
        ``worklist`` must provide ``steal``/``enqueue`` (see
        :mod:`repro.core.worklist`).  Returns whether any union happened.
        """
        facts = self.facts
        adj = self.copy_adj
        compacted = self.compacted_len
        subs = self.subs
        root = nodes[0]
        merged_any = False
        for node in nodes[1:]:
            rep, dead, gain, fresh = facts.union(root, node)
            if rep == dead:  # already one class
                root = rep
                continue
            merged_any = True
            root = rep
            if gain:
                account(gain)
            dead_adj = adj.pop(dead, None)
            dead_len = compacted.pop(dead, None)
            if dead_adj:
                live = adj.get(rep)
                if live is None:
                    adj[rep] = dead_adj
                    if dead_len is not None:
                        compacted[rep] = dead_len
                else:
                    live.extend(dead_adj)
                    if len(live) >= max(16, 2 * compacted.get(rep, 0)):
                        # Compact: a merge turns edges into the absorbed
                        # class into self-edges, and distinct targets may
                        # now share a representative.  Keep one raw ID per
                        # live target class so the drains and the LCD DFS
                        # stop rescanning dead entries.  (Dropping an ID
                        # only forgets its difference-propagation frontier
                        # — a resend is a points-to no-op.)  Only a list
                        # that has doubled since its last compaction is
                        # re-filtered, so the work stays linear in the
                        # entries appended; the drains skip the dead
                        # entries in between (``props_saved``).
                        find = facts.find
                        kept_reps = set()
                        compact = []
                        for tid in live:
                            rt = find(tid)
                            if rt == rep or rt in kept_reps:
                                continue
                            kept_reps.add(rt)
                            compact.append(tid)
                        adj[rep] = compact
                        compacted[rep] = len(compact)
            dead_subs = subs.pop(dead, None)
            if dead_subs:
                live_subs = subs.get(rep)
                # A fresh list: an in-flight drain iteration keeps the old.
                subs[rep] = dead_subs if live_subs is None else live_subs + dead_subs
            bits = worklist.steal(dead) | fresh
            if bits:
                worklist.enqueue(rep, bits)
        return merged_any

    # ------------------------------------------------------------------
    def num_refs(self) -> int:
        """Distinct interned refs — the graph's node count."""
        return self.facts.num_refs()

    def __repr__(self) -> str:
        return (
            f"<ConstraintGraph: {self.facts.num_refs()} refs, "
            f"{sum(len(v) for v in self.copy_adj.values())} edges, "
            f"{len(self.window_set)} windows>"
        )
