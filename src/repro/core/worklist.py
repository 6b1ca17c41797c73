"""Worklist policies and the two drain loops of the semi-naive fixpoint.

The paper's rules (Figure 2) are monotone, so *any* fair processing
order reaches the same least fixpoint — the worklist is pure policy.
This module separates that policy from the engine:

- :class:`Worklist` — the protocol the engine and
  :meth:`~repro.core.graph.ConstraintGraph.merge_classes` program
  against: ``enqueue`` accumulates a delta bitset per equivalence class,
  ``pop`` yields the next (representative, delta) batch, and ``steal``
  lets a collapse move a dead class's pending delta to its survivor.
- :class:`PriorityWorklist` — the default: a heap of ref IDs.  The ID
  *is* the discovery index, so pops roughly follow topological order of
  the constraint graph (fewer re-propagations).
- :class:`FifoWorklist` — plain FIFO; exists to *demonstrate* order
  independence (the differential tests solve with both and require
  identical fixpoints and order-independent counters).
- :func:`drain` / :func:`drain_traced` — the propagation loops.  Both
  flush one class's accumulated delta as a batch: copy edges get one
  big-int union each, windows are matched per member offset, and
  subscribers receive the decoded refs (re-entering the rule closures in
  :mod:`repro.core.rules`).  The untraced loop additionally runs online
  cycle collapsing (Lazy Cycle Detection); the traced loop keeps
  collapsing off — the union-find stays the identity so one (source ID,
  target ID) pair names one logical fact — and records a provenance
  flow for every propagation that added facts.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Protocol, Tuple

from ..ir.refs import OffsetRef

__all__ = [
    "Worklist",
    "PriorityWorklist",
    "FifoWorklist",
    "WORKLISTS",
    "drain",
    "drain_traced",
]


class Worklist(Protocol):
    """What a drain policy must provide.

    A worklist holds, per equivalence-class representative, the delta
    bitset of pointee IDs not yet propagated.  ``pop`` is handed the
    union-find ``find`` so it can skip entries made stale by a collapse
    (their pending delta has been stolen onto the surviving class).
    """

    def enqueue(self, rep: int, bits: int) -> None:
        """Accumulate ``bits`` into ``rep``'s pending delta."""
        ...

    def pop(self, find) -> Optional[Tuple[int, int]]:
        """Next ``(representative, delta)`` batch, or None when empty."""
        ...

    def steal(self, dead: int) -> int:
        """Remove and return the pending delta of a merged-away class."""
        ...


class PriorityWorklist:
    """Heap of ref IDs ordered by discovery index (default policy).

    Because the fact base interns refs in first-seen order, the ID
    doubles as a discovery index and pops roughly follow topological
    order of the constraint graph.  A rep is pushed when its pending
    entry is created; stale heap entries (drained or merged reps) are
    skipped on pop.
    """

    __slots__ = ("_heap", "_pending")

    def __init__(self) -> None:
        self._heap: List[int] = []
        self._pending: Dict[int, int] = {}

    def enqueue(self, rep: int, bits: int) -> None:
        pending = self._pending
        cur = pending.get(rep)
        if cur is None:
            pending[rep] = bits
            heappush(self._heap, rep)
        else:
            pending[rep] = cur | bits

    def pop(self, find) -> Optional[Tuple[int, int]]:
        heap = self._heap
        pending = self._pending
        while heap:
            raw = heappop(heap)
            delta = pending.pop(raw, 0)
            rep = find(raw)
            if rep != raw:
                # The heap entry's class was merged since the push: its
                # own pending delta (if any — an enqueue keyed by a
                # non-representative must never be stranded) joins the
                # survivor's.  See ``test_worklist_merge.py``.
                delta |= pending.pop(rep, 0)
            if delta:
                return rep, delta
        return None

    def steal(self, dead: int) -> int:
        return self._pending.pop(dead, 0)


class FifoWorklist:
    """First-in first-out policy (a deque instead of a heap).

    Functionally interchangeable with :class:`PriorityWorklist` — same
    least fixpoint, same order-independent counters — just usually more
    re-propagation.  Kept as the living proof of order independence.
    """

    __slots__ = ("_queue", "_pending")

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._pending: Dict[int, int] = {}

    def enqueue(self, rep: int, bits: int) -> None:
        pending = self._pending
        cur = pending.get(rep)
        if cur is None:
            pending[rep] = bits
            self._queue.append(rep)
        else:
            pending[rep] = cur | bits

    def pop(self, find) -> Optional[Tuple[int, int]]:
        queue = self._queue
        pending = self._pending
        while queue:
            raw = queue.popleft()
            delta = pending.pop(raw, 0)
            rep = find(raw)
            if rep != raw:
                # Same stranding guard as PriorityWorklist.pop.
                delta |= pending.pop(rep, 0)
            if delta:
                return rep, delta
        return None

    def steal(self, dead: int) -> int:
        return self._pending.pop(dead, 0)


#: Policy registry for ``Engine(..., worklist=...)`` / the session facade.
WORKLISTS = {
    "priority": PriorityWorklist,
    "fifo": FifoWorklist,
}


def drain(eng) -> None:
    """Untraced propagation loop: drain ``eng``'s worklist to fixpoint.

    Each popped batch names a class whose accumulated delta bitset is
    flushed: copy edges receive the delta as a single big-int union
    each, windows are matched once per member offset, and subscribers
    get the decoded refs.  A propagation that adds nothing triggers the
    lazy cycle probe (``eng._maybe_collapse``); a collapse may merge the
    class being drained mid-batch, in which case the remaining work
    re-resolves representatives on the fly and over-deliveries are
    absorbed by bit- and seen-set dedup.
    """
    graph = eng.graph
    wl = eng.worklist
    facts = graph.facts
    find = facts.find
    adj = graph.copy_adj
    windows = graph.windows
    subs = graph.subs
    add_bits = eng._add_bits
    fadd_bits = facts.add_bits
    account = eng._account
    enqueue = eng._enqueue
    stats = eng.stats
    pts = facts._pts
    while True:
        item = wl.pop(find)
        if item is None:
            return
        rep, delta = item
        edges = adj.get(rep)
        if edges:
            # ``rep`` can only change via a collapse, and collapses only
            # happen inside ``_maybe_collapse`` — so the representative
            # is re-resolved after a probe rather than per edge.  The
            # two-level parent probe is ``find``'s fast path inlined
            # (almost every ID is its own root).
            parent = facts._parent
            for tid in tuple(edges):
                rt = parent[tid]
                if parent[rt] != rt:
                    rt = find(rt)
                if rt == rep:
                    stats.props_saved += 1
                    continue
                new, gain, landed = fadd_bits(tid, delta)
                if new:
                    account(gain)
                    enqueue(landed, new)
                else:
                    # No-op propagation: probe for a cycle, but only
                    # once the two sets have converged — members of a
                    # copy cycle always equalize before their final
                    # no-op, and the equality test is a single big-int
                    # compare vs. a full DFS over the copy graph.
                    if pts[rep] == pts[rt]:
                        eng._maybe_collapse(rep, rt)
                        rep = find(rep)
        rep = find(rep)
        if windows:
            canon = eng.strategy.canon_offset_ref  # type: ignore[attr-defined]
            refs = facts._refs
            intern = facts.intern
            for m in tuple(facts._members[rep]):
                ref = refs[m]
                if type(ref) is OffsetRef:
                    index = windows.get(ref.obj)
                    if index is not None:
                        off = ref.offset
                        for lo, dobj, dbase in index.matches(off):
                            dref = canon(OffsetRef(dobj, dbase + (off - lo)))
                            if dref is not None:
                                add_bits(intern(dref), delta)
        cbs = subs.get(rep)
        if cbs:
            delta_items = facts.decode_items(delta)
            # List iteration tolerates appends; a subscriber added
            # mid-batch replays existing facts itself and the inline
            # seen-set dedup absorbs the overlap.
            for seen, cb, _desc in cbs:
                for did, dst in delta_items:
                    if did not in seen:
                        seen.add(did)
                        cb(eng, dst)


def drain_traced(eng) -> None:
    """The traced twin of :func:`drain`: identical propagation minus the
    lazy cycle probe (collapsing is a pure optimization and stays off
    under tracing so the union-find is the identity and each ``(source
    ID, target ID)`` pair names one logical fact), plus a
    :meth:`~repro.obs.provenance.Tracer.record_flow` call on every
    propagation that added facts.  ``eng._ctx`` is cleared before
    subscriber callbacks run: rule callbacks open their own contexts,
    and anything that does not (library-summary closures) records as
    context 0 ("unattributed").
    """
    tracer = eng.tracer
    graph = eng.graph
    wl = eng.worklist
    facts = graph.facts
    find = facts.find
    adj = graph.copy_adj
    windows = graph.windows
    subs = graph.subs
    add_bits = eng._add_bits
    edge_prov = eng._edge_prov
    win_prov = eng._win_prov
    while True:
        item = wl.pop(find)
        if item is None:
            return
        rep, delta = item
        edges = adj.get(rep)
        if edges:
            for tid in tuple(edges):
                new = add_bits(tid, delta)
                if new:
                    tracer.record_flow(
                        tid, new, edge_prov.get((rep, tid), 0), rep
                    )
        if windows:
            canon = eng.strategy.canon_offset_ref  # type: ignore[attr-defined]
            refs = facts._refs
            intern = facts.intern
            for m in tuple(facts._members[rep]):
                ref = refs[m]
                if type(ref) is OffsetRef:
                    index = windows.get(ref.obj)
                    if index is not None:
                        off = ref.offset
                        for lo, dobj, dbase in index.matches(off):
                            dref = canon(OffsetRef(dobj, dbase + (off - lo)))
                            if dref is not None:
                                did = intern(dref)
                                new = add_bits(did, delta)
                                if new:
                                    tracer.record_flow(
                                        did, new,
                                        win_prov.get((ref.obj, lo, dobj, dbase), 0),
                                        m,
                                    )
        cbs = subs.get(rep)
        if cbs:
            delta_items = facts.decode_items(delta)
            eng._ctx = 0
            for seen, cb, _desc in cbs:
                for did, dst in delta_items:
                    if did not in seen:
                        seen.add(did)
                        cb(eng, dst)
