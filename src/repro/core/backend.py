"""Pluggable propagation backends: how a drained delta reaches the graph.

The paper's fixpoint is a monotone closure over the Figure-2 rules, so
*what* must be propagated is fixed — facts flow along copy edges, byte
windows, and subscriptions until nothing is new — but *how* the deltas
are pushed is pure mechanism.  This module makes that mechanism a
replaceable layer behind the solver seams:

- :class:`PropagationBackend` — the protocol: one ``drain(engine)``
  call that processes pending worklist deltas to fixpoint, using only
  the engine's public services (``_add_bits``/``_account``/
  ``_maybe_collapse`` and the live :class:`~repro.core.graph.ConstraintGraph`
  structures).  Backends see only union-find class representatives, so
  online cycle collapsing composes with every implementation.
- :class:`BigintBackend` (``"bigint"``) — the incumbent per-pop drain,
  delegated verbatim to :func:`repro.core.worklist.drain`.
- :class:`DiffPropBackend` (``"diffprop"``) — true difference
  propagation: per-edge, per-window and per-subscriber-list *frontier*
  bitsets record what each structure has already been sent, so every
  delivery processes only ``delta & ~already_sent``.  Re-sent bits
  (which the bigint drain would re-union and re-dedup downstream) are
  suppressed at the source and counted in
  ``stats.frontier_bits_suppressed``.
- :class:`NumpyBackend` (``"numpy"``) — a round-based dense backend:
  each round gathers every pending delta, snapshots the collapsed copy
  graph into a condensed DAG (merging whole copy-edge SCCs eagerly via
  the same union-find the LCD probe uses), runs the copy-edge
  transitive closure over the batch, applies the closed deltas in bulk,
  and only then delivers to windows and subscriptions.  On large graphs
  the closure runs as blocked ``A @ P`` boolean matmuls over a packed
  points-to matrix; below that scale a topologically-ordered big-int
  pass is faster than any numpy kernel (per-element numpy dispatch
  overhead dominates tiny operands).  Subscription delivery is *fused*
  into the rounds: each pending (seen, cb) pair keeps a delivered-bits
  mask, novelty for the whole batch is computed as bitmask differences
  (vectorized over packed uint8 columns when the batch is large), and
  only the genuinely novel pointees are dispatched — through the rule
  descriptors (:mod:`repro.core.codegen`), probing the engine's fused
  lookup/resolve memos directly instead of re-entering the closures
  per pointee.  When numpy is not importable, or the graph is too small
  for batching to pay, the backend falls back to
  :class:`DiffPropBackend` for the whole drain — ``stats.dense_rounds``
  stays 0, which is the observable fallback signal.
- :class:`~repro.core.codegen.CodegenBackend` (``"codegen"``) — the
  drain specialized into generated flat Python source per (worklist
  policy, windows shape), compiled once and cached by content key; see
  :mod:`repro.core.codegen`.
- :class:`~repro.core.codegen.AccelBackend` (``"accel"``) — the same,
  preferring an optionally built mypyc/Cython module
  (``tools/build_accel.py``) when present; falls back to the generated
  Python path when absent (``stats.accel_active`` reports which ran).

Selection: ``Engine(backend=...)`` / ``AnalysisSession(backend=...)`` /
``--backend`` on the CLIs accept a registry key (:data:`BACKENDS`) or a
ready instance; ``None`` consults the ``REPRO_BACKEND`` environment
variable and defaults to ``"bigint"``.  ``trace=True`` always forces
``bigint`` (the provenance drain needs the uncollapsed per-pop loop)
and records a diagnostic when that overrides an explicit choice.

Backends hold per-engine propagation state (the frontiers, the DAG
snapshot), so each :class:`~repro.core.engine.Engine` constructs its
own instance; sharing one across engines is not supported.

None of this can change the analysis: every backend reaches the same
least fixpoint and identical order-independent counters (gated
byte-for-byte by ``python -m repro.bench --check-baseline`` and the
differential matrix in ``tests/test_backends.py``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Protocol, Set, Tuple, Union

from ..ir.refs import OffsetRef
from .worklist import drain as _bigint_drain

__all__ = [
    "PropagationBackend",
    "BigintBackend",
    "DiffPropBackend",
    "NumpyBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "backend_name",
    "resolve_backend",
    "available_numpy",
]

#: Environment variable consulted when no backend is passed explicitly.
ENV_VAR = "REPRO_BACKEND"
DEFAULT_BACKEND = "bigint"

_np_module = None
_np_checked = False


def available_numpy():
    """The numpy module, or None when it cannot be imported.

    Cached after the first probe; tests monkeypatch this function to
    exercise the fallback path without uninstalling numpy.
    """
    global _np_module, _np_checked
    if not _np_checked:
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe

            _np_module = numpy
        except Exception:  # pragma: no cover - depends on environment
            _np_module = None
        _np_checked = True
    return _np_module


class PropagationBackend(Protocol):
    """What a propagation backend must provide.

    ``drain`` processes the engine's pending worklist deltas until the
    worklist is empty (the least fixpoint of the installed rules),
    raising :class:`~repro.core.stats.AnalysisBudgetExceeded` through
    the engine's accounting chokepoint like every other drain variant.
    ``name`` is the registry key reported in ``stats.backend``.
    """

    name: str

    def drain(self, eng) -> None:
        """Propagate every pending delta to fixpoint."""
        ...


class BigintBackend:
    """Today's per-pop big-int drain, extracted and unchanged."""

    name = "bigint"

    def drain(self, eng) -> None:
        _bigint_drain(eng)


class DiffPropBackend:
    """Difference propagation: frontier bitsets per receiving structure.

    The bigint drain re-sends a class's whole delta to every structure
    and relies on downstream dedup (``add_bits``'s ``& ~old``, the
    per-subscription seen-sets).  This backend records, per copy edge,
    per window match, and per subscriber list, the bits already sent,
    and sends only ``delta & ~already_sent`` — suppressing the
    duplicate work at the source.  Frontier keys are representative-
    relative, so a class merge simply orphans the old keys: the merged
    class starts a fresh frontier and any re-delivery is absorbed by
    the same downstream dedup the bigint drain uses (correctness never
    depends on a frontier being *complete*, only on it being *sound*:
    a bit enters a frontier exactly when it is sent).
    """

    name = "diffprop"

    def __init__(self) -> None:
        #: (source rep << 21 | original dst ID) -> bits already unioned
        #: into dst.  The packed int key hashes as itself — cheaper than
        #: a tuple per edge delivery; IDs are dense interning indices, so
        #: 21 bits (2M refs) is far beyond any real graph (a tuple key
        #: would be used past that, see drain).
        self._edge_sent: Dict[int, int] = {}
        #: (member ID, window lo, dst obj, dst base) -> bits already sent.
        self._win_sent: Dict[Tuple[int, int, object, int], int] = {}
        #: id(subscriber list) -> (the list, pinned; bits already delivered).
        #: Keyed by list identity because a merge replaces the survivor's
        #: list (see ConstraintGraph.merge_classes) — the fresh list gets
        #: a fresh frontier, which is exactly the re-delivery the moved
        #: subscribers need.
        self._sub_sent: Dict[int, Tuple[list, int]] = {}

    # -- deliveries shared with the numpy backend ----------------------
    def deliver_windows(self, eng, rep: int, delta: int) -> None:
        """Window-interval matches for ``rep``'s members, frontier-deduped."""
        graph = eng.graph
        windows = graph.windows
        if not windows:
            return
        facts = graph.facts
        win_sent = self._win_sent
        stats = eng.stats
        add_bits = eng._add_bits
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
                        key = (m, lo, dobj, dbase)
                        sent = win_sent.get(key, 0)
                        send = delta & ~sent
                        if not send:
                            stats.frontier_bits_suppressed += delta.bit_count()
                            continue
                        if send != delta:
                            stats.frontier_bits_suppressed += (
                                delta & sent
                            ).bit_count()
                        win_sent[key] = sent | send
                        dref = canon(OffsetRef(dobj, dbase + (off - lo)))
                        if dref is not None:
                            add_bits(intern(dref), send)

    def deliver_subs(self, eng, rep: int, delta: int) -> None:
        """Subscriber callbacks for ``rep``, frontier-deduped per list."""
        cbs = eng.graph.subs.get(rep)
        if not cbs:
            return
        sub_sent = self._sub_sent
        key = id(cbs)
        ent = sub_sent.get(key)
        sent = ent[1] if ent is not None and ent[0] is cbs else 0
        send = delta & ~sent
        if send != delta:
            eng.stats.frontier_bits_suppressed += (delta & sent).bit_count()
        if not send:
            return
        sub_sent[key] = (cbs, sent | send)
        delta_items = eng.facts.decode_items(send)
        # List iteration tolerates appends; a subscriber added mid-batch
        # replays existing facts itself and the inline seen-set dedup
        # absorbs the overlap.
        for seen, cb, _desc in cbs:
            for did, dst in delta_items:
                if did not in seen:
                    seen.add(did)
                    cb(eng, dst)

    # ------------------------------------------------------------------
    def drain(self, eng) -> None:
        graph = eng.graph
        wl = eng.worklist
        facts = graph.facts
        find = facts.find
        adj = graph.copy_adj
        fadd_bits = facts.add_bits
        account = eng._account
        enqueue = eng._enqueue
        stats = eng.stats
        edge_sent = self._edge_sent
        pts = facts._pts
        while True:
            item = wl.pop(find)
            if item is None:
                return
            rep, delta = item
            edges = adj.get(rep)
            if edges:
                # ``rep`` only changes via a collapse inside
                # ``_maybe_collapse`` — re-resolved after each probe
                # rather than per edge (same as the bigint drain).  The
                # two-level parent probe is ``find``'s inlined fast path.
                parent = facts._parent
                for tid in tuple(edges):
                    rt = parent[tid]
                    if parent[rt] != rt:
                        rt = find(rt)
                    if rt == rep:
                        stats.props_saved += 1
                        continue
                    key = (rep << 21) | tid if tid < 2097152 else (rep, tid)
                    sent = edge_sent.get(key, 0)
                    send = delta & ~sent
                    if not send:
                        # Whole delta already sent over this edge: pure
                        # re-propagation the bigint drain would perform
                        # and dedup downstream.  Still worth the cycle
                        # probe — a fully-suppressed edge is exactly the
                        # converged no-op LCD keys on.
                        stats.props_saved += 1
                        stats.frontier_bits_suppressed += delta.bit_count()
                        if pts[rep] == pts[rt]:
                            eng._maybe_collapse(rep, rt)
                            rep = find(rep)
                        continue
                    if send != delta:
                        stats.frontier_bits_suppressed += (
                            delta & sent
                        ).bit_count()
                    edge_sent[key] = sent | send
                    new, gain, landed = fadd_bits(tid, send)
                    if new:
                        account(gain)
                        enqueue(landed, new)
                    else:
                        if pts[rep] == pts[rt]:
                            eng._maybe_collapse(rep, rt)
                            rep = find(rep)
            rep = find(rep)
            self.deliver_windows(eng, rep, delta)
            self.deliver_subs(eng, rep, delta)


class NumpyBackend:
    """Round-based dense drain with an optional numpy closure kernel.

    Each round: gather every pending worklist delta, rebuild (or reuse)
    a snapshot of the class-level copy DAG — merging whole copy-edge
    SCCs up front, so the closure runs over an acyclic condensation —
    run the copy-edge transitive closure of the batched deltas, apply
    them in bulk through the fact base and the budget chokepoint, and
    deliver the genuinely-new bits to windows and subscribers (whose
    rule closures feed the next round's worklist).  Closure results are
    applied without re-enqueueing: the closure already covered every
    copy edge transitively and the same-round delivery covers the other
    structures, so a worklist round-trip would be a guaranteed no-op.

    The closure kernel is chosen per round: at or above
    ``dense_kernel_edges`` class-level edges the deltas are unpacked
    into a boolean points-to matrix ``P`` and closed by iterating the
    blocked boolean matmul ``P |= (A @ P) > 0`` to fixpoint (``A`` the
    class adjacency); below it a single topologically-ordered big-int
    pass is used — at small scale Python big-int unions beat numpy
    kernels outright because per-call dispatch overhead dominates.

    Falls back to :class:`DiffPropBackend` for the whole drain when
    numpy is unavailable or the graph has fewer than ``min_dense_refs``
    interned refs (``stats.dense_rounds == 0`` is the fallback signal).
    """

    name = "numpy"
    #: Graphs below this many interned refs are drained by diffprop.
    min_dense_refs = 64
    #: Class-level edge count at which the matmul kernel takes over.
    dense_kernel_edges = 20_000
    #: Pending (seen, cb) pairs at or above this count per round have
    #: their novelty masks computed in one packed-uint8 numpy batch;
    #: below it per-pair big-int differences win (dispatch overhead).
    fuse_batch_pairs = 16

    def __init__(
        self,
        min_dense_refs: Optional[int] = None,
        dense_kernel_edges: Optional[int] = None,
    ) -> None:
        if min_dense_refs is not None:
            self.min_dense_refs = min_dense_refs
        if dense_kernel_edges is not None:
            self.dense_kernel_edges = dense_kernel_edges
        self._diff = DiffPropBackend()
        #: Cached condensed-DAG snapshot: topo-ordered class edge list.
        self._topo: List[Tuple[int, int]] = []
        self._stamp: Tuple[int, int] = (-1, -1)
        #: id(subscription entry) -> [entry, delivered-bits mask].  The
        #: mask mirrors the entry's seen-set as a bitset (seeded from it
        #: on first encounter, updated in lockstep), letting the fused
        #: rounds decide novelty for a whole batch with bitmask
        #: differences instead of per-item set probes.
        self._entry_masks: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def drain(self, eng) -> None:
        np = available_numpy()
        if np is None or eng.facts.num_refs() < self.min_dense_refs:
            self._diff.drain(eng)
            return
        while True:
            pending = self._gather(eng)
            if not pending:
                return
            self._round(eng, np, pending)

    @staticmethod
    def _gather(eng) -> Dict[int, int]:
        """Pop the whole worklist into a rep -> delta batch."""
        wl = eng.worklist
        find = eng.facts.find
        pending: Dict[int, int] = {}
        while True:
            item = wl.pop(find)
            if item is None:
                return pending
            rep, delta = item
            cur = pending.get(rep)
            pending[rep] = delta if cur is None else cur | delta

    # ------------------------------------------------------------------
    def _round(self, eng, np, pending: Dict[int, int]) -> None:
        eng.stats.dense_rounds += 1
        facts = eng.facts
        find = facts.find
        topo = self._topo_edges(eng)
        # SCC merges during the snapshot re-enqueue stolen/fresh bits.
        for r, b in self._gather(eng).items():
            pending[r] = pending.get(r, 0) | b
        # Consolidate onto live representatives (merges may have moved
        # keys) before closing over the condensed DAG.
        delta: Dict[int, int] = {}
        for r, b in pending.items():
            rr = find(r)
            cur = delta.get(rr)
            delta[rr] = b if cur is None else cur | b
        if topo and delta:
            if len(topo) >= self.dense_kernel_edges:
                self._closure_matmul(np, topo, delta, facts.num_refs())
            else:
                # Topo-ordered single pass: the DAG guarantees one visit
                # per edge fully propagates the batch.
                for s, d in topo:
                    b = delta.get(s)
                    if b:
                        cur = delta.get(d)
                        if cur is None:
                            delta[d] = b
                        elif b & ~cur:
                            delta[d] = cur | b
        # Bulk apply through the fact base and the budget chokepoint —
        # deliberately without enqueueing (see class docstring).
        account = eng._account
        add_bits = facts.add_bits
        new_map: Dict[int, int] = {}
        for r in sorted(delta):
            bits = delta[r]
            new, gain, rep = add_bits(r, bits)
            if gain:
                account(gain)
            # Deliver the whole batch, not just the genuinely-new part:
            # the gathered pending bits were already *in* the fact base
            # (``_add_bits`` stores before it enqueues), yet windows and
            # subscribers have not seen them — exactly what the per-pop
            # drains deliver on pop.  The frontier dedup below absorbs
            # any overlap across rounds.
            send = bits | new
            if send:
                new_map[rep] = new_map.get(rep, 0) | send
        # Deliver to windows (shared frontier dedup) and then run the
        # fused subscription pass; rule dispatch enqueues follow-up work
        # for the next round.
        diff = self._diff
        for rep in sorted(new_map):
            diff.deliver_windows(eng, rep, new_map[rep])
        self._deliver_subs_fused(eng, np, new_map)

    # ------------------------------------------------------------------
    def _deliver_subs_fused(self, eng, np, new_map: Dict[int, int]) -> None:
        """Batched subscription delivery for one dense round.

        Applies the same per-list frontier as
        :meth:`DiffPropBackend.deliver_subs`, then decides per-entry
        novelty for the *whole* batch via delivered-bits masks — one
        bitmask difference per pending (seen, cb) pair (vectorized over
        packed uint8 columns when the batch is large) — and dispatches
        only the novel pointees through the rule descriptors
        (:func:`repro.core.codegen.dispatch_novel`), which probe the
        engine's fused lookup/resolve memos directly.  The seen-sets
        are updated in lockstep with the masks, so every other drain
        variant still sees exact dedup state.
        """
        subs = eng.graph.subs
        stats = eng.stats
        sub_sent = self._diff._sub_sent
        entry_masks = self._entry_masks
        pairs: List[Tuple[list, int]] = []
        for rep in sorted(new_map):
            cbs = subs.get(rep)
            if not cbs:
                continue
            delta = new_map[rep]
            key = id(cbs)
            ent = sub_sent.get(key)
            sent = ent[1] if ent is not None and ent[0] is cbs else 0
            send = delta & ~sent
            if send != delta:
                stats.frontier_bits_suppressed += (delta & sent).bit_count()
            if not send:
                continue
            sub_sent[key] = (cbs, sent | send)
            for entry in cbs:
                ekey = id(entry)
                rec = entry_masks.get(ekey)
                if rec is None or rec[0] is not entry:
                    mask = 0
                    for d in entry[0]:
                        mask |= 1 << d
                    rec = entry_masks[ekey] = [entry, mask]
                pairs.append((rec, send))
        if not pairs:
            return
        from .codegen import dispatch_novel  # noqa: PLC0415 - see BACKENDS

        if len(pairs) >= self.fuse_batch_pairs:
            novels = self._novel_matrix(np, pairs, eng.facts.num_refs())
        else:
            novels = [send & ~rec[1] for rec, send in pairs]
        decode_items = eng.facts.decode_items
        decoded: Dict[int, list] = {}
        for (rec, send), novel in zip(pairs, novels):
            rec[1] |= send
            if novel:
                items = decoded.get(novel)
                if items is None:
                    items = decoded[novel] = decode_items(novel)
                dispatch_novel(eng, rec[0], items)

    @staticmethod
    def _novel_matrix(np, pairs: List[Tuple[list, int]], nbits: int) -> List[int]:
        """``send & ~delivered`` for every pair, as one packed batch.

        Packs the pending sends and the per-entry delivered masks into
        two uint8 matrices (one row per pair, one bitmask column block
        per ref ID) and computes all novelty masks with a single
        vectorized ``sends & ~masks`` — the subscription-dedup twin of
        the closure kernel's packed points-to matrix.
        """
        nbytes = (nbits + 7) // 8 or 1
        n = len(pairs)
        sends = np.zeros((n, nbytes), dtype=np.uint8)
        masks = np.zeros((n, nbytes), dtype=np.uint8)
        for i, (rec, send) in enumerate(pairs):
            sends[i] = np.frombuffer(
                send.to_bytes(nbytes, "little"), dtype=np.uint8
            )
            m = rec[1]
            if m:
                masks[i] = np.frombuffer(
                    m.to_bytes(nbytes, "little"), dtype=np.uint8
                )
        novel = sends & ~masks
        return [
            int.from_bytes(novel[i].tobytes(), "little") for i in range(n)
        ]

    # ------------------------------------------------------------------
    def _topo_edges(self, eng) -> List[Tuple[int, int]]:
        """The class-level copy DAG as a topo-ordered edge list (cached).

        Rebuilt only when edges were installed or classes merged since
        the last snapshot; the rebuild first merges every copy-edge SCC
        (eager, whole-cycle collapsing — the dense twin of the per-pop
        drains' lazy cycle detection) so the remaining graph is acyclic.
        """
        stats = eng.stats
        stamp = (stats.copy_edges, stats.sccs_collapsed)
        if stamp == self._stamp:
            return self._topo
        graph = eng.graph
        facts = graph.facts
        find = facts.find
        class_adj: Dict[int, Set[int]] = {}
        for src, dsts in graph.copy_adj.items():
            r = find(src)
            bucket = class_adj.setdefault(r, set())
            for tid in dsts:
                t = find(tid)
                if t != r:
                    bucket.add(t)
        sccs = self._tarjan(class_adj)
        for scc in sccs:
            if len(scc) > 1 and graph.merge_classes(
                scc, eng.worklist, eng._account
            ):
                stats.sccs_collapsed += 1
        # Reverse completion order is a topological order of the
        # condensation; number the (merged) classes accordingly.
        order: Dict[int, int] = {}
        for scc in reversed(sccs):
            r = find(scc[0])
            if r not in order:
                order[r] = len(order)
        edges: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for src, dsts in graph.copy_adj.items():
            r = find(src)
            for tid in dsts:
                t = find(tid)
                if t != r and (r, t) not in seen:
                    seen.add((r, t))
                    edges.append((r, t))
        edges.sort(key=lambda e: order.get(e[0], 0))
        self._topo = edges
        self._stamp = (stats.copy_edges, stats.sccs_collapsed)
        return edges

    @staticmethod
    def _tarjan(adj: Dict[int, Set[int]]) -> List[List[int]]:
        """Iterative Tarjan SCC over the class adjacency (completion order)."""
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        sccs: List[List[int]] = []
        counter = 0
        for root in list(adj):
            if root in index:
                continue
            work: List[Tuple[int, object]] = [(root, iter(adj.get(root, ())))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(adj.get(w, ()))))
                        advanced = True
                        break
                    if w in on_stack and index[w] < low[node]:
                        low[node] = index[w]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    scc: List[int] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)
        return sccs

    @staticmethod
    def _closure_matmul(
        np, topo: List[Tuple[int, int]], delta: Dict[int, int], nbits: int
    ) -> None:
        """Close ``delta`` over the DAG with blocked boolean matmuls.

        Packs the batched deltas into a boolean points-to matrix ``P``
        (one row per involved class, one column per ref ID) and iterates
        ``P |= (A @ P) > 0`` until fixpoint — at most longest-path-many
        matmuls.  Mutates ``delta`` in place with the closed bitsets.
        """
        nodes: List[int] = []
        idx: Dict[int, int] = {}
        for s, d in topo:
            if s not in idx:
                idx[s] = len(nodes)
                nodes.append(s)
            if d not in idx:
                idx[d] = len(nodes)
                nodes.append(d)
        for v in delta:
            if v not in idx:
                idx[v] = len(nodes)
                nodes.append(v)
        n = len(nodes)
        nbytes = (nbits + 7) // 8 or 1
        packed = np.zeros((n, nbytes), dtype=np.uint8)
        for v, b in delta.items():
            if b:
                packed[idx[v]] = np.frombuffer(
                    b.to_bytes(nbytes, "little"), dtype=np.uint8
                )
        bits = np.unpackbits(packed, axis=1, bitorder="little")
        adj = np.zeros((n, n), dtype=np.float32)
        for s, d in topo:
            adj[idx[d], idx[s]] = 1.0
        cur = bits.astype(np.float32)
        while True:
            grown = bits | ((adj @ cur) > 0)
            if np.array_equal(grown, bits):
                break
            bits = grown
            cur = bits.astype(np.float32)
        out = np.packbits(bits, axis=1, bitorder="little")
        for v in nodes:
            b = int.from_bytes(out[idx[v]].tobytes(), "little")
            if b:
                delta[v] = b


def _codegen_backend() -> PropagationBackend:
    from .codegen import CodegenBackend  # noqa: PLC0415 - see BACKENDS

    return CodegenBackend()


def _accel_backend() -> PropagationBackend:
    from .codegen import AccelBackend  # noqa: PLC0415 - see BACKENDS

    return AccelBackend()


#: Registry for ``Engine(backend=...)`` / the CLIs: name -> zero-argument
#: constructor.  Each engine gets a fresh instance (backends hold
#: per-engine frontier/snapshot state).  :mod:`repro.core.codegen` is
#: imported only when one of its backends (or the numpy backend's fused
#: rounds) first runs, so a process that never selects them never pays
#: for the import.
BACKENDS = {
    "bigint": BigintBackend,
    "diffprop": DiffPropBackend,
    "numpy": NumpyBackend,
    "codegen": _codegen_backend,
    "accel": _accel_backend,
}


def _availability_hints() -> str:
    """Degraded-backend notes appended to the unknown-backend error.

    ``numpy`` and ``accel`` are always *valid* choices (both fall back
    gracefully), but when their acceleration is unavailable a typo'd
    spec deserves the heads-up alongside the registered list.
    """
    from .codegen import load_accel  # noqa: PLC0415 - avoid import at module load

    hints = []
    if available_numpy() is None:
        hints.append("'numpy' will fall back to diffprop (numpy not importable)")
    if load_accel() is None:
        hints.append(
            "'accel' will fall back to codegen (compiled module not built; "
            "see tools/build_accel.py)"
        )
    return ("; note: " + "; ".join(hints)) if hints else ""


def backend_name(spec: Union[str, PropagationBackend, None]) -> str:
    """The registry key a backend spec resolves to (env-default aware).

    Raises :class:`KeyError` *here* — at engine/session construction or
    CLI parsing — for an unregistered name, naming the registered
    backends and where the bad value came from, instead of failing deep
    inside engine construction.
    """
    origin = ""
    if spec is None:
        spec = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
        origin = f" (from the {ENV_VAR} environment variable)"
    if isinstance(spec, str):
        if spec not in BACKENDS:
            raise KeyError(
                f"unknown propagation backend {spec!r}{origin}; "
                f"registered: {', '.join(sorted(BACKENDS))}"
                f"{_availability_hints()}"
            )
        return spec
    return spec.name


def resolve_backend(
    spec: Union[str, PropagationBackend, None] = None,
) -> PropagationBackend:
    """A ready backend instance for ``spec`` (name, instance, or None).

    ``None`` consults the ``REPRO_BACKEND`` environment variable, then
    falls back to :data:`DEFAULT_BACKEND`.  A passed instance is used
    as-is (callers own its lifecycle — one engine per instance).
    """
    if spec is None or isinstance(spec, str):
        return BACKENDS[backend_name(spec)]()
    return spec
