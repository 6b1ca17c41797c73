"""The solver orchestrator: wiring graph + rules + worklist to fixpoint.

The engine evaluates the rules of Figure 2 *incrementally* (semi-naive),
but since the layered refactor it owns almost none of the machinery —
each concern lives in a dedicated module with a narrow interface:

- :mod:`repro.core.graph` — the **constraint store**
  (:class:`~repro.core.graph.ConstraintGraph`): interned refs, bitset
  points-to sets, copy edges, windows, subscriptions, and the
  union-find merge used by online cycle collapsing.
- :mod:`repro.core.rules` — **rule installation**: Figure-2 rules 1–5
  (plus Assumption-1 pointer arithmetic and call binding) as functions
  that compile each statement into persistent graph structure; the
  closures they install are shared verbatim by the traced and untraced
  drains.
- :mod:`repro.core.worklist` — **drain policy and propagation**: the
  :class:`~repro.core.worklist.Worklist` protocol (priority
  discovery-order by default, FIFO as the order-independence witness)
  and the two drain loops.
- :mod:`repro.core.interproc` — library summaries for externs.
- :mod:`repro.core.stats` — counters (Figure 3, rule firings, session
  counters) and the :class:`AnalysisBudgetExceeded` fact budget.

What remains *here* is the orchestration the layers hang off: the
instrumented ``lookup``/``resolve`` boundary (Figure-3 counters bump per
call, memo caches sit below — footnote 7), normalization memos, the
fact/edge/window installation services the rules call, budget
accounting, the lazy-cycle-probe trigger, provenance context plumbing
for traced runs, and the solve/re-solve lifecycle — including
:func:`no_cyclic_gc`, which keeps the cyclic garbage collector out of
every setup-and-drain loop.

Because rules are installed persistently and de-duplicated, draining the
worklist reaches exactly the least fixpoint of the paper's inference
rules — from *any* seeding order.  That monotonicity is what makes
:meth:`Engine.add_statements` sound: an incremental re-solve seeds only
the new statements into the existing graph and re-drains, provably
reaching the same fixpoint as a from-scratch solve of the grown program
(the differential tests assert exact equality of points-to sets and all
order-independent counters).  :class:`repro.session.AnalysisSession` is
the user-facing facade over that lifecycle.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..ctype.types import CType
from ..diag import Diagnostic, DiagnosticSink, Severity
from ..ir.objects import AbstractObject, ObjKind
from ..ir.program import Program
from ..ir.refs import FieldRef, OffsetRef, Ref
from ..ir.stmts import Stmt
from .backend import BigintBackend, PropagationBackend, backend_name, resolve_backend
from .graph import ConstraintGraph, _WindowIndex  # noqa: F401  (re-export)
from .offsets import Offsets
from .result import Result
from .rules import setup_stmt
from .stats import AnalysisBudgetExceeded, EngineStats
from .strategy import Strategy, Window
from .worklist import WORKLISTS, Worklist, drain_traced

__all__ = [
    "AnalysisBudgetExceeded", "EngineStats", "Result", "Engine", "analyze",
    "no_cyclic_gc",
]


# Callback invoked as ``cb(engine, pointee)`` with each new pointee of a
# subscribed reference.
_Callback = Callable[["Engine", Ref], None]

_gc_lock = threading.Lock()
#: Fixpoints currently inside :func:`no_cyclic_gc`, across all threads.
_gc_depth = 0
#: Whether the last fixpoint to leave must re-enable the collector.
_gc_restore = False


@contextmanager
def no_cyclic_gc() -> Iterator[None]:
    """Keep the automatic cyclic garbage collector out of a fixpoint.

    A setup-and-drain loop allocates millions of small objects (ints,
    tuples, closures, dict entries) that all stay alive, so every
    automatic collection during it scans live objects only — a solve
    creates no cyclic garbage.  Reference counting still frees
    everything acyclic as usual.

    The collector switch is process-wide, so entries nest and may come
    from several threads: a lock-protected depth count makes the first
    entrant disable the collector (only if it was enabled) and the last
    one to leave restore it, also when the fixpoint raises.  A collector
    its caller had turned off stays off.
    """
    global _gc_depth, _gc_restore
    with _gc_lock:
        if _gc_depth == 0:
            _gc_restore = gc.isenabled()
            if _gc_restore:
                gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_restore:
                gc.enable()


class Engine:
    """Run one strategy over one program to the least fixpoint.

    ``worklist`` selects the drain policy: a key from
    :data:`repro.core.worklist.WORKLISTS` (``"priority"`` — the default
    discovery-order heap — or ``"fifo"``) or a ready
    :class:`~repro.core.worklist.Worklist` instance.  The policy cannot
    change the fixpoint or any order-independent counter.

    ``backend`` selects the propagation mechanism: a key from
    :data:`repro.core.backend.BACKENDS` (``"bigint"``, ``"diffprop"``,
    ``"numpy"``), a ready instance, or None (the ``REPRO_BACKEND``
    environment variable, defaulting to ``"bigint"``).  Like the
    worklist policy, the backend cannot change the fixpoint or any
    order-independent counter.  ``trace=True`` forces ``bigint`` — the
    provenance drain needs the uncollapsed per-pop loop — recording a
    diagnostic on ``diagnostics`` when that overrides an explicit
    choice.
    """

    def __init__(
        self,
        program: Program,
        strategy: Strategy,
        max_facts: int = 5_000_000,
        assume_valid_pointers: bool = True,
        trace: bool = False,
        worklist: Union[str, Worklist] = "priority",
        backend: Union[str, PropagationBackend, None] = None,
        diagnostics: Optional[DiagnosticSink] = None,
    ) -> None:
        self.program = program
        self.strategy = strategy
        self.max_facts = max_facts
        #: Provenance recorder (:class:`repro.obs.Tracer`) or None.  The
        #: untraced hot path pays only ``is None`` tests on the new-fact
        #: branches; the traced run additionally disables online cycle
        #: collapsing (identical least fixpoint, see
        #: :func:`repro.core.reference.traced_equals_untraced`) so that
        #: one (source ID, target ID) pair names one logical fact.
        if trace:
            from ..obs.provenance import Tracer

            self.tracer: Optional["Tracer"] = Tracer()
        else:
            self.tracer = None
        #: Current provenance context ID (0 = unattributed); only read
        #: when ``tracer`` is not None.
        self._ctx: int = 0
        #: Traced mode only: (src ID, dst ID) copy edge -> context that
        #: installed it; (src obj, lo, dst obj, dst base) window -> ctx.
        self._edge_prov: Dict[Tuple[int, int], int] = {}
        self._win_prov: Dict[Tuple[AbstractObject, int, AbstractObject, int], int] = {}
        #: Paper §4.2.1 Assumption 1.  When False, the engine takes the
        #: pessimistic alternative the paper sketches: the result of
        #: arithmetic on a (potential) pointer is the special ``Unknown``
        #: value, which can be used to flag potential misuses of memory.
        self.assume_valid_pointers = assume_valid_pointers
        self._unknown: Optional[AbstractObject] = None
        #: The constraint store (facts + edges + windows + subscriptions).
        self.graph = ConstraintGraph()
        #: The fact base, aliased for the public query API.
        self.facts = self.graph.facts
        self.stats = EngineStats()
        if isinstance(worklist, str):
            self.worklist: Worklist = WORKLISTS[worklist]()
        else:
            self.worklist = worklist
        #: Where engine-phase diagnostics land (shared with the session's
        #: front-end sink when solving through a session).
        self.diagnostics = diagnostics
        requested = backend_name(backend)
        if trace and requested != BigintBackend.name:
            # The provenance drain is a dedicated loop (collapsing off,
            # per-pop flow records); vectorized backends do not apply.
            if diagnostics is not None:
                diagnostics.emit(Diagnostic(
                    kind="backend-forced-bigint",
                    message=f"trace=True forces the 'bigint' propagation "
                            f"backend (requested {requested!r})",
                    severity=Severity.NOTE,
                    phase="analyze",
                ))
            self.backend: PropagationBackend = BigintBackend()
        else:
            self.backend = resolve_backend(backend)
        self.stats.backend = self.backend.name
        link_info = getattr(program, "link_info", None)
        if link_info is not None:
            # Linked programs carry their provenance into every solve's
            # stats (and from there into --profile and metrics JSONL).
            self.stats.tus_linked = link_info.tus_linked
            self.stats.externs_resolved = link_info.externs_resolved
        #: id(memoized arith_refs list) -> (pinned list, bitset of
        #: the refs' interned IDs) — the batched-add cache behind
        #: :meth:`_add_refs_bits`.
        self._refs_bits: Dict[int, Tuple[object, int]] = {}
        #: Fused-memo key prefixes: each rule-2/4/5 closure gets a small
        #: integer allocated once at setup from its *fixed* operands
        #: (τ + α, or τ + the fixed ref); the memo key is then
        #: ``prefix | interned-id-of-the-varying-ref`` — one int instead
        #: of a fresh 3-tuple hashed per firing.  See :meth:`_fused_key`.
        self._fused_pairs: Dict[Tuple[str, int, object], int] = {}
        self._fused_pins: List[Tuple[object, object]] = []
        #: prefix|target-id -> (bitset, struct flag, mismatch flag) — the
        #: fused rule-2 memo behind :meth:`_lookup_add_bits` (untraced).
        self._lookup_bits: Dict[object, tuple] = {}
        #: prefix|vary-id -> (struct flag, mismatch flag) for ``resolve``
        #: results already installed — the fused rule-4/5 memo behind
        #: :meth:`_resolve_install`.
        self._resolve_done: Dict[object, tuple] = {}
        #: Hot-path alias: the rules/propagation layers enqueue through
        #: the engine, which is just the policy's own method.
        self._enqueue = self.worklist.enqueue
        self._bound: Set[Tuple[int, AbstractObject]] = set()
        # Normalization memos.  ``normalize`` is pure type-level, so the
        # obj -> canonical-ref (and (obj, path) -> canonical-ref) maps
        # live on the strategy instance — a repeat solve with the same
        # strategy starts with a warm table, and the tables die with it.
        # A traced engine keeps private tables: its misses also record
        # per-engine provenance notes (note_normalize).
        if self.tracer is None:
            self._norm_cache: Dict[AbstractObject, Ref] = (
                self.strategy.memo_table("engine_norm_obj")
            )
            self._norm_ref_cache: Dict[tuple, tuple] = (
                self.strategy.memo_table("engine_norm_ref")
            )
        else:
            self._norm_cache = {}
            self._norm_ref_cache = {}
        self._solved = False
        # Import here to avoid a module cycle (interproc imports Engine types).
        from .interproc import SummaryRegistry

        self.summaries = SummaryRegistry.default()

    # ------------------------------------------------------------------
    # Normalization helpers (memoized per top-level object).
    # ------------------------------------------------------------------
    def unknown_ref(self) -> Ref:
        """The normalized reference of the ``Unknown`` pseudo-object.

        Created lazily; only exists in pessimistic
        (``assume_valid_pointers=False``) runs.
        """
        if self._unknown is None:
            from ..ctype.types import void

            self._unknown = AbstractObject("<unknown>", void, ObjKind.GLOBAL)
        return self.norm_obj(self._unknown)

    def norm_obj(self, obj: AbstractObject) -> Ref:
        ref = self._norm_cache.get(obj)
        if ref is None:
            raw = FieldRef(obj, ())
            ref = self.strategy.normalize(raw)
            self._norm_cache[obj] = ref
            if self.tracer is not None:
                self.tracer.note_normalize(raw, ref)
        return ref

    def norm_ref(self, ref: FieldRef) -> Ref:
        if not ref.path:
            return self.norm_obj(ref.obj)
        # Keyed on (id(obj), path); the entry pins the object so the id
        # stays valid for the cache's lifetime.
        key = (id(ref.obj), ref.path)
        hit = self._norm_ref_cache.get(key)
        if hit is not None:
            return hit[1]
        normed = self.strategy.normalize(ref)
        self._norm_ref_cache[key] = (ref.obj, normed)
        if self.tracer is not None:
            self.tracer.note_normalize(ref, normed)
        return normed

    # ------------------------------------------------------------------
    # Instrumented strategy calls (the Figure-3 boundary).
    # ------------------------------------------------------------------
    def _lookup(self, tau: CType, alpha: Sequence[str], target: Ref):
        # The memo cache sits below this boundary: counters bump per
        # *call* (hit or miss), keeping Figure 3 bit-identical.
        refs, info = self.strategy.cached_lookup(tau, alpha, target)
        self.stats.lookup_calls += 1
        if info.involved_struct:
            self.stats.lookup_struct_calls += 1
            if info.mismatch:
                self.stats.lookup_mismatch_calls += 1
        if self.tracer is not None and self._ctx:
            self.tracer.set_call(self._ctx, "lookup", tau,
                                 (tuple(alpha), target), refs,
                                 info.involved_struct, info.mismatch)
        return refs

    def _resolve(self, dst: Ref, src: Ref, tau: CType):
        res, info = self.strategy.cached_resolve(dst, src, tau)
        self.stats.resolve_calls += 1
        if info.involved_struct:
            self.stats.resolve_struct_calls += 1
            if info.mismatch:
                self.stats.resolve_mismatch_calls += 1
        if self.tracer is not None and self._ctx:
            self.tracer.set_call(self._ctx, "resolve", tau, (dst, src), res,
                                 info.involved_struct, info.mismatch)
        return res

    def _fused_key(self, kind: str, tau: CType, extra, pin) -> int:
        """Key prefix for the fused rule memos, allocated once per rule
        closure at setup time.

        ``kind`` + ``τ`` + ``extra`` (the lookup path, or the id of the
        closure's fixed ref) name the closure's fixed operands; closures
        sharing them share one prefix, so cross-statement memo hits are
        preserved.  The returned prefix is pre-shifted so that
        ``prefix | interned-ref-id`` is collision-free for up to 2²¹
        refs (the memo methods fall back to a tuple key above that).
        ``pin`` keeps the id-keyed objects alive for the engine's
        lifetime (``τ`` and the pinned ref are also closure-captured,
        but the pin makes the id-stability argument local).
        """
        k = (kind, id(tau), extra)
        pairs = self._fused_pairs
        pkey = pairs.get(k)
        if pkey is None:
            pkey = len(self._fused_pins) << 21
            pairs[k] = pkey
            self._fused_pins.append((tau, pin))
        return pkey

    def _lookup_add_bits(self, dst_id: int, pkey: int, tau: CType,
                         alpha: Tuple[str, ...], target: Ref) -> None:
        """Fused :meth:`_lookup` + batched bitset add (rule 2, untraced).

        An engine-level memo keyed ``prefix | target-id`` holds the
        interned bitset of the lookup result together with the
        ``CallInfo`` flags, so a recurrence costs one int-keyed dict
        probe — while the Figure-3 counters bump exactly as one
        ``lookup`` call, hit or miss.  It is the only memo on this path:
        a miss computes ``strategy.lookup`` directly, and the strategy's
        memo counters record which of the two answered.
        """
        facts = self.facts
        try:
            tid = target._id if target._fb is facts._token else facts.intern(target)
        except AttributeError:
            tid = facts.intern(target)
        key = pkey | tid if tid < 2097152 else (pkey, tid)
        ent = self._lookup_bits.get(key)
        if ent is None:
            strategy = self.strategy
            strategy.memo_lookup_misses += 1
            refs, info = strategy.lookup(tau, alpha, target)
            bits = 0
            intern = facts.intern
            for r in refs:
                bits |= 1 << intern(r)
            ent = (bits, info.involved_struct, info.mismatch)
            self._lookup_bits[key] = ent
        else:
            self.strategy.memo_lookup_hits += 1
        stats = self.stats
        stats.lookup_calls += 1
        if ent[1]:
            stats.lookup_struct_calls += 1
            if ent[2]:
                stats.lookup_mismatch_calls += 1
        bits = ent[0]
        if bits:
            new, gain, rep = facts.add_bits(dst_id, bits)
            if gain:
                self._account(gain)
                self._enqueue(rep, new)

    def _resolve_install(self, pkey: int, dst: Ref, src: Ref,
                         tau: CType, vary: Ref) -> None:
        """Fused :meth:`_resolve` + :meth:`install_resolve_result`
        (rules 4/5, untraced).

        Once a ``(dst, src, τ)`` triple's resolve result is installed,
        re-resolving it is a guaranteed no-op (``resolve`` is pure and
        installation is persistent), so a recurrence only needs to bump
        the Figure-3 counters from the memoized ``CallInfo`` flags —
        one int-keyed dict probe (``prefix | id-of-the-varying-ref``;
        ``vary`` is whichever of dst/src the subscription supplies).
        It is the only memo on this path: a miss computes
        ``strategy.resolve`` directly.
        """
        facts = self.facts
        try:
            vid = vary._id if vary._fb is facts._token else facts.intern(vary)
        except AttributeError:
            vid = facts.intern(vary)
        key = pkey | vid if vid < 2097152 else (pkey, vid)
        ent = self._resolve_done.get(key)
        stats = self.stats
        stats.resolve_calls += 1
        strategy = self.strategy
        if ent is not None:
            strategy.memo_resolve_hits += 1
            if ent[0]:
                stats.resolve_struct_calls += 1
                if ent[1]:
                    stats.resolve_mismatch_calls += 1
            return
        strategy.memo_resolve_misses += 1
        res, info = strategy.resolve(dst, src, tau)
        self._resolve_done[key] = (info.involved_struct, info.mismatch)
        if info.involved_struct:
            stats.resolve_struct_calls += 1
            if info.mismatch:
                stats.resolve_mismatch_calls += 1
        self.install_resolve_result(res)

    def _resolve_install_once(self, dst: Ref, src: Ref, tau: CType) -> None:
        """One-shot :meth:`_resolve` + install (rule 3 and call binding,
        untraced).

        These sites fire once per statement / per (call site, callee)
        pair, so a memo would almost never hit: every call computes
        ``strategy.resolve``, and a recurring triple re-installs only
        duplicate edges and windows, which the graph drops.
        """
        strategy = self.strategy
        strategy.memo_resolve_misses += 1
        res, info = strategy.resolve(dst, src, tau)
        stats = self.stats
        stats.resolve_calls += 1
        if info.involved_struct:
            stats.resolve_struct_calls += 1
            if info.mismatch:
                stats.resolve_mismatch_calls += 1
        self.install_resolve_result(res)

    # ------------------------------------------------------------------
    # Fact / edge / subscription services (called by the rules layer).
    # ------------------------------------------------------------------
    def _account(self, gained: int) -> None:
        # The single budget chokepoint: every drain variant (layered,
        # traced, incremental) adds facts through here, so ``max_facts``
        # bounds them identically.  Read dynamically — tests tighten the
        # budget on a live engine.
        self.stats.facts += gained
        if self.stats.facts > self.max_facts:
            raise AnalysisBudgetExceeded(
                f"more than {self.max_facts} facts; aborting"
            )

    def add_fact(self, src: Ref, dst: Ref) -> None:
        facts = self.facts
        self._add_fact_ids(facts.intern(src), facts.intern(dst))

    def _add_fact_ids(self, sid: int, did: int) -> None:
        gain, rep = self.facts.add_id(sid, did)
        if gain:
            self._account(gain)
            self._enqueue(rep, 1 << did)
            if self.tracer is not None:
                self.tracer.record_fact(sid, did, self._ctx)

    def _add_bits(self, dst_id: int, bits: int) -> int:
        """Union a delta bitset into ``dst``'s set; returns the new bits."""
        new, gain, rep = self.facts.add_bits(dst_id, bits)
        if gain:
            self._account(gain)
            self._enqueue(rep, new)
        return new

    def _add_refs_bits(self, dst_id: int, refs) -> None:
        """Batched fact add for a memoized ``arith_refs`` list.

        The strategy memoizes the ref set per outermost object, so the
        same list instance recurs for every pointee in that object;
        interning it to a bitset once and unioning that bitset per
        recurrence replaces ``len(refs)`` per-fact adds (and their
        worklist enqueues) with a single big-int union.  Identical
        counters: the fact gain and the enqueued delta are the same set.
        Untraced path only — traced runs add per fact for provenance.
        """
        cache = self._refs_bits
        key = id(refs)
        ent = cache.get(key)
        if ent is not None and ent[0] is refs:
            bits = ent[1]
        else:
            bits = 0
            intern = self.facts.intern
            for r in refs:
                bits |= 1 << intern(r)
            cache[key] = (refs, bits)
        if bits:
            new, gain, rep = self.facts.add_bits(dst_id, bits)
            if gain:
                self._account(gain)
                self._enqueue(rep, new)

    def install_copy_edge(self, src: Ref, dst: Ref) -> None:
        """Facts at ``src`` flow to ``dst``, now and in the future."""
        facts = self.facts
        sid = facts.intern(src)
        did = facts.intern(dst)
        # Interning is structural, so equal refs share an ID: the int
        # compare replaces a structural ``src == dst``.
        if sid == did:
            return
        if not self.graph.add_edge_ids(sid, did):
            return
        self.stats.copy_edges += 1
        rs = facts.find(sid)
        if rs == facts.find(did):
            # Edge internal to an already-collapsed class: the shared set
            # makes it a permanent no-op.
            return
        self.graph.attach_edge(rs, did)
        if self.tracer is not None:
            self._edge_prov.setdefault((sid, did), self._ctx)
        bits = facts.pts_bits(rs)
        if bits:
            new = self._add_bits(did, bits)
            if new and self.tracer is not None:
                self.tracer.record_flow(did, new, self._ctx, sid)

    def install_window(self, w: Window) -> None:
        """Byte-window copy edge (the "Offsets" resolve result)."""
        if not self.graph.add_window(w.src.obj, w.src.offset, w.size, w.dst.obj, w.dst.offset):
            return
        self.stats.windows += 1
        if self.tracer is not None:
            self._win_prov.setdefault(
                (w.src.obj, w.src.offset, w.dst.obj, w.dst.offset), self._ctx
            )
        # Snapshot: window hits may add facts on refs of this same object.
        for ref in tuple(self.facts.refs_of_obj_view(w.src.obj)):
            if isinstance(ref, OffsetRef) and w.src.offset <= ref.offset < w.src.offset + w.size:
                self._window_hit(ref, w.src.offset, w.dst.obj, w.dst.offset)

    def _window_hit(
        self, src_ref: OffsetRef, lo: int, dst_obj: AbstractObject, dst_base: int
    ) -> None:
        assert isinstance(self.strategy, Offsets)
        m = dst_base + (src_ref.offset - lo)
        dst_ref = self.strategy.canon_offset_ref(OffsetRef(dst_obj, m))
        if dst_ref is None:
            return
        facts = self.facts
        sid = facts.intern(src_ref)
        bits = facts.pts_bits(sid)
        if bits:
            did = facts.intern(dst_ref)
            new = self._add_bits(did, bits)
            if new and self.tracer is not None:
                ctx = self._win_prov.get(
                    (src_ref.obj, lo, dst_obj, dst_base), 0
                )
                self.tracer.record_flow(did, new, ctx, sid)

    def install_resolve_result(self, res) -> None:
        """Install resolve output, whichever shape the strategy returned.

        Edges and windows are persistent and deduplicated, so
        re-installing a result is a no-op that bumps no counter.
        """
        if isinstance(res, Window):
            self.install_window(res)
            return
        if self.tracer is not None:
            for dst, src in res:
                self.install_copy_edge(src, dst)
            return
        # Untraced hot path: the per-pair work of install_copy_edge,
        # inlined with the graph/fact structures bound once per result.
        # Pair lists overlap heavily across distinct (dst, src, τ)
        # results, so most pairs are duplicate edges — the inline
        # edge-bitset probe rejects them without a function call.
        facts = self.facts
        token = facts._token
        graph = self.graph
        intern = facts.intern
        edge_set = graph.edge_set
        edge_add = edge_set.add
        find = facts.find
        parent = facts._parent
        adj = graph.copy_adj
        pts = facts._pts
        stats = self.stats
        for dst, src in res:
            # Interning fast path: canonical refs cache their ID in
            # ``_fb``/``_id`` slots (see FactBase.intern) — two attr
            # loads beat a method call.
            try:
                sid = src._id if src._fb is token else intern(src)
            except AttributeError:
                sid = intern(src)
            try:
                did = dst._id if dst._fb is token else intern(dst)
            except AttributeError:
                did = intern(dst)
            if sid == did:
                continue
            key = (sid << 21) | did if did < 2097152 else (sid, did)
            if key in edge_set:
                continue
            edge_add(key)
            stats.copy_edges += 1
            rs = parent[sid]
            if parent[rs] != rs:
                rs = find(rs)
            rd = parent[did]
            if parent[rd] != rd:
                rd = find(rd)
            if rs == rd:
                # Edge internal to a collapsed class: permanent no-op.
                continue
            lst = adj.get(rs)
            if lst is None:
                adj[rs] = [did]
            else:
                lst.append(did)
            bits = pts[rs]
            if bits:
                self._add_bits(did, bits)

    def subscribe(
        self, ptr_ref: Ref, cb: _Callback, desc: Optional[tuple] = None
    ) -> None:
        """Run ``cb(engine, pointee)`` once for each distinct pointee of
        ``ptr_ref``.

        The engine is an argument, not something ``cb`` captures: the
        graph holds every callback for the engine's lifetime, so a
        captured engine would be a reference cycle (engine → graph →
        callback → engine) that reference counting can never free.

        The subscription is stored as a ``(seen, cb, desc)`` triple; the
        drains perform the once-per-distinct-pointee dedup inline
        (``seen`` keys on the pointee's interned ID — one per logical
        ref, an int hash — so a dedup hit costs one set probe rather
        than a closure call).  ``desc``, when given, is a small tuple
        naming the rule case and its fixed operands
        (:mod:`repro.core.rules`); specialized drains use it to dispatch
        the rule inline, and it must be behaviorally identical to ``cb``
        on the untraced path.
        """
        seen: Set[int] = set()
        facts = self.facts
        rep = facts.find(facts.intern(ptr_ref))
        self.graph.add_subscriber(rep, (seen, cb, desc))
        # decode_items() materializes a list, so the replay is safe even
        # if the callback adds facts on ptr_ref itself (a
        # self-referential stmt).
        bits = facts.pts_bits(rep)
        if bits:
            for did, tgt in facts.decode_items(bits):
                seen.add(did)
                cb(self, tgt)

    def cross_subscribe(
        self, a_ref: Ref, b_ref: Ref,
        fn: Callable[["Engine", Ref, Ref], None],
    ) -> None:
        """Run ``fn(engine, a_tgt, b_tgt)`` for each pair of pointees of
        two refs (the engine is passed, not captured, as in
        :meth:`subscribe`).

        Used by library summaries such as ``memcpy`` (destination ×
        source) and ``qsort`` (comparator × base array).
        """
        a_seen: list = []
        b_seen: list = []

        def on_a(eng: "Engine", t: Ref) -> None:
            a_seen.append(t)
            for u in list(b_seen):
                fn(eng, t, u)

        def on_b(eng: "Engine", u: Ref) -> None:
            b_seen.append(u)
            for t in list(a_seen):
                fn(eng, t, u)

        self.subscribe(a_ref, on_a)
        self.subscribe(b_ref, on_b)

    # ------------------------------------------------------------------
    # Online cycle collapsing (the trigger; mechanics live in graph.py).
    # ------------------------------------------------------------------
    def _maybe_collapse(self, src_rep: int, dst_rep: int) -> None:
        """A no-op propagation along ``src -> dst`` hints at a cycle:
        probe the copy graph for a path ``dst ->* src`` and, if one
        exists, merge every class on it (they form a copy-edge cycle and
        share one fixpoint set).  Each (src, dst) class pair is probed at
        most once."""
        if not self.graph.lcd_mark(src_rep, dst_rep):
            return
        path = self.graph.cycle_path(dst_rep, src_rep)
        if path is not None and self.graph.merge_classes(
            path, self.worklist, self._account
        ):
            self.stats.sccs_collapsed += 1

    # ------------------------------------------------------------------
    # Statement setup and the fixpoint lifecycle.
    # ------------------------------------------------------------------
    def _setup_stmt(self, st: Stmt) -> None:
        """Install one statement's rule (see :mod:`repro.core.rules`)."""
        setup_stmt(self, st)

    def drain(self) -> None:
        """Process pending deltas until the worklist is empty.

        Dispatches to the selected propagation backend
        (:mod:`repro.core.backend`); the traced loop records provenance
        and keeps cycle collapsing off.
        """
        if self.tracer is not None:
            drain_traced(self)
        else:
            self.backend.drain(self)

    def _fixpoint(self, stmts: Iterable[Stmt]) -> None:
        """Install ``stmts`` and drain, with the cyclic collector paused."""
        with no_cyclic_gc():
            for st in stmts:
                setup_stmt(self, st)
            self.drain()

    def solve(self) -> Result:
        """Install every program statement and drain to the least fixpoint."""
        t0 = time.perf_counter()
        self._fixpoint(self.program.all_stmts())
        self._solved = True
        self.stats.solve_seconds = time.perf_counter() - t0
        return Result(
            self.program, self.strategy, self.facts, self.stats,
            tracer=self.tracer,
        )

    def add_statements(self, stmts: Iterable[Stmt]) -> Result:
        """Incremental re-solve: seed only ``stmts`` and re-drain.

        The rules are monotone (Figure 2), so installing the new
        statements into the already-solved graph and draining reaches
        exactly the least fixpoint of the grown program — identical
        points-to sets, deref sizes, and order-independent counters to a
        from-scratch solve (the statements must already belong to
        ``self.program`` and must not have been installed before;
        :meth:`repro.session.AnalysisSession.add_statements` manages
        that bookkeeping).
        """
        if not self._solved:
            raise RuntimeError("add_statements requires a prior solve()")
        stmts = list(stmts)
        t0 = time.perf_counter()
        stats = self.stats
        stats.incremental_solves += 1
        stats.delta_stmts += len(stmts)
        stats.reused_graph_refs = self.facts.num_refs()
        self._fixpoint(stmts)
        stats.solve_seconds += time.perf_counter() - t0
        return Result(
            self.program, self.strategy, self.facts, stats,
            tracer=self.tracer,
        )


def analyze(
    program: Program,
    strategy: Strategy,
    trace: bool = False,
    worklist: Union[str, Worklist] = "priority",
    **kwargs,
) -> Result:
    """Convenience wrapper: run ``strategy`` over ``program`` to fixpoint.

    A thin veneer over :class:`repro.session.AnalysisSession` — one
    throwaway session, one solve.  Callers that solve several strategies
    or grow the program should hold a session instead.
    """
    from ..session import AnalysisSession

    return AnalysisSession(program, **kwargs).solve(
        strategy, trace=trace, worklist=worklist
    )
