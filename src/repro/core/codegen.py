"""Codegen-specialized propagation: a drain compiled per (strategy, shape).

The per-pop drains (:mod:`repro.core.worklist`,
:class:`~repro.core.backend.DiffPropBackend`) pay Python dispatch on
every hop: a method call to pop the worklist, a method call per edge
union, and a closure call per delivered pointee.  None of that dispatch
is *data* — for a given engine it is fully determined by two static
facts, the worklist policy class and whether the strategy can ever
install byte windows.  This module exploits that by *generating* the
drain as flat Python source specialized to those facts:

- the worklist pop/enqueue is unrolled into direct heap/deque and
  pending-dict operations for the known policy class (no ``pop``/
  ``enqueue`` method calls);
- ``FactBase.add_bits`` is inlined into the copy-edge loop (the bitset
  union, the gain accounting, and the first-fact registration);
- attribute and bound-method lookups are hoisted into function locals
  once per drain call;
- subscription delivery is dispatched through the *descriptors* carried
  by each subscription entry (:mod:`repro.core.rules`): the Figure-2
  rule cases become a jump table of inline branches that probe the
  engine's fused memos (``_lookup_bits``/``_resolve_done``/
  ``_refs_bits``) directly — the memo-hit path never leaves the
  generated function, and only memo misses re-enter the engine's
  slow-path methods (which also own every Figure-3 counter bump on
  that path, so counters stay byte-identical).  The fused memos are
  the only lookup/resolve memos an untraced solve consults, so an
  inline hit also bumps the strategy's ``memo_lookup_hits`` /
  ``memo_resolve_hits``, as the slow path does;
- difference-propagation frontiers (per edge / window match /
  subscriber list, exactly :class:`~repro.core.backend.DiffPropBackend`'s)
  suppress re-sent bits at the source.

The generated source is compiled once via :func:`compile`/``exec`` and
cached by **content key** — the source text itself — so engines (and
:class:`~repro.session.AnalysisSession` re-solves) sharing a (policy,
windows) shape share one code object, while a different shape
recompiles.  Generation is itself cached per shape, so the steady-state
cost of :func:`compiled_drain` is two dict probes.

The ``accel`` seam
------------------

:class:`AccelBackend` auto-detects an *optionally built* compiled
module (``repro.core._accel``, produced by ``tools/build_accel.py``
from this generator's output via mypyc or Cython) exporting the same
``drain(eng, edge_sent, win_sent, sub_sent)`` entrypoint, guarded by an
``ACCEL_API_VERSION`` handshake.  When the module is absent or its API
version disagrees, the backend silently falls back to the generated-
Python drain above — same fixpoint, same counters, just interpreted.
``stats.accel_active`` reports which path ran (never gated).

Like every backend, none of this can change the analysis: the
differential matrix in ``tests/test_backends.py`` and the byte-exact
``bench --check-baseline`` gate pin codegen and accel to the bigint
fixpoint.  ``trace=True`` never reaches this module (tracing forces the
bigint backend at engine construction).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Optional, Tuple

from ..ir.refs import OffsetRef
from .worklist import FifoWorklist, PriorityWorklist

__all__ = [
    "generate_drain_source",
    "drain_key",
    "compiled_drain",
    "dispatch_novel",
    "CodegenBackend",
    "AccelBackend",
    "load_accel",
    "ACCEL_API_VERSION",
]

#: Handshake between :func:`load_accel` and a built ``_accel`` module.
#: Bump whenever the drain entrypoint signature, the subscription /
#: descriptor layout or the counters the drain bumps change; a stale
#: compiled module is then ignored (fallback to generated Python)
#: instead of miscomputing.  (2: inline memo hits count on the strategy;
#: 3: subscription callbacks are called as ``cb(eng, pointee)``.)
ACCEL_API_VERSION = 3


# ----------------------------------------------------------------------
# Source generation.
# ----------------------------------------------------------------------

#: Worklist-policy specializations the generator knows how to unroll.
#: Anything else (a user-supplied policy object) gets the "generic"
#: variant, which drives the policy through its pop/enqueue methods.
_POLICIES = ("priority", "fifo", "generic")


def _enqueue_src(policy: str, rep: str, bits: str, indent: str) -> str:
    """The inlined ``worklist.enqueue(rep, bits)`` for ``policy``."""
    if policy == "generic":
        return f"{indent}enqueue({rep}, {bits})\n"
    push = (
        f"heappush(heap, {rep})" if policy == "priority"
        else f"queue_append({rep})"
    )
    return (
        f"{indent}_pc = pending_get({rep})\n"
        f"{indent}if _pc is None:\n"
        f"{indent}    pending[{rep}] = {bits}\n"
        f"{indent}    {push}\n"
        f"{indent}else:\n"
        f"{indent}    pending[{rep}] = _pc | {bits}\n"
    )


def _pop_src(policy: str) -> str:
    """The inlined ``worklist.pop(find)`` loop head for ``policy``."""
    if policy == "generic":
        return (
            "        item = wl_pop(find)\n"
            "        if item is None:\n"
            "            return\n"
            "        rep, delta = item\n"
        )
    first = (
        "            raw = heappop(heap)\n" if policy == "priority"
        else "            raw = queue_popleft()\n"
    )
    cond = "heap" if policy == "priority" else "queue"
    return (
        f"        while {cond}:\n"
        f"{first}"
        "            delta = pending_pop(raw, 0)\n"
        "            rep = parent[raw]\n"
        "            if parent[rep] != rep:\n"
        "                rep = find(rep)\n"
        "            if rep != raw:\n"
        "                delta |= pending_pop(rep, 0)\n"
        "            if delta:\n"
        "                break\n"
        "        else:\n"
        "            return\n"
    )


def generate_drain_source(policy: str, windows: bool) -> str:
    """Flat drain source for a (worklist policy, windows-possible) shape.

    The emitted function has the fixed signature
    ``drain(eng, edge_sent, win_sent, sub_sent)`` — the three frontier
    dicts are the backend's per-engine state, passed in so the code
    object itself is engine-free and shareable.
    """
    if policy not in _POLICIES:
        raise ValueError(
            f"unknown worklist policy {policy!r}; known: {_POLICIES}"
        )
    head = [
        "def drain(eng, edge_sent, win_sent, sub_sent):\n",
        "    graph = eng.graph\n",
        "    wl = eng.worklist\n",
        "    facts = graph.facts\n",
        "    find = facts.find\n",
        "    adj = graph.copy_adj\n",
        "    subs = graph.subs\n",
        "    stats = eng.stats\n",
        "    account = eng._account\n",
        "    maybe_collapse = eng._maybe_collapse\n",
        "    lcd_done = graph.lcd_done\n",
        "    fadd_bits = facts.add_bits\n",
        "    pts = facts._pts\n",
        "    parent = facts._parent\n",
        "    refs = facts._refs\n",
        "    members = facts._members\n",
        "    register = facts._register\n",
        "    lookup_bits_get = eng._lookup_bits.get\n",
        "    resolve_done_get = eng._resolve_done.get\n",
        "    refs_bits_get = eng._refs_bits.get\n",
        "    lookup_add_bits = eng._lookup_add_bits\n",
        "    resolve_install = eng._resolve_install\n",
        "    add_refs_bits = eng._add_refs_bits\n",
        "    strategy = eng.strategy\n",
        "    arith_refs = strategy.arith_refs\n",
        "    edge_sent_get = edge_sent.get\n",
        "    sub_sent_get = sub_sent.get\n",
        "    adj_get = adj.get\n",
        "    subs_get = subs.get\n",
    ]
    if policy == "generic":
        head += [
            "    wl_pop = wl.pop\n",
            "    enqueue = wl.enqueue\n",
        ]
    else:
        head += [
            "    pending = wl._pending\n",
            "    pending_get = pending.get\n",
            "    pending_pop = pending.pop\n",
        ]
        if policy == "priority":
            head.append("    heap = wl._heap\n")
        else:
            head += [
                "    queue = wl._queue\n",
                "    queue_popleft = queue.popleft\n",
                "    queue_append = queue.append\n",
            ]
    if windows:
        head += [
            "    windows = graph.windows\n",
            "    windows_get = windows.get\n",
            # getattr with default: the ahead-of-time accel build uses
            # the generic+windows superset drain for *every* strategy,
            # and only the Offsets family defines canon_offset_ref
            # (windows stays empty otherwise, so canon is never called).
            "    canon = getattr(eng.strategy, 'canon_offset_ref', None)\n",
            "    intern = facts.intern\n",
            "    win_sent_get = win_sent.get\n",
            "    eng_add_bits = eng._add_bits\n",
        ]
    body = ["    while True:\n", _pop_src(policy)]
    # -- copy edges: diffprop frontier + inlined add_bits/enqueue ------
    body.append(
        "        edges = adj_get(rep)\n"
        "        if edges:\n"
        "            for tid in tuple(edges):\n"
        "                rt = parent[tid]\n"
        "                if parent[rt] != rt:\n"
        "                    rt = find(rt)\n"
        "                if rt == rep:\n"
        "                    stats.props_saved += 1\n"
        "                    continue\n"
        "                key = (rep << 21) | tid if tid < 2097152 else (rep, tid)\n"
        "                sent = edge_sent_get(key, 0)\n"
        "                send = delta & ~sent\n"
        "                if not send:\n"
        "                    stats.props_saved += 1\n"
        "                    stats.frontier_bits_suppressed += delta.bit_count()\n"
        "                    # lcd_mark's dedup probe, inlined: an already-\n"
        "                    # marked pair makes _maybe_collapse a no-op\n"
        "                    # (rep unchanged), so skip the call and find.\n"
        "                    if (rep, rt) not in lcd_done and pts[rep] == pts[rt]:\n"
        "                        maybe_collapse(rep, rt)\n"
        "                        rep = find(rep)\n"
        "                    continue\n"
        "                if send != delta:\n"
        "                    stats.frontier_bits_suppressed += (delta & sent).bit_count()\n"
        "                edge_sent[key] = sent | send\n"
        "                # facts.add_bits(tid, send), inlined (rt is tid's\n"
        "                # representative, recomputed above).\n"
        "                cur = pts[rt]\n"
        "                new = send & ~cur\n"
        "                if new:\n"
        "                    pts[rt] = cur | new\n"
        "                    gain = new.bit_count() * len(members[rt])\n"
        "                    facts._count += gain\n"
        "                    if not cur:\n"
        "                        register(rt)\n"
        "                    account(gain)\n"
        + _enqueue_src(policy, "rt", "new", "                    ")
        + "                else:\n"
        "                    if (rep, rt) not in lcd_done and pts[rep] == pts[rt]:\n"
        "                        maybe_collapse(rep, rt)\n"
        "                        rep = find(rep)\n"
        "        rep = find(rep)\n"
    )
    # -- windows (only for strategies that can install them) -----------
    if windows:
        body.append(
            "        if windows:\n"
            "            for m in tuple(members[rep]):\n"
            "                ref = refs[m]\n"
            "                if type(ref) is OffsetRef:\n"
            "                    index = windows_get(ref.obj)\n"
            "                    if index is not None:\n"
            "                        off = ref.offset\n"
            "                        for lo, dobj, dbase in index.matches(off):\n"
            "                            wkey = (m, lo, dobj, dbase)\n"
            "                            wsent = win_sent_get(wkey, 0)\n"
            "                            wsend = delta & ~wsent\n"
            "                            if not wsend:\n"
            "                                stats.frontier_bits_suppressed += delta.bit_count()\n"
            "                                continue\n"
            "                            if wsend != delta:\n"
            "                                stats.frontier_bits_suppressed += (delta & wsent).bit_count()\n"
            "                            win_sent[wkey] = wsent | wsend\n"
            "                            dref = canon(OffsetRef(dobj, dbase + (off - lo)))\n"
            "                            if dref is not None:\n"
            "                                eng_add_bits(intern(dref), wsend)\n"
        )
    # -- subscriptions: frontier + descriptor jump table ---------------
    e = _enqueue_src(policy, "landed", "new", " " * 44)
    body.append(
        "        cbs = subs_get(rep)\n"
        "        if cbs:\n"
        "            skey = id(cbs)\n"
        "            ent = sub_sent_get(skey)\n"
        "            ssent = ent[1] if ent is not None and ent[0] is cbs else 0\n"
        "            ssend = delta & ~ssent\n"
        "            if ssend != delta:\n"
        "                stats.frontier_bits_suppressed += (delta & ssent).bit_count()\n"
        "            if ssend:\n"
        "                sub_sent[skey] = (cbs, ssent | ssend)\n"
        "                items = []\n"
        "                bits = ssend\n"
        "                while bits:\n"
        "                    low = bits & -bits\n"
        "                    rid = low.bit_length() - 1\n"
        "                    items.append((rid, refs[rid]))\n"
        "                    bits ^= low\n"
        "                for entry in cbs:\n"
        "                    seen = entry[0]\n"
        "                    desc = entry[2]\n"
        "                    if desc is None:\n"
        "                        cb = entry[1]\n"
        "                        for did, dst in items:\n"
        "                            if did not in seen:\n"
        "                                seen.add(did)\n"
        "                                cb(eng, dst)\n"
        "                        continue\n"
        "                    kind = desc[0]\n"
        "                    if kind == 4:\n"
        "                        _k, pkey, lhs_ref, lhs_type = desc\n"
        "                        for did, dst in items:\n"
        "                            if did not in seen:\n"
        "                                seen.add(did)\n"
        "                                stats.rule4_firings += 1\n"
        "                                mkey = pkey | did if did < 2097152 else (pkey, did)\n"
        "                                ment = resolve_done_get(mkey)\n"
        "                                if ment is None:\n"
        "                                    resolve_install(pkey, lhs_ref, dst, lhs_type, dst)\n"
        "                                else:\n"
        "                                    strategy.memo_resolve_hits += 1\n"
        "                                    stats.resolve_calls += 1\n"
        "                                    if ment[0]:\n"
        "                                        stats.resolve_struct_calls += 1\n"
        "                                        if ment[1]:\n"
        "                                            stats.resolve_mismatch_calls += 1\n"
        "                    elif kind == 5:\n"
        "                        _k, pkey, rhs_ref, tau_p = desc\n"
        "                        for did, dst in items:\n"
        "                            if did not in seen:\n"
        "                                seen.add(did)\n"
        "                                stats.rule5_firings += 1\n"
        "                                mkey = pkey | did if did < 2097152 else (pkey, did)\n"
        "                                ment = resolve_done_get(mkey)\n"
        "                                if ment is None:\n"
        "                                    resolve_install(pkey, dst, rhs_ref, tau_p, dst)\n"
        "                                else:\n"
        "                                    strategy.memo_resolve_hits += 1\n"
        "                                    stats.resolve_calls += 1\n"
        "                                    if ment[0]:\n"
        "                                        stats.resolve_struct_calls += 1\n"
        "                                        if ment[1]:\n"
        "                                            stats.resolve_mismatch_calls += 1\n"
        "                    elif kind == 2:\n"
        "                        _k, lhs_id, pkey, tau_p, path = desc\n"
        "                        for did, dst in items:\n"
        "                            if did not in seen:\n"
        "                                seen.add(did)\n"
        "                                stats.rule2_firings += 1\n"
        "                                mkey = pkey | did if did < 2097152 else (pkey, did)\n"
        "                                ment = lookup_bits_get(mkey)\n"
        "                                if ment is None:\n"
        "                                    lookup_add_bits(lhs_id, pkey, tau_p, path, dst)\n"
        "                                else:\n"
        "                                    strategy.memo_lookup_hits += 1\n"
        "                                    stats.lookup_calls += 1\n"
        "                                    if ment[1]:\n"
        "                                        stats.lookup_struct_calls += 1\n"
        "                                        if ment[2]:\n"
        "                                            stats.lookup_mismatch_calls += 1\n"
        "                                    lbits = ment[0]\n"
        "                                    if lbits:\n"
        "                                        new, gain, landed = fadd_bits(lhs_id, lbits)\n"
        "                                        if gain:\n"
        "                                            account(gain)\n"
        + e
        + "                    else:  # kind == 6: pointer arithmetic, optimistic\n"
        "                        lhs_id = desc[1]\n"
        "                        for did, dst in items:\n"
        "                            if did not in seen:\n"
        "                                seen.add(did)\n"
        "                                arefs = arith_refs(dst)\n"
        "                                rent = refs_bits_get(id(arefs))\n"
        "                                if rent is not None and rent[0] is arefs:\n"
        "                                    abits = rent[1]\n"
        "                                    if abits:\n"
        "                                        new, gain, landed = fadd_bits(lhs_id, abits)\n"
        "                                        if gain:\n"
        "                                            account(gain)\n"
        + e
        + "                                else:\n"
        "                                    add_refs_bits(lhs_id, arefs)\n"
    )
    return "".join(head) + "".join(body)


# ----------------------------------------------------------------------
# Compile cache.
# ----------------------------------------------------------------------

#: Shape -> generated source (generation cache).
_SOURCE_CACHE: Dict[Tuple[str, bool], str] = {}
#: Source text -> compiled drain function (the content-key cache: two
#: shapes that happen to generate identical source share a code object).
_COMPILED: Dict[str, Callable] = {}


def drain_key(eng) -> Tuple[str, bool]:
    """The specialization key for ``eng``: (policy name, windows shape).

    The policy name is the exact worklist class ("generic" for a policy
    the generator does not know, driven through its methods); the
    windows flag is whether the strategy can ever install byte windows
    (only the Offsets family defines ``canon_offset_ref``) — a static
    property, so a windows-free strategy gets a drain with the whole
    windows block elided rather than a dead runtime check.
    """
    wl = type(eng.worklist)
    if wl is PriorityWorklist:
        policy = "priority"
    elif wl is FifoWorklist:
        policy = "fifo"
    else:
        policy = "generic"
    return policy, hasattr(eng.strategy, "canon_offset_ref")


def compiled_drain(key: Tuple[str, bool]) -> Callable:
    """The compiled drain for a shape key (cached at both layers)."""
    src = _SOURCE_CACHE.get(key)
    if src is None:
        src = _SOURCE_CACHE[key] = generate_drain_source(*key)
    fn = _COMPILED.get(src)
    if fn is None:
        ns = {
            "heappop": heappop,
            "heappush": heappush,
            "OffsetRef": OffsetRef,
        }
        code = compile(
            src,
            f"<codegen-drain:{key[0]}:{'windows' if key[1] else 'plain'}>",
            "exec",
        )
        exec(code, ns)  # noqa: S102 - compiling our own generated source
        fn = _COMPILED[src] = ns["drain"]
    return fn


# ----------------------------------------------------------------------
# Descriptor dispatch for external callers (numpy fused rounds).
# ----------------------------------------------------------------------

def dispatch_novel(eng, entry, items) -> None:
    """Deliver decoded ``(ID, ref)`` items to one subscription entry,
    all known to be novel (absent from the entry's seen-set).

    The numpy backend's fused rounds compute novelty as a bitmask
    difference over the whole pending batch, so the per-item seen-set
    membership probe is already decided; this helper performs the same
    descriptor dispatch as the generated drains' jump table (identical
    counters, memo probes, and slow-path delegation), minus the probe.
    The seen-set is still updated — it stays the source of truth for
    every other drain variant.
    """
    seen = entry[0]
    desc = entry[2]
    stats = eng.stats
    strategy = eng.strategy
    if desc is None:
        cb = entry[1]
        for did, dst in items:
            seen.add(did)
            cb(eng, dst)
        return
    kind = desc[0]
    if kind == 4:
        _k, pkey, lhs_ref, lhs_type = desc
        resolve_done_get = eng._resolve_done.get
        for did, dst in items:
            seen.add(did)
            stats.rule4_firings += 1
            mkey = pkey | did if did < 2097152 else (pkey, did)
            ment = resolve_done_get(mkey)
            if ment is None:
                eng._resolve_install(pkey, lhs_ref, dst, lhs_type, dst)
            else:
                strategy.memo_resolve_hits += 1
                stats.resolve_calls += 1
                if ment[0]:
                    stats.resolve_struct_calls += 1
                    if ment[1]:
                        stats.resolve_mismatch_calls += 1
    elif kind == 5:
        _k, pkey, rhs_ref, tau_p = desc
        resolve_done_get = eng._resolve_done.get
        for did, dst in items:
            seen.add(did)
            stats.rule5_firings += 1
            mkey = pkey | did if did < 2097152 else (pkey, did)
            ment = resolve_done_get(mkey)
            if ment is None:
                eng._resolve_install(pkey, dst, rhs_ref, tau_p, dst)
            else:
                strategy.memo_resolve_hits += 1
                stats.resolve_calls += 1
                if ment[0]:
                    stats.resolve_struct_calls += 1
                    if ment[1]:
                        stats.resolve_mismatch_calls += 1
    elif kind == 2:
        _k, lhs_id, pkey, tau_p, path = desc
        lookup_bits_get = eng._lookup_bits.get
        facts = eng.facts
        account = eng._account
        enqueue = eng._enqueue
        for did, dst in items:
            seen.add(did)
            stats.rule2_firings += 1
            mkey = pkey | did if did < 2097152 else (pkey, did)
            ment = lookup_bits_get(mkey)
            if ment is None:
                eng._lookup_add_bits(lhs_id, pkey, tau_p, path, dst)
            else:
                strategy.memo_lookup_hits += 1
                stats.lookup_calls += 1
                if ment[1]:
                    stats.lookup_struct_calls += 1
                    if ment[2]:
                        stats.lookup_mismatch_calls += 1
                lbits = ment[0]
                if lbits:
                    new, gain, landed = facts.add_bits(lhs_id, lbits)
                    if gain:
                        account(gain)
                        enqueue(landed, new)
    else:  # kind == 6: pointer arithmetic, optimistic mode
        lhs_id = desc[1]
        arith_refs = strategy.arith_refs
        refs_bits_get = eng._refs_bits.get
        facts = eng.facts
        account = eng._account
        enqueue = eng._enqueue
        for did, dst in items:
            seen.add(did)
            arefs = arith_refs(dst)
            rent = refs_bits_get(id(arefs))
            if rent is not None and rent[0] is arefs:
                abits = rent[1]
                if abits:
                    new, gain, landed = facts.add_bits(lhs_id, abits)
                    if gain:
                        account(gain)
                        enqueue(landed, new)
            else:
                eng._add_refs_bits(lhs_id, arefs)


# ----------------------------------------------------------------------
# Backends.
# ----------------------------------------------------------------------

class CodegenBackend:
    """Propagation through the generated, shape-specialized drain.

    Holds the same per-engine frontier state as
    :class:`~repro.core.backend.DiffPropBackend` (the generated code
    embeds the identical difference-propagation logic); the compiled
    function itself is shared across engines via the module-level
    content-key cache.
    """

    name = "codegen"

    def __init__(self) -> None:
        self._edge_sent: Dict = {}
        self._win_sent: Dict = {}
        self._sub_sent: Dict = {}
        self._fn: Optional[Callable] = None

    def drain(self, eng) -> None:
        fn = self._fn
        if fn is None:
            # The shape (worklist class, strategy capability) is fixed
            # for an engine's lifetime, so resolve the specialization
            # once per backend instance (= once per engine).
            fn = self._fn = compiled_drain(drain_key(eng))
        fn(eng, self._edge_sent, self._win_sent, self._sub_sent)


_accel_module = None
_accel_checked = False


def load_accel():
    """The optionally built compiled drain module, or None.

    Probes ``repro.core._accel`` (built by ``tools/build_accel.py``)
    once and caches the outcome; a module with a mismatched
    ``ACCEL_API_VERSION`` is treated as absent, and only an
    ``ImportError`` means "not built": any other error raised while
    importing it propagates.  Tests monkeypatch this function to
    exercise both sides of the seam without a compiler.
    """
    global _accel_module, _accel_checked
    if not _accel_checked:
        mod = None
        try:
            from . import _accel as mod  # type: ignore[attr-defined] # noqa: PLC0415
        except ImportError:  # pragma: no cover - depends on a built module
            mod = None
        if mod is not None and getattr(
            mod, "ACCEL_API_VERSION", None
        ) != ACCEL_API_VERSION:  # pragma: no cover - stale build
            mod = None
        _accel_module = mod
        _accel_checked = True
    return _accel_module


class AccelBackend(CodegenBackend):
    """The accel seam: compiled drain module if built, codegen if not.

    The compiled module exports the same
    ``drain(eng, edge_sent, win_sent, sub_sent)`` entrypoint the
    generator emits (it *is* the generator's "generic"+windows superset
    output, compiled ahead of time), so the two paths are behaviorally
    interchangeable; ``stats.accel_active`` records which one ran.
    """

    name = "accel"

    def drain(self, eng) -> None:
        mod = load_accel()
        if mod is not None:
            eng.stats.accel_active = 1
            mod.drain(eng, self._edge_sent, self._win_sent, self._sub_sent)
            return
        super().drain(eng)
