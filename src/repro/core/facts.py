"""The points-to fact base, on an interned-integer data plane.

A fact ``pointsTo(x, y)`` records that the location named by normalized
reference ``x`` may hold the address of the location named by normalized
reference ``y`` (paper §3; under the "Offsets" instance, "the value stored
at offset j in s may be the address of t plus k", §4.2.2).

Representation
--------------

Every distinct normalized :class:`~repro.ir.refs.Ref` is *interned* to a
small dense integer (its **ref ID**, assigned in first-touch discovery
order).  Points-to sets are stored as Python-int **bitsets** over target
IDs: membership is one ``&``, union is one ``|``, and a propagation delta
is ``new & ~old`` — all single C-level big-int operations instead of
per-element hash-set traffic.

Source IDs additionally live in a **union-find** forest: the engine's
online cycle collapsing (:mod:`repro.core.engine`) merges the sources of
a copy-edge cycle into one equivalence class, after which the class's
points-to set is stored once, on the representative.  This is sound and
precision-preserving because every member of a copy-edge SCC provably
holds the *same* set at the least fixpoint; merging merely reaches that
shared set without propagating around the cycle edge by edge.  The
logical per-reference facts are preserved exactly: a set bit on a
representative counts once **per member**, so :meth:`edge_count` (the
paper's "number of points-to edges", Figure 6) is identical to the
uncollapsed count and is maintained incrementally in O(1).

Two access layers
-----------------

The public, ``Ref``-keyed API (``add``/``points_to``/``has``/
``refs_of_obj``/``all_facts``) is unchanged from the dict-of-sets
implementation — translation between ``Ref`` objects and IDs happens at
this boundary, so clients, tests, and :class:`~repro.core.engine.Result`
never see an ID.  The engine's hot loops use the ID layer
(:meth:`intern`, :meth:`add_id`, :meth:`add_bits`, :meth:`pts_bits`,
:meth:`union`, :meth:`decode`) and never allocate per-fact objects.

The pre-interning implementation is retained verbatim as
:class:`repro.core.reference.ReferenceFactBase` and is differentially
tested against this one over seeded random programs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..ir.objects import AbstractObject
from ..ir.refs import Ref

__all__ = ["FactBase"]

_EMPTY: frozenset = frozenset()


class FactBase:
    """Set of ``pointsTo`` facts with the indices the engine needs."""

    __slots__ = (
        "_ids",
        "_refs",
        "_pts",
        "_parent",
        "_members",
        "_by_obj",
        "_registered",
        "_count",
        "_token",
        "__weakref__",
    )

    def __init__(self) -> None:
        #: Ref -> ID (the interning table).
        self._ids: Dict[Ref, int] = {}
        #: ID -> Ref (decode table; index is the discovery order).
        self._refs: List[Ref] = []
        #: representative ID -> bitset of target IDs (0 for non-reps).
        self._pts: List[int] = []
        #: union-find parent pointers (path-compressed).
        self._parent: List[int] = []
        #: representative ID -> member IDs (small classes merged into large).
        self._members: List[List[int]] = []
        #: object -> member refs with a non-empty points-to set.
        self._by_obj: Dict[AbstractObject, Set[Ref]] = {}
        #: ID -> already present in ``_by_obj``.
        self._registered: List[bool] = []
        #: total logical facts (one per member per set bit); O(1) queries.
        self._count = 0
        #: This fact base's identity in the refs' ``_fb`` slots (see
        #: :meth:`intern`).  A plain token rather than ``self``: a ref
        #: pointing back at the fact base that lists it would be a
        #: reference cycle, and only the cyclic collector could free it.
        self._token = object()

    # ------------------------------------------------------------------
    # The ID layer (engine hot path).
    # ------------------------------------------------------------------
    def intern(self, ref: Ref) -> int:
        """The dense ID of ``ref``, assigning the next one on first touch.

        The ID is cached on the ref instance itself (``_fb``/``_id``
        slots): refs are canonicalized per strategy, so the same instance
        is interned over and over, and two attribute loads beat a dict
        probe (which must hash).  The cache is validated against this
        fact base's :attr:`_token` — a canonical ref outliving one engine
        run re-interns cleanly in the next, and holds no reference to the
        fact base that interned it.
        """
        token = self._token
        try:
            if ref._fb is token:
                return ref._id
        except AttributeError:
            pass
        rid = self._ids.get(ref)
        if rid is None:
            rid = len(self._refs)
            self._ids[ref] = rid
            self._refs.append(ref)
            self._pts.append(0)
            self._parent.append(rid)
            self._members.append([rid])
            self._registered.append(False)
        ref._fb = token
        ref._id = rid
        return rid

    def id_of(self, ref: Ref) -> Optional[int]:
        """The ID of ``ref`` if already interned (query path; no assign)."""
        return self._ids.get(ref)

    def ref_of(self, rid: int) -> Ref:
        return self._refs[rid]

    def find(self, rid: int) -> int:
        """Union-find representative of ``rid`` (path-compressed)."""
        parent = self._parent
        root = rid
        while parent[root] != root:
            root = parent[root]
        while parent[rid] != root:
            parent[rid], rid = root, parent[rid]
        return root

    def members_of(self, rid: int) -> List[int]:
        """All IDs merged into ``rid``'s class (including itself)."""
        return self._members[self.find(rid)]

    def class_size(self, rid: int) -> int:
        return len(self._members[self.find(rid)])

    def pts_bits(self, rid: int) -> int:
        """The points-to bitset of ``rid``'s class."""
        return self._pts[self.find(rid)]

    def add_id(self, src_id: int, dst_id: int) -> Tuple[int, int]:
        """Record ``pointsTo(src, dst)`` at the ID layer.

        Returns ``(gain, rep)``: the number of new logical facts (0 for a
        duplicate, else the class size of ``src``) and the representative
        the bit landed on.
        """
        parent = self._parent
        rep = parent[src_id]
        if parent[rep] != rep:
            rep = self.find(rep)
        bit = 1 << dst_id
        cur = self._pts[rep]
        if cur & bit:
            return 0, rep
        self._pts[rep] = cur | bit
        gain = len(self._members[rep])
        self._count += gain
        if not cur:
            self._register(rep)
        return gain, rep

    def add_bits(self, src_id: int, bits: int) -> Tuple[int, int, int]:
        """Union a whole delta bitset into ``src``'s set.

        Returns ``(new_bits, gain, rep)`` where ``new_bits`` is the part
        of ``bits`` that was actually new (``bits & ~old``).
        """
        parent = self._parent
        rep = parent[src_id]
        if parent[rep] != rep:
            rep = self.find(rep)
        cur = self._pts[rep]
        new = bits & ~cur
        if not new:
            return 0, 0, rep
        self._pts[rep] = cur | new
        gain = new.bit_count() * len(self._members[rep])
        self._count += gain
        if not cur:
            self._register(rep)
        return new, gain, rep

    def union(self, a: int, b: int) -> Tuple[int, int, int, int]:
        """Merge the classes of ``a`` and ``b`` (copy-edge SCC collapse).

        Returns ``(rep, dead, gain, fresh)``: the surviving and absorbed
        representatives, the number of logical facts gained (each side's
        members acquire the other side's bits), and the ``fresh`` bitset
        of targets new to at least one side — the delta the engine must
        re-deliver to the merged class's subscribers and edges.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra, ra, 0, 0
        members = self._members
        ma, mb = members[ra], members[rb]
        if len(ma) < len(mb):
            ra, rb, ma, mb = rb, ra, mb, ma
        pts = self._pts
        set_a, set_b = pts[ra], pts[rb]
        merged = set_a | set_b
        gain = (
            (merged & ~set_a).bit_count() * len(ma)
            + (merged & ~set_b).bit_count() * len(mb)
        )
        pts[ra] = merged
        pts[rb] = 0
        self._parent[rb] = ra
        ma.extend(mb)
        members[rb] = []
        self._count += gain
        if merged:
            self._register(ra)
        return ra, rb, gain, merged ^ (set_a & set_b)

    def decode(self, bits: int) -> List[Ref]:
        """The refs named by a bitset, in ascending-ID order."""
        refs = self._refs
        out: List[Ref] = []
        while bits:
            low = bits & -bits
            out.append(refs[low.bit_length() - 1])
            bits ^= low
        return out

    def decode_items(self, bits: int) -> List[Tuple[int, Ref]]:
        """``(ID, ref)`` pairs named by a bitset, in ascending-ID order.

        The subscription machinery keys its seen-sets on interned IDs
        (one per logical ref), so the drains decode IDs and refs in one
        pass instead of re-deriving the ID from the instance.
        """
        refs = self._refs
        out: List[Tuple[int, Ref]] = []
        while bits:
            low = bits & -bits
            rid = low.bit_length() - 1
            out.append((rid, refs[rid]))
            bits ^= low
        return out

    def _register(self, rep: int) -> None:
        """Index every member of a now-non-empty class in ``_by_obj``."""
        registered = self._registered
        refs = self._refs
        by_obj = self._by_obj
        for m in self._members[rep]:
            if not registered[m]:
                registered[m] = True
                ref = refs[m]
                bucket = by_obj.get(ref.obj)
                if bucket is None:
                    by_obj[ref.obj] = bucket = set()
                bucket.add(ref)

    # ------------------------------------------------------------------
    # The Ref-keyed public API (clients, tests, Result boundary).
    # ------------------------------------------------------------------
    def add(self, src: Ref, dst: Ref) -> bool:
        """Record ``pointsTo(src, dst)``; True if the fact is new."""
        gain, _rep = self.add_id(self.intern(src), self.intern(dst))
        return gain > 0

    def points_to(self, src: Ref) -> FrozenSet[Ref]:
        """The current points-to set of ``src`` (empty if none).

        Returns an immutable copy, safe to hold across further ``add``
        calls; the engine's hot loops use the bitset layer instead.
        """
        rid = self._ids.get(src)
        if rid is None:
            return _EMPTY
        bits = self._pts[self.find(rid)]
        return frozenset(self.decode(bits)) if bits else _EMPTY

    def points_to_view(self, src: Ref):
        """Decoded snapshot of ``src``'s points-to set.

        Kept for API compatibility with the dict-of-sets fact base; under
        the bitset representation this is a frozenset decoded on demand
        (bit-level readers use :meth:`pts_bits`).
        """
        return self.points_to(src)

    def has(self, src: Ref, dst: Ref) -> bool:
        sid = self._ids.get(src)
        if sid is None:
            return False
        did = self._ids.get(dst)
        if did is None:
            return False
        return bool(self._pts[self.find(sid)] >> did & 1)

    # ------------------------------------------------------------------
    def refs_of_obj(self, obj: AbstractObject) -> FrozenSet[Ref]:
        """All source references into ``obj`` that currently hold facts."""
        refs = self._by_obj.get(obj)
        return frozenset(refs) if refs else _EMPTY

    def refs_of_obj_view(self, obj: AbstractObject):
        """Allocation-free view of ``obj``'s source references (live set)."""
        return self._by_obj.get(obj, _EMPTY)

    def sources(self) -> Iterator[Ref]:
        """All references with a non-empty points-to set (discovery order)."""
        refs = self._refs
        return (refs[i] for i, reg in enumerate(self._registered) if reg)

    def all_facts(self) -> Iterator[Tuple[Ref, Ref]]:
        refs = self._refs
        registered = self._registered
        for rid in range(len(refs)):
            if registered[rid]:
                src = refs[rid]
                for dst in self.decode(self._pts[self.find(rid)]):
                    yield src, dst

    # ------------------------------------------------------------------
    def num_refs(self) -> int:
        """How many distinct references have been interned so far."""
        return len(self._refs)

    def edge_count(self) -> int:
        """Total number of points-to facts (Figure 6's metric); O(1)."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        n_sources = sum(1 for reg in self._registered if reg)
        return f"<FactBase: {self._count} facts, {n_sources} sources>"

    # ------------------------------------------------------------------
    def pretty(self, limit: int = 0) -> str:
        """Human-readable dump, sorted for reproducibility."""
        lines: List[str] = []
        for src in sorted(self.sources(), key=repr):
            targets = ", ".join(sorted(map(repr, self.points_to(src))))
            lines.append(f"{src!r} -> {{{targets}}}")
            if limit and len(lines) >= limit:
                lines.append("...")
                break
        return "\n".join(lines)
