"""The tunable heart of the framework: ``normalize`` / ``lookup`` / ``resolve``.

Paper §4.2: *"Our solution to the problems introduced by casting involves
using three auxiliary functions: normalize (for Problem 1), lookup (for
Problem 2), and resolve (for Problem 3).  It is the use of these functions
that gives us a framework for pointer analysis rather than a single
algorithm."*

A :class:`Strategy` bundles the three functions.  Four concrete strategies
are shipped, one per section of the paper:

=============================  =========  ==============================
class                          paper      module
=============================  =========  ==============================
:class:`CollapseAlways`        §4.3.1     ``repro.core.collapse_always``
:class:`CollapseOnCast`        §4.3.2     ``repro.core.collapse_on_cast``
:class:`CommonInitialSequence` §4.3.3     ``repro.core.common_initial_sequence``
:class:`Offsets`               §4.2.2     ``repro.core.offsets``
=============================  =========  ==============================

``lookup`` and ``resolve`` additionally report a :class:`CallInfo` so the
engine can reproduce Figure 3's instrumentation (fraction of calls that
involve structures; fraction of those where the declared and actual types
disagree, i.e. casting was involved).  Per paper footnote 7, strategies
that implement ``resolve`` *in terms of* ``lookup`` must not report the
inner lookup calls — they call the private ``_lookup`` entry point instead.

``resolve`` may return its pairs in either of two shapes:

- an explicit list of ``(dst_ref, src_ref)`` pairs (the portable
  strategies — the pair set is finite and fact-independent), or
- a :class:`Window` describing the byte range copied (the "Offsets"
  strategy, whose §4.2.2 definition conceptually pairs *every byte* of the
  window; the engine matches the window lazily against facts, which is an
  exact implementation of the same function).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ctype.layout import Layout
from ..ctype.types import CType, StructType
from ..ir.objects import AbstractObject
from ..ir.refs import FieldRef, OffsetRef, Ref

__all__ = ["CallInfo", "Window", "PairList", "ResolveResult", "Strategy"]


@dataclass(frozen=True, slots=True)
class CallInfo:
    """Instrumentation record for one lookup/resolve call (Figure 3).

    ``involved_struct`` — the call dealt with at least one structure type;
    ``mismatch`` — the declared type and the actual type disagreed, i.e.
    the call had to cope with casting.
    """

    involved_struct: bool = False
    mismatch: bool = False


@dataclass(frozen=True, slots=True)
class Window:
    """A byte-range copy: ``dst.offset+i  ←  src.offset+i`` for ``0 ≤ i < size``."""

    dst: OffsetRef
    src: OffsetRef
    size: int


PairList = List[Tuple[Ref, Ref]]
ResolveResult = Union[PairList, Window]

class Strategy(abc.ABC):
    """One instance of the framework: the three tunable functions.

    Subclasses must be stateless with respect to analysis facts (the same
    strategy object may be reused across programs); they may cache
    type-level computations.  Every memo table belongs to the instance,
    so it lives exactly as long as the strategy does: a strategy reused
    across programs keeps their types and objects alive until it is
    dropped.
    """

    #: Human-readable name, matching the paper's terminology.
    name: str = "?"
    #: Short identifier used in CLIs/benchmarks.
    key: str = "?"
    #: Whether results are safe for every ANSI-conforming layout.
    portable: bool = True

    def __init__(self, layout: Optional[Layout] = None) -> None:
        #: Layout engine; only the non-portable strategy consults it, but
        #: all strategies carry one so clients can ask layout questions.
        #: Without an explicit layout the strategy builds its own, so its
        #: per-record cache dies with the strategy.
        self.layout = layout or Layout()
        #: Named memo tables (see memo_table), owned by this instance.
        self._memo_tables: Dict[str, dict] = {}
        # Memo tables for cached_lookup/cached_resolve (traced solves,
        # the reference solver and provenance rendering; an untraced
        # engine asks its own fused memos instead).  Cache keys use
        # id(τ) and id(ref) — an int-tuple hash instead of structural
        # hashing; sound because refs reaching the engine's hot path are
        # canonical instances (see canon_ref) and every entry's value
        # pins the keyed objects alive against id reuse.  A non-canonical
        # ref merely misses the cache and recomputes.
        self._lookup_cache: dict = self.memo_table("lookup")
        self._resolve_cache: dict = self.memo_table("resolve")
        #: Canonical-instance table for normalized refs (see canon_ref).
        self._canon_refs: dict = self.memo_table("canon")
        # Memo for cached_all_refs; keyed id(obj), value pins the object.
        self._all_refs_cache: dict = self.memo_table("all_refs")
        # Memo instrumentation (surfaced by repro.obs.metrics): each
        # counts the memo that answered — these tables for the cached_*
        # entry points, the engine's fused lookup/resolve memos on an
        # untraced solve, where a strategy.lookup/resolve computation
        # counts as a miss.  Deliberately *not* part of EngineStats:
        # hit rates depend on what this instance solved before — they
        # are observability data, not gateable analysis results.
        self.memo_lookup_hits: int = 0
        self.memo_lookup_misses: int = 0
        self.memo_resolve_hits: int = 0
        self.memo_resolve_misses: int = 0
        self.memo_all_refs_hits: int = 0
        self.memo_all_refs_misses: int = 0

    def memo_table(self, name: str) -> dict:
        """This instance's memo dict called ``name`` (created on first use).

        Subclasses and the engine use this for their private caches too;
        ``name`` keeps the tables separate.  Only fact-independent
        (type/layout-level) computation may be stored here.
        """
        return self._memo_tables.setdefault(name, {})

    def canon_ref(self, ref: Ref) -> Ref:
        """The canonical instance of a normalized reference.

        Normalize paths construct the same logical reference over and
        over; routing the result through this table makes every equal
        ref *the same object*, so the fact base's interning dict (and
        every other ref-keyed lookup) hits the cached hash and the
        identity fast path instead of re-hashing fresh instances.
        """
        c = self._canon_refs.get(ref)
        if c is None:
            self._canon_refs[ref] = c = ref
        return c

    # ------------------------------------------------------------------
    # Memoized entry points (traced solves, reference solver, provenance).
    # ------------------------------------------------------------------
    def cached_lookup(
        self, tau: CType, alpha: Sequence[str], target: Ref
    ) -> Tuple[List[Ref], CallInfo]:
        """Memoized :meth:`lookup`.

        Strategies are stateless with respect to analysis facts, so a
        ``lookup`` result depends only on ``(τ, α, target)`` (plus the
        layout, fixed per instance) and can be cached for the lifetime of
        the strategy.  The cache sits *below* the engine's instrumentation
        boundary: the engine counts every call, hit or miss, so Figure 3
        percentages are unchanged.  Callers must not mutate the returned
        list.
        """
        key = (id(tau), tuple(alpha), id(target))
        hit = self._lookup_cache.get(key)
        if hit is None:
            self.memo_lookup_misses += 1
            hit = (tau, target, self.lookup(tau, alpha, target))
            self._lookup_cache[key] = hit
        else:
            self.memo_lookup_hits += 1
        return hit[2]

    def cached_resolve(
        self, dst: Ref, src: Ref, tau: CType
    ) -> Tuple["ResolveResult", CallInfo]:
        """Memoized :meth:`resolve`; same contract as :meth:`cached_lookup`."""
        key = (id(tau), id(dst), id(src))
        hit = self._resolve_cache.get(key)
        if hit is None:
            self.memo_resolve_misses += 1
            hit = (tau, dst, src, self.resolve(dst, src, tau))
            self._resolve_cache[key] = hit
        else:
            self.memo_resolve_hits += 1
        return hit[3]

    # ------------------------------------------------------------------
    # The three functions of the paper.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def normalize(self, ref: FieldRef) -> Ref:
        """Map ``obj.path`` to its canonical representative (paper §4.2)."""

    @abc.abstractmethod
    def lookup(
        self, tau: CType, alpha: Sequence[str], target: Ref
    ) -> Tuple[List[Ref], CallInfo]:
        """Fields actually referenced by a dereference (paper Problem 2).

        ``tau`` is the type the dereferenced pointer is *declared* to point
        to; ``alpha`` the field selector written in the program (may be
        empty); ``target`` the normalized reference the pointer *actually*
        points to.  Returns the set of normalized references that may be
        accessed, plus instrumentation.
        """

    @abc.abstractmethod
    def resolve(
        self, dst: Ref, src: Ref, tau: CType
    ) -> Tuple[ResolveResult, CallInfo]:
        """Match destination and source fields of a block copy (Problem 3).

        ``tau`` is the declared type of the assignment's left-hand side —
        the type that determines how many bytes are copied (Complication 4).
        """

    # ------------------------------------------------------------------
    # Auxiliary queries used by the engine.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def all_refs(self, obj: AbstractObject) -> List[Ref]:
        """Every normalized reference into ``obj``.

        Used for the Assumption-1 treatment of pointer arithmetic: the
        result of arithmetic on a pointer into ``obj`` may point to any of
        these (paper §4.2.1).
        """

    def cached_all_refs(self, obj: AbstractObject) -> List[Ref]:
        """Memoized :meth:`all_refs`.

        The ref set of an object is fixed for the strategy's lifetime
        (it depends only on the declared type and layout); pointer
        arithmetic re-requests it once per pointee.  Callers must not
        mutate the returned list.
        """
        key = id(obj)
        hit = self._all_refs_cache.get(key)
        if hit is None:
            self.memo_all_refs_misses += 1
            hit = (obj, self.all_refs(obj))
            self._all_refs_cache[key] = hit
        else:
            self.memo_all_refs_hits += 1
        return hit[1]

    def arith_refs(self, ref: Ref) -> List[Ref]:
        """Where arithmetic on a pointer to ``ref`` may land (Assumption 1).

        The default is the paper's treatment: any sub-field of the
        outermost object.  Refinements (e.g. the Wilson–Lam stride idea,
        :class:`repro.core.strided.StridedOffsets`) may narrow this when
        the pointee lies inside an array.
        """
        return self.cached_all_refs(ref.obj)

    def memo_counters(self) -> dict:
        """This instance's memo hit/miss counters (``repro.obs.metrics``)."""
        return {
            "lookup_memo_hits": self.memo_lookup_hits,
            "lookup_memo_misses": self.memo_lookup_misses,
            "resolve_memo_hits": self.memo_resolve_hits,
            "resolve_memo_misses": self.memo_resolve_misses,
            "all_refs_memo_hits": self.memo_all_refs_hits,
            "all_refs_memo_misses": self.memo_all_refs_misses,
        }

    # ------------------------------------------------------------------
    # Provenance rendering hooks (the explain CLI's interception point).
    # ------------------------------------------------------------------
    def describe_call(self, call) -> str:
        """One-line prose rendering of a recorded strategy call.

        ``call`` is a :class:`repro.obs.provenance.CallRecord` (duck-
        typed so core does not import obs).  The default wording is
        generic; each shipped instance overrides it with its own §4.3.x
        reasoning so a derivation tree says *why* this strategy produced
        these fields.
        """
        flags = []
        if call.involved_struct:
            flags.append("involved structures")
        if call.mismatch:
            flags.append("types did not match")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        if call.kind == "lookup":
            alpha, target = call.args
            sel = ".".join(alpha) if alpha else "ε"
            outs = ", ".join(repr(r) for r in call.out) if call.out else "∅"
            return (
                f"lookup(τ={call.tau}, α={sel}, {target!r}) = "
                f"{{{outs}}}{suffix}"
            )
        dst, src = call.args
        if isinstance(call.out, Window):
            w = call.out
            return (
                f"resolve({dst!r}, {src!r}, τ={call.tau}) = window "
                f"{w.dst!r} ← {w.src!r} ({w.size} bytes){suffix}"
            )
        pairs = ", ".join(f"{d!r}←{s!r}" for d, s in call.out) if call.out else "∅"
        return f"resolve({dst!r}, {src!r}, τ={call.tau}) = {{{pairs}}}{suffix}"

    def target_weight(self, ref: Ref) -> int:
        """How many per-field facts ``ref`` stands for in Figure 4's metric.

        1 for every strategy except Collapse Always, whose whole-structure
        facts are expanded to one fact per field for comparability (see the
        parenthetical in the paper's Figure 4 discussion).
        """
        return 1

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name})>"

    # Shared helper -----------------------------------------------------
    @staticmethod
    def _is_structy(t: CType) -> bool:
        return isinstance(t, StructType)
