"""Reference solver: the pre-interning engine, retained for differential testing.

This module preserves the PR-1 data plane — a :class:`ReferenceFactBase`
storing points-to sets as ``dict[Ref, set[Ref]]`` and a
:class:`ReferenceEngine` draining a FIFO worklist of per-source delta
batches with *no* ref interning and *no* copy-edge cycle collapsing.  It
computes the least fixpoint of the paper's inference rules by the most
direct route, which makes it the oracle for the production engine in
:mod:`repro.core.engine`: ``tests/test_differential_reference.py`` runs
both solvers over seeded random programs and asserts identical
``points_to`` sets for every reference.

The reference engine is *correct but slow*; nothing outside the test
suite should use it.  It shares the strategies, the interprocedural
layer, and :class:`~repro.core.engine.EngineStats` with the production
engine, so any divergence localizes to the data plane (interning,
bitsets, union-find collapsing) rather than to rule semantics.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..ctype.types import CType
from ..ir.objects import AbstractObject, ObjKind
from ..ir.program import Program
from ..ir.refs import FieldRef, OffsetRef, Ref
from ..ir.stmts import (
    AddrOf,
    Call,
    Copy,
    FieldAddr,
    Load,
    PtrArith,
    Stmt,
    Store,
    declared_pointee,
)
from .engine import AnalysisBudgetExceeded, Engine, EngineStats, Result, _WindowIndex
from .offsets import Offsets
from .strategy import Strategy, Window

__all__ = [
    "ReferenceFactBase",
    "ReferenceEngine",
    "reference_analyze",
    "traced_equals_untraced",
]

_EMPTY: frozenset = frozenset()

_Callback = Callable[..., None]  # cb(engine, pointee)


class ReferenceFactBase:
    """The PR-1 fact base: dict-of-sets keyed by ``Ref`` objects."""

    def __init__(self) -> None:
        self._succ: Dict[Ref, Set[Ref]] = {}
        self._by_obj: Dict[AbstractObject, Set[Ref]] = {}
        self._count = 0

    def add(self, src: Ref, dst: Ref) -> bool:
        targets = self._succ.get(src)
        if targets is None:
            targets = set()
            self._succ[src] = targets
            self._by_obj.setdefault(src.obj, set()).add(src)
        if dst in targets:
            return False
        targets.add(dst)
        self._count += 1
        return True

    def points_to(self, src: Ref) -> FrozenSet[Ref]:
        targets = self._succ.get(src)
        return frozenset(targets) if targets else _EMPTY

    def points_to_view(self, src: Ref):
        return self._succ.get(src, _EMPTY)

    def has(self, src: Ref, dst: Ref) -> bool:
        targets = self._succ.get(src)
        return targets is not None and dst in targets

    def refs_of_obj(self, obj: AbstractObject) -> FrozenSet[Ref]:
        refs = self._by_obj.get(obj)
        return frozenset(refs) if refs else _EMPTY

    def refs_of_obj_view(self, obj: AbstractObject):
        return self._by_obj.get(obj, _EMPTY)

    def sources(self) -> Iterator[Ref]:
        return iter(self._succ)

    def all_facts(self) -> Iterator[Tuple[Ref, Ref]]:
        for src, targets in self._succ.items():
            for dst in targets:
                yield src, dst

    def edge_count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"<ReferenceFactBase: {self._count} facts, {len(self._succ)} sources>"


class ReferenceEngine:
    """The PR-1 engine: FIFO delta batches over ``Ref``-keyed indexes."""

    def __init__(
        self,
        program: Program,
        strategy: Strategy,
        max_facts: int = 5_000_000,
        assume_valid_pointers: bool = True,
    ) -> None:
        self.program = program
        self.strategy = strategy
        self.max_facts = max_facts
        self.assume_valid_pointers = assume_valid_pointers
        self._unknown: Optional[AbstractObject] = None
        self.facts = ReferenceFactBase()
        self.stats = EngineStats()
        self._worklist: deque = deque()
        self._pending: Dict[Ref, List[Ref]] = {}
        self._copy_edges: Dict[Ref, List[Ref]] = {}
        self._edge_set: Set[Tuple[Ref, Ref]] = set()
        self._windows: Dict[AbstractObject, _WindowIndex] = {}
        self._window_set: Set[Tuple[AbstractObject, int, int, AbstractObject, int]] = set()
        self._subs: Dict[Ref, List[_Callback]] = {}
        self._bound: Set[Tuple[int, AbstractObject]] = set()
        self._norm_cache: Dict[AbstractObject, Ref] = {}
        from .interproc import SummaryRegistry

        self.summaries = SummaryRegistry.default()

    # ------------------------------------------------------------------
    def unknown_ref(self) -> Ref:
        if self._unknown is None:
            from ..ctype.types import void

            self._unknown = AbstractObject("<unknown>", void, ObjKind.GLOBAL)
        return self.norm_obj(self._unknown)

    def norm_obj(self, obj: AbstractObject) -> Ref:
        ref = self._norm_cache.get(obj)
        if ref is None:
            ref = self.strategy.normalize(FieldRef(obj, ()))
            self._norm_cache[obj] = ref
        return ref

    def norm_ref(self, ref: FieldRef) -> Ref:
        if not ref.path:
            return self.norm_obj(ref.obj)
        return self.strategy.normalize(ref)

    # ------------------------------------------------------------------
    def _lookup(self, tau: CType, alpha, target: Ref):
        refs, info = self.strategy.cached_lookup(tau, alpha, target)
        self.stats.lookup_calls += 1
        if info.involved_struct:
            self.stats.lookup_struct_calls += 1
            if info.mismatch:
                self.stats.lookup_mismatch_calls += 1
        return refs

    def _resolve(self, dst: Ref, src: Ref, tau: CType):
        res, info = self.strategy.cached_resolve(dst, src, tau)
        self.stats.resolve_calls += 1
        if info.involved_struct:
            self.stats.resolve_struct_calls += 1
            if info.mismatch:
                self.stats.resolve_mismatch_calls += 1
        return res

    # ------------------------------------------------------------------
    def add_fact(self, src: Ref, dst: Ref) -> None:
        if self.facts.add(src, dst):
            self.stats.facts += 1
            if self.stats.facts > self.max_facts:
                raise AnalysisBudgetExceeded(
                    f"more than {self.max_facts} facts; aborting"
                )
            pending = self._pending.get(src)
            if pending is None:
                self._pending[src] = [dst]
                self._worklist.append(src)
            else:
                pending.append(dst)

    def install_copy_edge(self, src: Ref, dst: Ref) -> None:
        if src == dst:
            return
        key = (src, dst)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.stats.copy_edges += 1
        self._copy_edges.setdefault(src, []).append(dst)
        for tgt in self.facts.points_to_view(src):
            self.add_fact(dst, tgt)

    def install_window(self, w: Window) -> None:
        key = (w.src.obj, w.src.offset, w.size, w.dst.obj, w.dst.offset)
        if key in self._window_set:
            return
        self._window_set.add(key)
        self.stats.windows += 1
        index = self._windows.get(w.src.obj)
        if index is None:
            index = self._windows[w.src.obj] = _WindowIndex()
        index.insert(w.src.offset, w.size, w.dst.obj, w.dst.offset)
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
        for tgt in self.facts.points_to_view(src_ref):
            self.add_fact(dst_ref, tgt)

    def install_resolve_result(self, res) -> None:
        if isinstance(res, Window):
            self.install_window(res)
        else:
            for dst, src in res:
                self.install_copy_edge(src, dst)

    def subscribe(self, ptr_ref: Ref, cb: _Callback) -> None:
        # Same calling convention as Engine.subscribe: cb(engine, pointee).
        seen: Set[Ref] = set()

        def wrapped(eng, tgt: Ref) -> None:
            if tgt not in seen:
                seen.add(tgt)
                cb(eng, tgt)

        self._subs.setdefault(ptr_ref, []).append(wrapped)
        for tgt in tuple(self.facts.points_to_view(ptr_ref)):
            wrapped(self, tgt)

    def cross_subscribe(
        self, a_ref: Ref, b_ref: Ref, fn: Callable[..., None]
    ) -> None:
        a_seen: List[Ref] = []
        b_seen: List[Ref] = []

        def on_a(eng, t: Ref) -> None:
            a_seen.append(t)
            for u in list(b_seen):
                fn(eng, t, u)

        def on_b(eng, u: Ref) -> None:
            b_seen.append(u)
            for t in list(a_seen):
                fn(eng, t, u)

        self.subscribe(a_ref, on_a)
        self.subscribe(b_ref, on_b)

    # ------------------------------------------------------------------
    def _setup_stmt(self, st: Stmt) -> None:
        # Rule-firing counters mirror Engine._setup_stmt exactly (same
        # granularity, same placement); the differential test compares
        # them field-for-field.
        if isinstance(st, AddrOf):
            self.stats.rule1_firings += 1
            self.add_fact(self.norm_obj(st.lhs), self.norm_ref(st.target))
        elif isinstance(st, FieldAddr):
            tau_p = declared_pointee(st.ptr)
            lhs_ref = self.norm_obj(st.lhs)

            def on_pointee(eng, tgt: Ref, tau_p=tau_p, path=st.path,
                           lhs_ref=lhs_ref) -> None:
                eng.stats.rule2_firings += 1
                for r in eng._lookup(tau_p, path, tgt):
                    eng.add_fact(lhs_ref, r)

            self.subscribe(self.norm_obj(st.ptr), on_pointee)
        elif isinstance(st, Copy):
            self.stats.rule3_firings += 1
            res = self._resolve(self.norm_obj(st.lhs), self.norm_ref(st.rhs), st.lhs.type)
            self.install_resolve_result(res)
        elif isinstance(st, Load):
            lhs_ref = self.norm_obj(st.lhs)
            lhs_type = st.lhs.type

            def on_pointee(eng, tgt: Ref, lhs_ref=lhs_ref, lhs_type=lhs_type) -> None:
                eng.stats.rule4_firings += 1
                eng.install_resolve_result(eng._resolve(lhs_ref, tgt, lhs_type))

            self.subscribe(self.norm_obj(st.ptr), on_pointee)
        elif isinstance(st, Store):
            tau_p = declared_pointee(st.ptr)
            rhs_ref = self.norm_obj(st.rhs)

            def on_pointee(eng, tgt: Ref, tau_p=tau_p, rhs_ref=rhs_ref) -> None:
                eng.stats.rule5_firings += 1
                eng.install_resolve_result(eng._resolve(tgt, rhs_ref, tau_p))

            self.subscribe(self.norm_obj(st.ptr), on_pointee)
        elif isinstance(st, PtrArith):
            lhs_ref = self.norm_obj(st.lhs)
            for op in st.operands:
                def on_pointee(eng, tgt: Ref, lhs_ref=lhs_ref) -> None:
                    if not eng.assume_valid_pointers:
                        eng.add_fact(lhs_ref, eng.unknown_ref())
                        return
                    for r in eng.strategy.arith_refs(tgt):
                        eng.add_fact(lhs_ref, r)

                self.subscribe(self.norm_obj(op), on_pointee)
        elif isinstance(st, Call):
            if st.indirect:
                def on_pointee(eng, tgt: Ref, st=st) -> None:
                    if tgt.obj.kind is ObjKind.FUNCTION and eng._is_object_start(tgt):
                        eng._bind_call(st, tgt.obj)

                self.subscribe(self.norm_obj(st.callee), on_pointee)
            else:
                self._bind_call(st, st.callee)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {st!r}")

    @staticmethod
    def _is_object_start(ref: Ref) -> bool:
        if isinstance(ref, OffsetRef):
            return ref.offset == 0
        return ref.path == ()

    # ------------------------------------------------------------------
    def _bind_call(self, call: Call, fobj: AbstractObject) -> None:
        key = (id(call), fobj)
        if key in self._bound:
            return
        self._bound.add(key)
        self.stats.calls_bound += 1
        info = self.program.function_for_object(fobj)
        if info is None:
            self.summaries.apply(self, call, fobj.name)
            return
        for i, arg in enumerate(call.args):
            if i < len(info.params):
                param = info.params[i]
                res = self._resolve(self.norm_obj(param), self.norm_obj(arg), param.type)
                self.install_resolve_result(res)
            elif info.vararg is not None:
                self.install_copy_edge(self.norm_obj(arg), self.norm_obj(info.vararg))
        if call.lhs is not None and info.retval is not None:
            res = self._resolve(
                self.norm_obj(call.lhs), self.norm_obj(info.retval), call.lhs.type
            )
            self.install_resolve_result(res)

    # ------------------------------------------------------------------
    def drain(self) -> None:
        worklist = self._worklist
        pending = self._pending
        copy_edges = self._copy_edges
        windows = self._windows
        subs = self._subs
        add_fact = self.add_fact
        while worklist:
            src = worklist.popleft()
            delta = pending.pop(src, None)
            if not delta:
                continue
            edges = copy_edges.get(src)
            if edges:
                for edge_dst in edges:
                    for dst in delta:
                        add_fact(edge_dst, dst)
            if type(src) is OffsetRef:
                index = windows.get(src.obj)
                if index is not None:
                    off = src.offset
                    canon = self.strategy.canon_offset_ref  # type: ignore[attr-defined]
                    for lo, dobj, dbase in index.matches(off):
                        dref = canon(OffsetRef(dobj, dbase + (off - lo)))
                        if dref is not None:
                            for dst in delta:
                                add_fact(dref, dst)
            cbs = subs.get(src)
            if cbs:
                for cb in cbs:
                    for dst in delta:
                        cb(self, dst)

    def solve(self) -> Result:
        t0 = time.perf_counter()
        for st in self.program.all_stmts():
            self._setup_stmt(st)
        self.drain()
        self.stats.solve_seconds = time.perf_counter() - t0
        return Result(self.program, self.strategy, self.facts, self.stats)


def reference_analyze(program: Program, strategy: Strategy, **kwargs) -> Result:
    """Run the reference solver to fixpoint (differential-test oracle)."""
    return ReferenceEngine(program, strategy, **kwargs).solve()


def traced_equals_untraced(
    program: Program, strategy: Strategy, **kwargs
) -> Tuple[Result, Result]:
    """Run the production engine untraced and traced and assert parity.

    Tracing must not perturb the analysis: it turns off online cycle
    collapsing (a pure optimization) and records provenance on the side,
    so both runs must reach the same least fixpoint with identical
    logical facts and identical gateable stats.  Raises
    ``AssertionError`` on any divergence; returns ``(untraced, traced)``
    so callers can inspect the tracer.
    """
    untraced = Engine(program, strategy, **kwargs).solve()
    traced = Engine(program, strategy, trace=True, **kwargs).solve()
    uf = set(untraced.facts.all_facts())
    tf = set(traced.facts.all_facts())
    assert uf == tf, (
        f"traced/untraced fact divergence: {len(uf ^ tf)} facts differ "
        f"(only-untraced={sorted(map(repr, uf - tf))[:5]}, "
        f"only-traced={sorted(map(repr, tf - uf))[:5]})"
    )
    skip = {"solve_seconds", "sccs_collapsed", "props_saved"}
    us = {k: v for k, v in untraced.stats.as_dict().items() if k not in skip}
    ts = {k: v for k, v in traced.stats.as_dict().items() if k not in skip}
    assert us == ts, f"traced/untraced stats divergence: {us} != {ts}"
    return untraced, traced
