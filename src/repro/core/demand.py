"""Demand-driven solving: the fixpoint restricted to what a query needs.

The exhaustive engine (:meth:`Engine.solve`) installs every statement
and drains to the least fixpoint of the whole program.  Most clients ask
about a handful of pointers; this module computes only the facts those
queries *transitively demand*, by walking the Figure-2 rules backwards
from the query set and installing just the statements the backward
closure reaches.

Soundness argument
------------------

Let ``All`` be the program's statement set and ``S ⊆ All`` the installed
subset.  The Figure-2 rules are monotone, so ``fix(S) ⊆ fix(All)``
pointwise for every reference.  The demand closure maintains one
invariant: **for every demanded top-level object ``o``, every statement
that can write a fact into a reference of ``o`` is installed, and every
object those statements read from is itself demanded.**  Under that
invariant a straightforward induction over derivations shows
``fix(S)(r) = fix(All)(r)`` for every reference ``r`` of a demanded
object: any exhaustive derivation of a fact on ``r`` uses only
statements in ``S`` applied to references of demanded objects.  Since
demanding *more* objects only grows ``S``, over-demanding is always
safe — the limit case (demand everything) is exactly the exhaustive
solve.  The differential test suite asserts the restricted equality over
every benchmark program, all four strategies, strict and lenient.

Per-rule backward dependencies (``st`` installs iff a demanded object
can receive a fact from it; installing demands the sources):

========== ==================================== =======================
form       installs when                        then demands
========== ==================================== =======================
AddrOf     ``lhs`` demanded                     (nothing — the target
                                                is data, not a source)
Copy       ``lhs`` demanded                     ``rhs.obj``
Load       ``lhs`` demanded                     ``ptr``, and every
                                                current pointee object
                                                of ``ptr`` (re-checked
                                                as its set grows)
FieldAddr  ``lhs`` demanded                     ``ptr``
PtrArith   ``lhs`` demanded                     every operand
Store      some pointee object of ``ptr`` is    ``rhs`` (``ptr`` is
           demanded (dynamic — every store      demanded up front)
           pointer is demanded up front so its
           set is exact when checked)
Call       a parameter / vararg / ``lhs`` of    the matching arguments,
(defined)  the callee is demanded               the callee's retval
Call       ``lhs`` demanded, or a pointee of    pointee objects of every
(extern)   an argument is demanded (args are    argument (dynamic)
           demanded up front)
Call       —                                    **widening**
(indirect)
========== ==================================== =======================

Widening
--------

Two shapes escape the demanded fragment and *widen* to the exhaustive
engine (install every remaining statement, drain once, count
``demand_widenings``):

- **function pointers** — an indirect call, or a demanded object that is
  a parameter / retval / vararg of an *address-taken* defined function
  (an unknown binding — including a library summary handing the function
  pointers, e.g. a ``qsort`` comparator — may write into it under
  Assumption 1's conservative call treatment);
- **havoc objects** — a demanded lenient-mode havoc object
  (``f::$havoc``) or the pessimistic ``<unknown>`` value: their sets are
  fed by degradation machinery rather than ordinary assignment forms.

A widened demand solve *is* the exhaustive fixpoint (every statement is
installed), so callers may cache it as a complete result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Union

from ..diag import DiagnosticSink
from ..ir.objects import AbstractObject, ObjKind
from ..ir.program import Program
from ..ir.refs import FieldRef, Ref
from ..ir.stmts import (
    AddrOf,
    Call,
    Copy,
    FieldAddr,
    Load,
    PtrArith,
    Stmt,
    Store,
)
from .engine import Engine, Result, no_cyclic_gc
from .rules import setup_stmt
from .strategy import Strategy
from .worklist import Worklist

__all__ = ["DemandResult", "solve_demand", "query_refs"]

#: What callers may pass as one query: a top-level object (meaning the
#: whole object), or an already-built reference.
Query = Union[AbstractObject, Ref]


def query_refs(program: Program, queries: Iterable[Query]) -> List[Ref]:
    """Normalize a query set to references (objects become whole-object
    refs).  Raises ``KeyError`` for an object not in ``program``."""
    refs: List[Ref] = []
    for q in queries:
        if isinstance(q, AbstractObject):
            if program.objects.lookup(q.name) is not q:
                raise KeyError(f"object {q.name!r} is not part of {program.name}")
            refs.append(FieldRef(q, ()))
        else:
            refs.append(q)
    return refs


@dataclass
class DemandResult:
    """A :class:`Result` whose sets are exact for the demanded objects
    (and subsets of the exhaustive sets everywhere else)."""

    result: Result
    #: Top-level objects whose points-to sets are exact.
    demanded: frozenset
    #: Statements installed (== the program's statement count if widened).
    installed: int
    #: True when the solve widened to the exhaustive engine.
    widened: bool
    #: Where the fixpoint came from: ``"demand"`` (this module's demand
    #: solve), or, for :meth:`repro.session.AnalysisSession.solve_demand`,
    #: ``"cache"``, ``"store"`` or ``"solve"`` (the session's exhaustive
    #: fixpoint: held, loaded, or freshly solved).
    source: str = "demand"

    @property
    def facts(self):
        return self.result.facts

    @property
    def stats(self):
        return self.result.stats

    def points_to(self, what):
        return self.result.points_to(what)

    def points_to_names(self, what):
        return self.result.points_to_names(what)


def _address_taken_escapes(program: Program) -> Set[AbstractObject]:
    """Objects an unknown call binding may write into: parameters,
    retvals, and varargs of every address-taken defined function (same
    approximation as :func:`repro.core.modular.approximate_callgraph`)."""
    taken: Set[str] = set()
    for st in program.all_stmts():
        if isinstance(st, AddrOf):
            obj = st.target.obj
        elif isinstance(st, Copy):
            obj = st.rhs.obj
        else:
            continue
        if obj.is_function and obj.name in program.functions:
            taken.add(obj.name)
    escapes: Set[AbstractObject] = set()
    for name in taken:
        info = program.functions[name]
        escapes.update(info.params)
        if info.retval is not None:
            escapes.add(info.retval)
        if info.vararg is not None:
            escapes.add(info.vararg)
    return escapes


def solve_demand(
    program: Program,
    strategy: Strategy,
    queries: Iterable[Query],
    *,
    max_facts: int = 5_000_000,
    assume_valid_pointers: bool = True,
    worklist: Union[str, Worklist] = "priority",
    backend=None,
    diagnostics: Optional[DiagnosticSink] = None,
) -> DemandResult:
    """Solve only the fragment of ``program`` demanded by ``queries``.

    Returns a :class:`DemandResult`; its ``result.points_to`` is exact
    for every queried reference (differentially tested against the
    exhaustive fixpoint).  Widens — installs everything — when a query
    escapes the demanded fragment (see the module docstring).
    """
    refs = query_refs(program, queries)
    engine = Engine(
        program,
        strategy,
        max_facts=max_facts,
        assume_valid_pointers=assume_valid_pointers,
        worklist=worklist,
        backend=backend,
        diagnostics=diagnostics,
    )
    t0 = time.perf_counter()

    escapes = _address_taken_escapes(program)
    all_stmts: List[Stmt] = list(program.all_stmts())

    installed: Set[int] = set()          # id(stmt)
    demanded: Set[AbstractObject] = set()
    frontier: List[AbstractObject] = []  # newly demanded, to process
    widen = False

    # Indexes: which statements can write into a given top-level object.
    writers: dict = {}

    def _writer(obj: AbstractObject, st: Stmt) -> None:
        writers.setdefault(obj, []).append(st)

    stores: List[Store] = []
    extern_calls: List[Call] = []
    dyn_loads: List[Load] = []           # installed loads (pointee demand)
    dyn_calls: List[tuple] = []          # (call, info) direct defined calls
    dyn_externs: List[Call] = []         # installed extern calls

    for st in all_stmts:
        if isinstance(st, (AddrOf, Copy, Load, FieldAddr, PtrArith)):
            _writer(st.lhs, st)
        elif isinstance(st, Store):
            stores.append(st)
        elif isinstance(st, Call):
            if st.indirect:
                # Unknown binding: any demand that reaches it widens via
                # `escapes`; the call's own lhs still indexes it so a
                # query on the lhs finds the widening trigger.
                if st.lhs is not None:
                    _writer(st.lhs, st)
                continue
            info = program.function_for_object(st.callee)
            if info is None:
                extern_calls.append(st)
                if st.lhs is not None:
                    _writer(st.lhs, st)
            else:
                for p in info.params:
                    _writer(p, st)
                if info.vararg is not None:
                    _writer(info.vararg, st)
                if st.lhs is not None:
                    _writer(st.lhs, st)

    def demand(obj: AbstractObject) -> None:
        if obj in demanded:
            return
        demanded.add(obj)
        frontier.append(obj)

    def install(st: Stmt) -> bool:
        if id(st) in installed:
            return False
        installed.add(id(st))
        setup_stmt(engine, st)
        return True

    def try_install(st: Stmt) -> None:
        nonlocal widen
        if id(st) in installed:
            return
        if isinstance(st, AddrOf):
            install(st)
        elif isinstance(st, Copy):
            install(st)
            demand(st.rhs.obj)
        elif isinstance(st, Load):
            install(st)
            demand(st.ptr)
            dyn_loads.append(st)
        elif isinstance(st, FieldAddr):
            install(st)
            demand(st.ptr)
        elif isinstance(st, PtrArith):
            install(st)
            for op in st.operands:
                demand(op)
        elif isinstance(st, Call):
            if st.indirect:
                widen = True
                return
            info = program.function_for_object(st.callee)
            if info is None:
                install(st)
                dyn_externs.append(st)
                if st.lhs is not None:
                    demand(st.lhs)
            else:
                install(st)
                dyn_calls.append((st, info))

    def pointee_objs(obj: AbstractObject) -> List[AbstractObject]:
        facts = engine.facts
        ref = engine.norm_obj(obj)
        bits = facts.pts_bits(facts.intern(ref))
        return [t.obj for t in facts.decode(bits)] if bits else []

    # Seed the closure.  Every store pointer and extern-call argument is
    # demanded up front so the *dynamic* install conditions below read
    # exact sets (a store writes through its pointer; a summary reads
    # and writes through its arguments).
    for r in refs:
        demand(r.obj)
    for st in stores:
        demand(st.ptr)
    for c in extern_calls:
        for a in c.args:
            demand(a)

    # Round until nothing changes: process newly demanded objects, then
    # the dynamic conditions (which read points-to sets), then drain.
    # The cyclic collector stays paused throughout (see no_cyclic_gc).
    with no_cyclic_gc():
        while True:
            changed = False
            while frontier and not widen:
                obj = frontier.pop()
                changed = True
                if (obj in escapes or obj.name.endswith("::$havoc")
                        or obj.name == "<unknown>"):
                    widen = True
                    break
                for st in writers.get(obj, ()):
                    try_install(st)
            if widen:
                break
            # Dynamic conditions, re-evaluated against the current sets.
            for st in stores:
                if id(st) not in installed and any(
                    t in demanded for t in pointee_objs(st.ptr)
                ):
                    install(st)
                    demand(st.rhs)
                    changed = True
            for st in dyn_loads:
                for t in pointee_objs(st.ptr):
                    if t not in demanded:
                        demand(t)
                        changed = True
            for st in dyn_externs:
                for a in st.args:
                    for t in pointee_objs(a):
                        if t not in demanded:
                            demand(t)
                            changed = True
            for call, info in dyn_calls:
                for i, arg in enumerate(call.args):
                    if i < len(info.params):
                        if info.params[i] in demanded and arg not in demanded:
                            demand(arg)
                            changed = True
                    elif info.vararg is not None and info.vararg in demanded:
                        if arg not in demanded:
                            demand(arg)
                            changed = True
                if call.lhs is not None and info.retval is not None:
                    if call.lhs in demanded and info.retval not in demanded:
                        demand(info.retval)
                        changed = True
            if frontier:
                continue
            before = engine.stats.facts
            engine.drain()
            if engine.stats.facts != before:
                changed = True
            if not changed:
                break

        if widen:
            engine.stats.demand_widenings += 1
            for st in all_stmts:
                if id(st) not in installed:
                    installed.add(id(st))
                    setup_stmt(engine, st)
            engine.drain()

    engine._solved = True
    engine.stats.demanded_facts = engine.stats.facts
    engine.stats.solve_seconds = time.perf_counter() - t0
    result = Result(program, strategy, engine.facts, engine.stats)
    # Function objects never hold points-to facts; reporting them as
    # "demanded" would be noise.
    exact = frozenset(
        o for o in demanded if o.kind is not ObjKind.FUNCTION
    ) if not widen else frozenset(
        o for o in program.objects.all_objects()
        if o.kind is not ObjKind.FUNCTION
    )
    return DemandResult(
        result=result,
        demanded=exact,
        installed=len(installed),
        widened=widen,
    )
