"""Modular bottom-up solving over the callgraph SCC DAG.

The whole-program fixpoint (:meth:`Engine.solve`) installs every
statement and drains once.  This module computes the *same* fixpoint
bottom-up: functions are grouped into strongly connected components of
an approximate callgraph, the SCC condensation is levelled so that
callees precede callers, and each SCC's statements are installed and
drained in that order.  Because the Figure-2 rules are monotone, the
staged schedule reaches exactly the least fixpoint of the full
statement set — the same argument that makes incremental re-solves
(:meth:`Engine.add_statements`) sound — so points-to sets, deref
profiles, and every order-independent counter are byte-identical to the
whole-program solve.  What the schedule buys is *summaries*: after a
function's SCC level drains, the points-to sets of its parameters and
return object are final with respect to everything below it, and are
captured as a :class:`FunctionSummary`.

The callgraph is deliberately approximate (direct calls resolved by
name, indirect calls to every address-taken function): a missed edge
only weakens summaries and scheduling, never the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..diag import DiagnosticSink
from ..ir.program import Program
from ..ir.refs import FieldRef
from ..ir.stmts import AddrOf, Call, Copy
from .engine import Engine, Result, no_cyclic_gc
from .rules import setup_stmt
from .strategy import Strategy
from .worklist import Worklist

__all__ = [
    "FunctionSummary",
    "ModularResult",
    "ModularSchedule",
    "approximate_callgraph",
    "scc_schedule",
    "solve_modular",
]


# ----------------------------------------------------------------------
# Callgraph approximation and SCC condensation.
# ----------------------------------------------------------------------
def approximate_callgraph(program: Program) -> Dict[str, Set[str]]:
    """Caller → callees over the *defined* functions of ``program``.

    Direct calls resolve by callee name; indirect calls conservatively
    target every address-taken defined function (a FUNCTION object that
    appears as an ``AddrOf`` target or ``Copy`` source anywhere in the
    program).  Precision here affects only summary quality and schedule
    shape — the final drain installs every statement, so the solved
    fixpoint never depends on this graph.
    """
    defined = set(program.functions)
    address_taken: Set[str] = set()
    for st in program.all_stmts():
        if isinstance(st, AddrOf):
            obj = st.target.obj
        elif isinstance(st, Copy):
            obj = st.rhs.obj
        else:
            continue
        if obj.is_function and obj.name in defined:
            address_taken.add(obj.name)

    edges: Dict[str, Set[str]] = {fn: set() for fn in defined}
    for fn, info in program.functions.items():
        for st in info.stmts:
            if not isinstance(st, Call):
                continue
            if not st.indirect and st.callee.is_function:
                if st.callee.name in defined:
                    edges[fn].add(st.callee.name)
            elif st.indirect:
                edges[fn].update(address_taken)
    return edges


@dataclass
class ModularSchedule:
    """The bottom-up plan: SCCs of the callgraph condensation, levelled
    so that every SCC's callees sit at a strictly lower level."""

    #: SCC membership, function names; indexed by SCC id.
    sccs: List[List[str]] = field(default_factory=list)
    #: SCC ids per level, level 0 first (leaves of the callgraph).
    #: SCCs within one level are mutually unreachable, hence
    #: independently solvable.
    levels: List[List[int]] = field(default_factory=list)
    #: Caller → callees edge set the schedule was derived from.
    callgraph: Dict[str, Set[str]] = field(default_factory=dict)
    #: Function name → SCC id.
    scc_of: Dict[str, int] = field(default_factory=dict)


def _tarjan(nodes: Sequence[str], edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan: SCCs of (nodes, edges), callees-first order."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        # Explicit DFS stack of (node, iterator over successors).
        work: List[Tuple[str, List[str]]] = [(root, sorted(edges.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, succs = work[-1]
            advanced = False
            while succs:
                w = succs.pop()
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, sorted(edges.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(sorted(scc))
    return sccs


def scc_schedule(program: Program) -> ModularSchedule:
    """SCC-condense the approximate callgraph and level it bottom-up."""
    edges = approximate_callgraph(program)
    nodes = sorted(edges)
    sccs = _tarjan(nodes, edges)
    scc_of = {fn: i for i, scc in enumerate(sccs) for fn in scc}
    # level(C) = 1 + max(level of callee SCCs); Tarjan's emission order
    # already places callees first, so one forward pass suffices.
    level_of: Dict[int, int] = {}
    for i, scc in enumerate(sccs):
        lvl = 0
        for fn in scc:
            for callee in edges.get(fn, ()):
                j = scc_of[callee]
                if j != i:
                    lvl = max(lvl, level_of[j] + 1)
        level_of[i] = lvl
    levels: List[List[int]] = []
    for i in range(len(sccs)):
        lvl = level_of[i]
        while len(levels) <= lvl:
            levels.append([])
        levels[lvl].append(i)
    return ModularSchedule(sccs=sccs, levels=levels, callgraph=edges, scc_of=scc_of)


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
@dataclass
class FunctionSummary:
    """Per-function points-to summary captured when the function's SCC
    level finished draining (final w.r.t. everything below it)."""

    name: str
    scc: int
    level: int
    #: Parameter object name → sorted pointee ref reprs.
    params: Dict[str, List[str]] = field(default_factory=dict)
    #: Sorted pointee ref reprs of the return object ([] for void).
    returns: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scc": self.scc,
            "level": self.level,
            "params": dict(self.params),
            "returns": list(self.returns),
        }


def _summarize(
    engine: Engine, program: Program, schedule: ModularSchedule,
    level_of_scc: Dict[int, int],
) -> Dict[str, FunctionSummary]:
    facts = engine.facts
    strategy = engine.strategy
    summaries: Dict[str, FunctionSummary] = {}
    for fn, info in program.functions.items():
        scc = schedule.scc_of.get(fn, -1)
        summ = FunctionSummary(name=fn, scc=scc, level=level_of_scc.get(scc, 0))
        for pobj in info.params:
            ref = strategy.normalize(FieldRef(pobj, ()))
            rid = facts.intern(ref)
            summ.params[pobj.name] = sorted(
                repr(t) for t in facts.decode(facts.pts_bits(facts.find(rid)))
            )
        if info.retval is not None:
            ref = strategy.normalize(FieldRef(info.retval, ()))
            rid = facts.intern(ref)
            summ.returns = sorted(
                repr(t) for t in facts.decode(facts.pts_bits(facts.find(rid)))
            )
        summaries[fn] = summ
    return summaries


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------
@dataclass
class ModularResult:
    """A whole-program :class:`Result` plus the modular artifacts."""

    result: Result
    summaries: Dict[str, FunctionSummary]
    schedule: ModularSchedule

    @property
    def facts(self):
        return self.result.facts

    @property
    def stats(self):
        return self.result.stats


def solve_modular(
    program: Program,
    strategy: Strategy,
    *,
    max_facts: int = 5_000_000,
    assume_valid_pointers: bool = True,
    worklist: Union[str, Worklist] = "priority",
    backend=None,
    diagnostics: Optional[DiagnosticSink] = None,
) -> ModularResult:
    """Bottom-up modular solve; exactly the whole-program fixpoint."""
    schedule = scc_schedule(program)
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

    # Staged bottom-up install: global initializers, then each SCC level,
    # draining between levels.  Monotone rules => least fixpoint of the
    # full statement set, identical to Engine.solve().
    level_of_scc: Dict[int, int] = {}
    with no_cyclic_gc():
        for st in program.global_stmts:
            setup_stmt(engine, st)
        engine.drain()
        for lvl, level in enumerate(schedule.levels):
            for scc_idx in level:
                level_of_scc[scc_idx] = lvl
                for fn in schedule.sccs[scc_idx]:
                    for st in program.functions[fn].stmts:
                        setup_stmt(engine, st)
            engine.drain()
    engine._solved = True

    summaries = _summarize(engine, program, schedule, level_of_scc)
    engine.stats.summaries_computed = len(summaries)
    engine.stats.solve_seconds = time.perf_counter() - t0
    result = Result(
        program, strategy, engine.facts, engine.stats, tracer=engine.tracer
    )
    return ModularResult(result=result, summaries=summaries, schedule=schedule)
