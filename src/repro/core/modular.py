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

With ``workers > 1`` the independent SCCs of each level are pre-solved
in parallel worker processes (``ProcessPoolExecutor``).  Each worker
solves only its slice of the program (global initializers + its SCC's
function bodies) seeded with the facts collected from lower levels, and
returns its derived facts by name.  Worker fixpoints are least
fixpoints of statement *subsets* seeded with facts already known to lie
in the full fixpoint, so by monotonicity every returned fact is in the
whole-program fixpoint.  The main process seeds them into a fresh
engine as warm-start facts, then installs *all* statements and drains —
guaranteeing the exact fixpoint regardless of callgraph approximation
or worker failures.  Any pool or pickling failure degrades to the
serial staged schedule — counted (``modular_pool_failures``) and
recorded as a WARNING diagnostic; ``REPRO_DEBUG=1`` re-raises
unexpected (non-pool, non-pickling) failures instead of degrading.

The callgraph is deliberately approximate (direct calls resolved by
name, indirect calls to every address-taken function): a missed edge
only weakens summaries and scheduling, never the result.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..diag import Diagnostic, DiagnosticSink, Severity
from ..ir.program import Program
from ..ir.refs import FieldRef, OffsetRef, Ref
from ..ir.stmts import AddrOf, Call, Copy, Stmt
from .engine import Engine, Result, no_cyclic_gc
from .rules import setup_stmt
from .strategy import Strategy
from .worklist import Worklist

#: Failure classes the worker-pool fallback is *designed* to absorb:
#: pool construction/teardown problems (restricted platforms, dead
#: workers, fd limits) and unpicklable payloads.  Anything else raised
#: out of pre-seeding is a programmer error in disguise, and the
#: ``REPRO_DEBUG=1`` escape hatch re-raises it instead of degrading.
_EXPECTED_POOL_FAILURES = (pickle.PicklingError, BrokenProcessPool, OSError)

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
# Fact serialization (worker boundary).
# ----------------------------------------------------------------------
def _spec_of(ref: Ref) -> Optional[Tuple]:
    if isinstance(ref, FieldRef):
        return ("F", ref.obj.name, tuple(ref.path))
    if isinstance(ref, OffsetRef):
        return ("O", ref.obj.name, ref.offset)
    return None


def _ref_of_spec(spec: Tuple, program: Program) -> Optional[Ref]:
    kind, name, extra = spec
    obj = program.objects.lookup(name)
    if obj is None:
        # An engine-invented object (e.g. the lenient "unknown" sink)
        # that has no counterpart here; the final full drain re-derives
        # anything reachable through it.
        return None
    if kind == "F":
        return FieldRef(obj, tuple(extra))
    return OffsetRef(obj, extra)


def _facts_as_specs(engine: Engine) -> List[Tuple[Tuple, Tuple]]:
    out = []
    for src, dst in engine.facts.all_facts():
        s, d = _spec_of(src), _spec_of(dst)
        if s is not None and d is not None:
            out.append((s, d))
    return out


def _seed_specs(engine: Engine, specs: Sequence[Tuple[Tuple, Tuple]]) -> None:
    program = engine.program
    strategy = engine.strategy
    for s_spec, d_spec in specs:
        src = _ref_of_spec(s_spec, program)
        dst = _ref_of_spec(d_spec, program)
        if src is None or dst is None:
            continue
        engine.add_fact(strategy.normalize(src), strategy.normalize(dst))


# ----------------------------------------------------------------------
# Parallel worker (module-level so ProcessPoolExecutor can pickle it).
# ----------------------------------------------------------------------
_WORKER: Dict[str, object] = {}


def _worker_init(payload: bytes) -> None:
    # The strategy travels as (registry key, ABI): a live strategy
    # instance drags its normalize/layout memo caches along, and those
    # hold refs whose lazy hashes break under pickle's cycle handling.
    program, strategy_key, abi, max_facts, assume_valid = pickle.loads(payload)
    from ..ctype.layout import Layout
    from . import STRATEGY_BY_KEY

    _WORKER["program"] = program
    _WORKER["strategy"] = STRATEGY_BY_KEY[strategy_key](Layout(abi))
    _WORKER["max_facts"] = max_facts
    _WORKER["assume_valid"] = assume_valid


def _worker_solve(
    task: Tuple[List[str], List[Tuple[Tuple, Tuple]]],
) -> List[Tuple[Tuple, Tuple]]:
    """Solve one SCC batch: global inits + the named function bodies,
    warm-started from ``seed`` facts; return the derived facts by name."""
    fn_names, seeds = task
    program: Program = _WORKER["program"]  # type: ignore[assignment]
    engine = Engine(
        program,
        _WORKER["strategy"],  # type: ignore[arg-type]
        max_facts=_WORKER["max_facts"],  # type: ignore[arg-type]
        assume_valid_pointers=_WORKER["assume_valid"],  # type: ignore[arg-type]
    )
    _seed_specs(engine, seeds)
    with no_cyclic_gc():
        for st in program.global_stmts:
            setup_stmt(engine, st)
        for fn in fn_names:
            info = program.functions.get(fn)
            if info is not None:
                for st in info.stmts:
                    setup_stmt(engine, st)
        engine.drain()
    return _facts_as_specs(engine)


def _parallel_preseed(
    program: Program,
    strategy: Strategy,
    schedule: ModularSchedule,
    workers: int,
    max_facts: int,
    assume_valid_pointers: bool,
) -> Tuple[List[Tuple[Tuple, Tuple]], int]:
    """Pre-solve SCC batches level by level in worker processes.

    Returns (collected fact specs, number of batches fanned out).
    Raises on any pool/pickle failure; the caller falls back to serial.
    """
    from concurrent.futures import ProcessPoolExecutor

    payload = pickle.dumps(
        (program, strategy.key, strategy.layout.abi,
         max_facts, assume_valid_pointers)
    )
    collected: Dict[Tuple[Tuple, Tuple], None] = {}
    batches = 0
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(payload,)
    ) as pool:
        for level in schedule.levels:
            # Chunk the level's independent SCCs into at most ``workers``
            # batches so one level costs one round of the pool.
            chunks: List[List[str]] = [[] for _ in range(min(workers, len(level)))]
            for i, scc_idx in enumerate(level):
                chunks[i % len(chunks)].extend(schedule.sccs[scc_idx])
            seeds = list(collected)
            futures = [
                pool.submit(_worker_solve, (chunk, seeds))
                for chunk in chunks if chunk
            ]
            batches += len(futures)
            for fut in futures:
                for pair in fut.result():
                    collected[pair] = None
    return list(collected), batches


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
    workers: int = 0,
    max_facts: int = 5_000_000,
    assume_valid_pointers: bool = True,
    worklist: Union[str, Worklist] = "priority",
    backend=None,
    diagnostics: Optional[DiagnosticSink] = None,
) -> ModularResult:
    """Bottom-up modular solve; exactly the whole-program fixpoint.

    ``workers > 1`` pre-solves independent SCCs in parallel processes
    (warm-start seeding; falls back to serial on any pool failure).
    """
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

    batches = 0
    if workers and workers > 1 and len(program.functions) > 1:
        try:
            seeds, batches = _parallel_preseed(
                program, strategy, schedule, workers,
                max_facts, assume_valid_pointers,
            )
            _seed_specs(engine, seeds)
        except Exception as err:
            # No pool (restricted platform), unpicklable piece, or a
            # worker crash: the serial schedule below is always exact.
            # The degradation is sound but never silent — it is counted
            # and recorded as a structured WARNING so operators can see
            # why a "parallel" solve ran serially.  REPRO_DEBUG=1
            # re-raises anything that is NOT an expected pool/pickling
            # failure (i.e. a programmer error hiding behind the
            # fallback).
            batches = 0
            engine.stats.modular_pool_failures += 1
            if diagnostics is not None:
                diagnostics.emit(Diagnostic(
                    kind="modular-pool-failure",
                    message=(
                        f"parallel pre-seeding failed "
                        f"({type(err).__name__}: {err}); "
                        f"falling back to the exact serial schedule"
                    ),
                    severity=Severity.WARNING,
                    phase="analyze",
                ))
            if os.environ.get("REPRO_DEBUG") == "1" and not isinstance(
                err, _EXPECTED_POOL_FAILURES
            ):
                raise

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
    engine.stats.scc_parallel_batches = batches
    engine.stats.solve_seconds = time.perf_counter() - t0
    result = Result(
        program, strategy, engine.facts, engine.stats, tracer=engine.tracer
    )
    return ModularResult(result=result, summaries=summaries, schedule=schedule)
