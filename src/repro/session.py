"""AnalysisSession: parse once, solve on demand, grow incrementally.

The paper's analysis is a monotone least fixpoint over the rules of
Figure 2 — flow-insensitive, so a program is just a *set* of normalized
statements, and the fixpoint is determined by that set alone.  Two
consequences, both exploited here:

1. **One parse serves every strategy.**  The front end's work (parsing,
   type building, normalization to the five assignment forms) is
   independent of the strategy; the four instances of
   ``normalize``/``lookup``/``resolve`` (§4.2) can all be solved over
   the same :class:`~repro.ir.program.Program`.  A session caches one
   solved :class:`~repro.core.engine.Engine` per (strategy, trace,
   worklist) configuration, so repeated queries — the CLI's
   ``--compare`` mode, a client calling several strategies — pay the
   front end once and each solve once.

2. **Adding statements only requires re-draining from the new deltas.**
   Because every rule is installed persistently and monotonically
   (:mod:`repro.core.rules`), seeding the new statements into an
   already-solved constraint graph and draining reaches exactly the
   least fixpoint of the grown program.  :meth:`add_statements` does
   this for *every* cached engine: points-to sets, deref sizes, and all
   order-independent counters come out identical to a from-scratch
   solve of the grown program (differentially tested across the whole
   benchmark suite, all four instances).

Results hand out live views: the :class:`~repro.core.result.Result` a
solve returned earlier simply reflects the grown sets after an
incremental re-solve.  Use ``solve(..., fresh=True)`` to force a
from-scratch engine (benchmark timing loops do this).

Quickstart::

    from repro.session import AnalysisSession
    from repro import CollapseAlways, CommonInitialSequence

    from repro.ir.refs import FieldRef
    from repro.ir.stmts import AddrOf

    session = AnalysisSession.from_c('''
        int x, y, *p;
        void main(void) { p = &x; }
    ''')
    fine = session.solve(CommonInitialSequence())
    session.solve(CollapseAlways())        # same parse, second engine
    objs = session.program.objects
    p, y = objs.lookup("p"), objs.lookup("y")
    session.add_statements([AddrOf(p, FieldRef(y, ()))], function="main")
    # `fine` now reflects the grown program — no re-parse, no re-solve
    # from scratch; only the new delta was drained.
    assert fine.points_to_names(p) == {"x", "y"}
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .core.backend import PropagationBackend, backend_name
from .core.engine import Engine, Result
from .core.strategy import Strategy
from .core.worklist import Worklist
from .diag import DiagnosticSink
from .ir.program import Program
from .ir.refs import FieldRef
from .ir.stmts import Stmt

__all__ = ["AnalysisSession", "resolve_target"]

#: Engine-cache key: strategy class + ABI name (what ``repro.store``
#: keys results on), trace flag, worklist policy, propagation-backend
#: name.
_CacheKey = Tuple[type, str, bool, object, str]


def resolve_target(program: Program, text: str) -> FieldRef:
    """Parse ``name`` or ``name.field.path`` into a FieldRef of ``program``.

    A bare name that is not a global falls back to the unique
    function-local spelling ``fn::name``, matched by suffix (the CLI's
    ``-q`` convention).  Raises ``KeyError`` when nothing matches, or
    when several functions have a local of that name.
    """
    parts = text.split(".")
    name = parts[0]
    obj = program.objects.lookup(name)
    if obj is None:
        suffix = f"::{name}"
        matches = [o.name for o in program.objects.all_objects()
                   if o.name.endswith(suffix)]
        if len(matches) > 1:
            raise KeyError(f"ambiguous object name {name!r} in "
                           f"{program.name}: {sorted(matches)}")
        if matches:
            obj = program.objects.lookup(matches[0])
    if obj is None:
        raise KeyError(f"no object named {name!r} in {program.name}")
    return FieldRef(obj, tuple(parts[1:]))


class AnalysisSession:
    """One parsed program, any number of solved strategies, grown in place."""

    def __init__(
        self,
        program: Program,
        max_facts: int = 5_000_000,
        assume_valid_pointers: bool = True,
        diagnostics: Optional[DiagnosticSink] = None,
        backend: Union[str, PropagationBackend, None] = None,
        strict: bool = True,
        store: Union["ResultStore", str, Path, None] = None,
    ) -> None:
        self.program = program
        self.max_facts = max_facts
        self.assume_valid_pointers = assume_valid_pointers
        #: Default propagation backend for solves, **pinned at
        #: construction**: a backend instance is kept as-is, while a name
        #: — or ``None``, meaning the ``REPRO_BACKEND`` environment /
        #: registry default — is resolved to its concrete registry key
        #: here, once.  Eager resolution both fails fast on a bad name
        #: (with the registered list and availability hints, not deep
        #: inside a later solve) and guarantees one session never mixes
        #: backends across solves if the environment variable changes
        #: mid-process.
        if backend is None or isinstance(backend, str):
            self.backend: Union[str, PropagationBackend] = backend_name(backend)
        else:
            self.backend = backend
        #: Front-end mode this session's program was produced under;
        #: part of the result-store key (lenient programs carry havoc
        #: approximations a strict parse of the same text would not).
        self.strict = strict
        #: Front-end diagnostics for this program (empty when the program
        #: was built strictly or by hand).
        self.diagnostics = diagnostics if diagnostics is not None else DiagnosticSink()
        #: Optional content-addressed result store (:mod:`repro.store`):
        #: a :class:`ResultStore`, or a directory path to open one at.
        if store is None:
            self.store = None
        else:
            from .store import ResultStore

            if isinstance(store, ResultStore):
                self.store = store
            else:
                self.store = ResultStore(store, diagnostics=self.diagnostics)
        self._engines: Dict[_CacheKey, Engine] = {}
        self._results: Dict[_CacheKey, Result] = {}
        #: Cache keys of results that came from the store: complete
        #: fixpoints, but with no live engine to re-drain —
        #: :meth:`add_statements` must drop them.
        self._warm_keys: set = set()
        #: Store keys of the current program version, per (strategy
        #: key, ABI name).  Hashing the program is most of a store
        #: lookup, and a miss and the ``put`` that follows it share a
        #: key; :meth:`add_statements` clears the table.
        self._store_keys: Dict[Tuple[str, str], str] = {}
        #: Cache keys of untraced engines that :meth:`add_statements`
        #: re-drained and the store has not seen since:
        #: :meth:`persist_pending` writes them.
        self._pending: set = set()
        #: Times :meth:`solve` returned a cached :class:`Result` instead
        #: of constructing an engine — the service's "solve-cache hits"
        #: counter (``GET /metrics``), but meaningful for any embedder.
        self.solve_cache_hits = 0
        #: Session-level store traffic (mirrored per-result in
        #: ``result.stats.store_hits`` / ``store_misses``).
        self.store_hits = 0
        self.store_misses = 0

    # ------------------------------------------------------------------
    # Construction from source (parse exactly once).
    # ------------------------------------------------------------------
    @classmethod
    def from_c(
        cls, source: str, name: str = "<source>", strict: bool = True, **kwargs
    ) -> "AnalysisSession":
        """Parse and normalize C source text into a fresh session.

        ``strict=False`` enables lenient-mode degradation: unsupported
        constructs become sound conservative approximations and the
        session's :attr:`diagnostics` sink records each one.
        """
        from .frontend import program_from_c

        sink = DiagnosticSink()
        program = program_from_c(source, name, strict=strict, diagnostics=sink)
        return cls(program, diagnostics=sink, strict=strict, **kwargs)

    @classmethod
    def from_file(
        cls, path: Union[str, Path], strict: bool = True, **kwargs
    ) -> "AnalysisSession":
        """Parse and normalize a C file into a fresh session.

        A list or tuple of paths is accepted too and delegates to
        :meth:`from_files` — a multi-file project is a first-class
        input, not an error.
        """
        if isinstance(path, (list, tuple)):
            return cls.from_files(path, strict=strict, **kwargs)
        from .frontend import program_from_file

        sink = DiagnosticSink()
        program = program_from_file(path, strict=strict, diagnostics=sink)
        return cls(program, diagnostics=sink, strict=strict, **kwargs)

    @classmethod
    def from_files(
        cls,
        paths: Iterable[Union[str, Path]],
        strict: bool = True,
        name: Optional[str] = None,
        **kwargs,
    ) -> "AnalysisSession":
        """Parse each file as a translation unit and link them into one
        session (:mod:`repro.link`).  One path behaves exactly like
        :meth:`from_file`; two or more are linked — extern resolution,
        ``static``-scope renaming, duplicate-definition diagnostics —
        and ``session.program.link_info`` records the merge."""
        from .frontend import program_from_files

        sink = DiagnosticSink()
        program = program_from_files(
            list(paths), name, strict=strict, diagnostics=sink
        )
        return cls(program, diagnostics=sink, strict=strict, **kwargs)

    @classmethod
    def from_sources(
        cls,
        sources: Iterable[Tuple[str, str]],
        name: str = "<linked>",
        strict: bool = True,
        **kwargs,
    ) -> "AnalysisSession":
        """Link in-memory ``[(tu_name, source_text), ...]`` translation
        units into one session — :meth:`from_files` without a
        filesystem."""
        from .frontend import program_from_sources

        sink = DiagnosticSink()
        program = program_from_sources(
            list(sources), name, strict=strict, diagnostics=sink
        )
        return cls(program, diagnostics=sink, strict=strict, **kwargs)

    # ------------------------------------------------------------------
    # Solving.
    # ------------------------------------------------------------------
    def _key(
        self, strategy: Strategy, trace: bool, worklist, backend
    ) -> _CacheKey:
        wl = worklist if isinstance(worklist, str) else id(worklist)
        return (type(strategy), strategy.layout.abi.name, trace, wl,
                backend_name(backend))

    def solve(
        self,
        strategy: Strategy,
        trace: bool = False,
        worklist: Union[str, Worklist] = "priority",
        fresh: bool = False,
        backend: Union[str, PropagationBackend, None] = None,
    ) -> Result:
        """Solve ``strategy`` over the session's program; cached.

        A repeated call with an equivalent configuration (same strategy
        class and ABI, same ``trace``/``worklist``/``backend``)
        returns the cached :class:`Result` without re-solving.
        ``fresh=True`` forces a new engine (replacing the cache entry) —
        benchmark repeats use it so every timed run drains the full
        worklist.  ``backend=None`` falls back to the session default.

        With a :attr:`store` attached, a cache miss first consults the
        store (:meth:`warm_start`) — a hit replays the persisted
        fixpoint without constructing an engine — and a fresh solve's
        result is persisted back.  Traced solves bypass the store both
        ways: a warm result cannot carry provenance, and tracing is a
        request for *this* run's derivations.
        """
        if backend is None:
            backend = self.backend
        key = self._key(strategy, trace, worklist, backend)
        if not fresh:
            cached = self._results.get(key)
            if cached is not None:
                self.solve_cache_hits += 1
                return cached
            if not trace:
                warm = self.warm_start(strategy, worklist=worklist,
                                       backend=backend)
                if warm is not None:
                    return warm
        engine = Engine(
            self.program,
            strategy,
            max_facts=self.max_facts,
            assume_valid_pointers=self.assume_valid_pointers,
            trace=trace,
            worklist=worklist,
            backend=backend,
            diagnostics=self.diagnostics,
        )
        result = engine.solve()
        self._engines[key] = engine
        self._results[key] = result
        self._pending.discard(key)
        if self.store is not None and not trace:
            self._persist(result)
        return result

    # ------------------------------------------------------------------
    # The content-addressed store.
    # ------------------------------------------------------------------
    def _store_key(self, strategy: Strategy) -> str:
        """:func:`repro.store.store_key` of ``strategy`` over the current
        program version, hashed once per (strategy, ABI)."""
        skey = (strategy.key, strategy.layout.abi.name)
        key = self._store_keys.get(skey)
        if key is None:
            from .store import store_key

            key = self._store_keys[skey] = store_key(
                self.program, strategy, strict=self.strict,
                assume_valid_pointers=self.assume_valid_pointers,
            )
        return key

    def _persist(self, result: Result) -> None:
        """Write ``result`` to the store."""
        self.store.put(
            self.program, result, strict=self.strict,
            assume_valid_pointers=self.assume_valid_pointers,
            diagnostics=self.diagnostics,
            key=self._store_key(result.strategy),
        )

    def persist_pending(self) -> None:
        """Write every result :meth:`add_statements` re-drained to the
        store, under the grown program's key.

        The re-drained fixpoint equals a from-scratch solve of the grown
        program, so a later session over that program warm-starts from
        it instead of solving.  Writing is left to the caller (the
        service does it after a ``DELETE`` has answered) so growth
        itself never pays for a key and a put.  Idempotent: each
        pending result is written once, and a no-op without a store.
        """
        while self._pending:
            self._persist(self._results[self._pending.pop()])

    def warm_start(
        self,
        strategy: Strategy,
        worklist: Union[str, Worklist] = "priority",
        backend: Union[str, PropagationBackend, None] = None,
    ) -> Optional[Result]:
        """Try to satisfy ``strategy`` from the attached store.

        On a hit the persisted fixpoint is rebuilt into a live
        :class:`Result` — byte-identical points-to sets, no engine
        constructed — cached like a solved one, and returned.  Returns
        ``None`` on a miss or when no store is attached.  Warm results
        are dropped by :meth:`add_statements` (they have no engine to
        re-drain); the grown program then re-solves and re-persists
        under its new content hash.
        """
        if self.store is None:
            return None
        if backend is None:
            backend = self.backend
        key = self._key(strategy, False, worklist, backend)
        cached = self._results.get(key)
        if cached is not None:
            self.solve_cache_hits += 1
            return cached
        stored = self.store.load(
            self.program, strategy, strict=self.strict,
            assume_valid_pointers=self.assume_valid_pointers,
            diagnostics=self.diagnostics, key=self._store_key(strategy),
        )
        if stored is None:
            self.store_misses += 1
            return None
        self.store_hits += 1
        self._results[key] = stored.result
        self._warm_keys.add(key)
        return stored.result

    def query(
        self,
        targets,
        strategy: Optional[Strategy] = None,
        worklist: Union[str, Worklist] = "priority",
        backend: Union[str, PropagationBackend, None] = None,
    ) -> Dict[str, List[str]]:
        """Answer points-to queries from the exhaustive fixpoint.

        ``targets``: an iterable of object names / ``"name.field"``
        paths / :class:`AbstractObject`s / refs.  Returns a mapping of
        each target's label to the sorted reprs of its points-to set.
        ``strategy=None`` uses the session's default
        (common-initial-sequence, constructed once and reused so its
        result cache is stable).  The answers come from :meth:`solve`:
        a cached result, else the attached store, else a fresh solve.
        """
        from .ir.objects import AbstractObject

        if strategy is None:
            strategy = self._default_strategy()
        labeled = {}
        for t in targets:
            if isinstance(t, str):
                labeled[t] = resolve_target(self.program, t)
            elif isinstance(t, AbstractObject):
                labeled[t.name] = t
            else:
                labeled[repr(t)] = t
        result = self.solve(strategy, worklist=worklist, backend=backend)
        return {
            label: sorted(repr(r) for r in result.points_to(ref))
            for label, ref in labeled.items()
        }

    def _default_strategy(self) -> Strategy:
        strategy = getattr(self, "_default_strategy_obj", None)
        if strategy is None:
            from .core import CommonInitialSequence

            strategy = self._default_strategy_obj = CommonInitialSequence()
        return strategy

    def release(
        self,
        strategy: Strategy,
        trace: bool = False,
        worklist: Union[str, Worklist] = "priority",
        backend: Union[str, PropagationBackend, None] = None,
    ) -> None:
        """Drop the cached result and engine of one configuration (the
        arguments mean what they mean in :meth:`solve`).

        The engine and its fact base hold no reference cycles, so they
        are freed here by reference counting, once the caller holds no
        :class:`Result` of its own.  A later :meth:`solve` re-solves, or
        warm-starts from the attached store.
        """
        if backend is None:
            backend = self.backend
        key = self._key(strategy, trace, worklist, backend)
        self._engines.pop(key, None)
        self._results.pop(key, None)
        self._warm_keys.discard(key)
        self._pending.discard(key)

    def cached_results(self) -> List[Result]:
        """The live results of every strategy solved so far."""
        return list(self._results.values())

    # ------------------------------------------------------------------
    # Introspection (the service's session document and byte accounting).
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A JSON-serializable summary of the session's state.

        This is the body of the service's session document
        (``GET /v1/sessions/{id}``); it never includes points-to data —
        results are reached through queries, which solve on demand.
        """
        solved = [
            {
                "strategy": result.strategy.key,
                "backend": result.stats.backend,
                "facts": result.facts.edge_count(),
                "solve_seconds": result.stats.solve_seconds,
                "incremental_solves": result.stats.incremental_solves,
            }
            for result in self._results.values()
        ]
        doc = {
            "program": self.program.name,
            "functions": sorted(self.program.functions),
            "objects": len(self.program.objects.all_objects()),
            "statements": self.program.stmt_count(),
            "solved": solved,
            "solve_cache_hits": self.solve_cache_hits,
            "store": (
                {
                    "root": str(self.store.root),
                    "hits": self.store_hits,
                    "misses": self.store_misses,
                }
                if self.store is not None
                else None
            ),
            "diagnostics": {
                "total": self.diagnostics.total,
                "by_kind": self.diagnostics.kinds(),
                "by_severity": self.diagnostics.severities(),
            },
        }
        if self.program.link_info is not None:
            # Multi-TU provenance (tus_linked, externs_resolved, ...).
            doc["link"] = self.program.link_info.as_dict()
        return doc

    def estimated_bytes(self) -> int:
        """A coarse, monotone estimate of this session's memory footprint.

        Used by the service's :class:`~repro.service.pool.SessionPool`
        byte budget.  It is deliberately a *model*, not a measurement
        (``gc``-walking live engines would cost more than it saves):
        fixed per-object/per-statement charges for the program plus
        per-fact/per-ref charges for every cached engine.  The constants
        approximate CPython object overheads; what matters for eviction
        is that the estimate grows monotonically with solves and deltas.
        """
        program = self.program
        total = 4096
        total += 256 * len(program.objects.all_objects())
        total += 128 * program.stmt_count()
        for result in self._results.values():
            total += 64 * result.facts.edge_count()
            num_refs = getattr(result.facts, "num_refs", None)
            if num_refs is not None:
                total += 48 * num_refs()
        return total

    # ------------------------------------------------------------------
    # Incremental growth.
    # ------------------------------------------------------------------
    def add_statements(
        self, stmts: Iterable[Stmt], function: Optional[str] = None
    ) -> List[Stmt]:
        """Grow the program and incrementally re-solve every cached engine.

        The statements are appended to the session's program (global
        scope, or the named function's body) and then seeded into each
        solved engine, which re-drains from the new deltas only —
        reaching the same fixpoint a from-scratch solve of the grown
        program would (see the module docstring).  Engines record the
        re-solve in their session counters (``incremental_solves``,
        ``delta_stmts``, ``reused_graph_refs``).  With a store attached,
        each re-drained untraced result waits for
        :meth:`persist_pending`.  If a re-drain raises (say
        :class:`~repro.core.stats.AnalysisBudgetExceeded`), the program
        stays grown, and that engine and every engine not yet re-drained
        are dropped with their results before the error propagates: the
        next :meth:`solve` of those configurations starts afresh.
        """
        added = self.program.add_statements(stmts, function=function)
        # Warm-started results have no engine to re-drain and describe
        # the *old* program: drop them so the next query re-derives
        # against the grown statement set.  The store needs no
        # invalidation — its key is the program's content hash, which
        # just changed.
        for key in self._warm_keys:
            self._results.pop(key, None)
        self._warm_keys.clear()
        self._store_keys.clear()
        engines = list(self._engines.items())
        for i, (key, engine) in enumerate(engines):
            try:
                engine.add_statements(added)
            except BaseException:
                # The failing engine's facts are partial and the rest
                # still describe the old program: drop them all (pending
                # marks included), so neither a query nor
                # :meth:`persist_pending` ever sees them.
                for stale, _ in engines[i:]:
                    self._engines.pop(stale)
                    self._results.pop(stale, None)
                    self._pending.discard(stale)
                raise
            if self.store is not None and engine.tracer is None:
                self._pending.add(key)
        return added
