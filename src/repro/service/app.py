"""The service application: endpoint handlers over a session pool.

This module is deliberately HTTP-free: :class:`ServiceApp` maps
``(method, path, query-params, decoded JSON body)`` to
``(status, JSON payload)``, and :mod:`repro.service.http` is a thin
socket adapter over it.  That split keeps every endpoint unit-testable
without binding a port, and keeps the never-500 contract auditable in
one place (:meth:`ServiceApp.handle` is the single choke point where
:class:`~repro.service.errors.ServiceError` and unexpected exceptions
become structured JSON).

Endpoints (full request/response schemas in ``docs/service.md``):

======  ==============================  ================================
method  path                            meaning
======  ==============================  ================================
GET     /healthz                        liveness + pool occupancy
GET     /metrics                        server counters + per-session
                                        ``repro.obs.metrics`` records
POST    /v1/sessions                    parse a translation unit into a
                                        pooled session
GET     /v1/sessions                    list live sessions
GET     /v1/sessions/{id}               one session document
DELETE  /v1/sessions/{id}               drop a session explicitly
POST    /v1/sessions/{id}/statements    incremental delta (JSON codec),
                                        delta-only re-solve
GET     /v1/sessions/{id}/query         alias / points-to / modref /
                                        callgraph / derefs
GET     /v1/sessions/{id}/diagnostics   the session's structured
                                        front-end diagnostics
======  ==============================  ================================
"""

from __future__ import annotations

import gc
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..clients.alias import may_alias, may_point_to_same
from ..clients.callgraph import build_call_graph
from ..clients.derefstats import deref_stats
from ..clients.modref import mod_ref
from ..core import STRATEGY_BY_KEY
from ..core.backend import backend_name
from ..core.stats import AnalysisBudgetExceeded
from ..core.strategy import Strategy
from ..diag import DiagnosticSink, FrontendError
from ..frontend import program_from_c, program_from_sources
from ..obs.metrics import session_metrics
from ..session import AnalysisSession
from .codec import resolve_ref, statements_from_json
from .errors import (
    ServiceError,
    diagnostics_json,
    error_payload,
    from_fatal_sink,
    from_frontend_error,
)
from .frontcache import FrontendCache, frontend_key
from .pool import PooledSession, SessionPool

__all__ = ["ServiceConfig", "ServiceApp", "QUERY_KINDS"]

QUERY_KINDS = ("points_to", "alias", "modref", "callgraph", "derefs")

_ABIS = ("ilp32", "lp64")


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8080
    pool_size: int = 8
    byte_budget: int = 256 * 1024 * 1024
    max_request_bytes: int = 1024 * 1024
    request_timeout: float = 30.0
    #: Default front-end mode for sessions whose create request does not
    #: say; requests may override per session (``"strict": false``).
    default_strict: bool = True
    default_strategy: str = "common_initial_sequence"
    default_abi: str = "ilp32"
    #: Propagation backend for every solve (``None`` = $REPRO_BACKEND or
    #: the registry default).  Validated at construction — same
    #: fail-fast contract as the analyze CLI and ``AnalysisSession``.
    backend: Optional[str] = None
    #: Per-engine fact budget: bounds the work one hostile session can
    #: demand of a solve (maps to a 422, not a hung worker).
    max_facts: int = 5_000_000
    #: Directory of a content-addressed result store (:mod:`repro.store`)
    #: shared by every session, or ``None`` for no persistence.  With a
    #: store, a solve of a program the server (or a previous server
    #: process) has seen before warm-starts from disk instead of
    #: re-running the fixpoint.
    store: Optional[str] = None

    def __post_init__(self) -> None:
        backend_name(self.backend)     # raises KeyError on a bad name
        if self.default_strategy not in STRATEGY_BY_KEY:
            raise KeyError(
                f"unknown strategy {self.default_strategy!r}; registered: "
                f"{', '.join(sorted(STRATEGY_BY_KEY))}"
            )
        if self.default_abi not in _ABIS:
            raise KeyError(f"unknown abi {self.default_abi!r}; "
                           f"expected one of {', '.join(_ABIS)}")


def _strategy(entry: PooledSession, key: str) -> Strategy:
    """The pool entry's strategy instance for ``key`` (built on first use).

    The entry owns its strategies, all over its one layout, so their
    memo tables are freed together with the session.
    """
    strategy = entry.strategies.get(key)
    if strategy is None:
        strategy = entry.strategies[key] = STRATEGY_BY_KEY[key](entry.layout)
    return strategy


@dataclass
class _ServerCounters:
    """Request-plane counters (the pool owns the session-plane ones)."""

    requests: Dict[str, int] = field(default_factory=dict)
    responses_by_status: Dict[str, int] = field(default_factory=dict)
    solves: int = 0
    solve_cache_hits: int = 0
    internal_errors: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": dict(self.requests),
            "responses_by_status": dict(self.responses_by_status),
            "solves": self.solves,
            "solve_cache_hits": self.solve_cache_hits,
            "internal_errors": self.internal_errors,
        }


class ServiceApp:
    """Route table + handlers; one instance per server process."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = SessionPool(self.config.pool_size,
                                self.config.byte_budget)
        self.counters = _ServerCounters()
        #: Pickled programs by source text: a create of an input seen
        #: before skips the front end (:mod:`repro.service.frontcache`).
        self.frontend_cache = FrontendCache(self.config.byte_budget // 8)
        self._counter_lock = threading.Lock()
        self._started = time.monotonic()
        #: Per thread: the sessions deleted inside an active
        #: :meth:`releasing_after` block, or no attribute outside one.
        self._held = threading.local()

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    _ROUTES = [
        ("GET", re.compile(r"^/healthz$"), "healthz"),
        ("GET", re.compile(r"^/metrics$"), "metrics"),
        ("POST", re.compile(r"^/v1/sessions$"), "create_session"),
        ("GET", re.compile(r"^/v1/sessions$"), "list_sessions"),
        ("GET", re.compile(r"^/v1/sessions/(?P<sid>[0-9a-f]+)$"),
         "get_session"),
        ("DELETE", re.compile(r"^/v1/sessions/(?P<sid>[0-9a-f]+)$"),
         "delete_session"),
        ("POST", re.compile(r"^/v1/sessions/(?P<sid>[0-9a-f]+)/statements$"),
         "add_statements"),
        ("GET", re.compile(r"^/v1/sessions/(?P<sid>[0-9a-f]+)/query$"),
         "query"),
        ("GET", re.compile(r"^/v1/sessions/(?P<sid>[0-9a-f]+)/diagnostics$"),
         "diagnostics"),
    ]

    def handle(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        body: Optional[dict] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """One request in, ``(status, payload)`` out — never an exception.

        The never-500-on-hostile-input contract lives here: every
        :class:`ServiceError` (including the front-end mappings) renders
        as its 4xx envelope; anything else is a server bug and renders
        as a 500 envelope with the exception *type* only — no traceback,
        no internals, ever crosses the wire.
        """
        query = query or {}
        label = "unmatched"
        counted = False
        try:
            handler, params, label = self._route(method, path)
            self._count_request(label)
            counted = True
            status, payload = handler(params, query, body)
        except ServiceError as err:
            if not counted:          # routing failures count as unmatched
                self._count_request(label)
            status, payload = err.status, err.payload()
        except Exception as exc:  # noqa: BLE001 - the contract is "no leak"
            if not counted:
                self._count_request(label)
            status, payload = self.internal_error(exc, label)
        with self._counter_lock:
            bucket = f"{status // 100}xx"
            self.counters.responses_by_status[bucket] = (
                self.counters.responses_by_status.get(bucket, 0) + 1
            )
        return status, payload

    @contextmanager
    def releasing_after(self) -> Iterator[None]:
        """Persist and free the sessions that requests in this block
        delete only when the block exits.

        The HTTP layer wraps each request's handle-and-respond in it, so
        a ``DELETE`` answers first, then writes its session's re-drained
        results to the store and frees the session (synchronously, on
        the same thread) right after the response is written.  Outside
        such a block both happen inside :meth:`handle`.
        """
        held: List[PooledSession] = []
        self._held.sessions = held
        try:
            yield
        finally:
            del self._held.sessions
            for entry in held:
                self._persist_deleted(entry)
            held.clear()

    def _persist_deleted(self, entry: PooledSession) -> None:
        """Write a deleted session's re-drained results to the store
        (:meth:`AnalysisSession.persist_pending`).  A failure is a server
        bug: counted in ``internal_errors``, never raised."""
        try:
            with entry.lock:
                entry.session.persist_pending()
        except Exception as exc:  # noqa: BLE001 - counted, not propagated
            self.internal_error(exc, "DELETE /v1/sessions/{id} (persist)")

    def internal_error(self, exc: BaseException,
                       label: str) -> Tuple[int, Dict[str, object]]:
        """Count a server bug and render its 500 envelope.

        The message names the exception *type* only; the wire layer uses
        this too, for a bug hit while reading a request.
        """
        with self._counter_lock:
            self.counters.internal_errors += 1
        return 500, error_payload(
            500, "internal-error",
            f"unhandled {type(exc).__name__} while serving {label}",
        )

    def _route(self, method: str, path: str):
        methods_for_path = []
        for verb, pattern, name in self._ROUTES:
            m = pattern.match(path)
            if not m:
                continue
            if verb == method:
                label = f"{verb} {pattern.pattern.replace('(?P<sid>[0-9a-f]+)', '{id}')}"
                label = label.replace("^", "").replace("$", "")
                return getattr(self, "_" + name), m.groupdict(), label
            methods_for_path.append(verb)
        if methods_for_path:
            raise ServiceError(
                405, "method-not-allowed",
                f"{method} not allowed on {path}; "
                f"allowed: {', '.join(sorted(set(methods_for_path)))}",
            )
        raise ServiceError(404, "unknown-endpoint", f"no endpoint {path!r}")

    def _count_request(self, label: str) -> None:
        with self._counter_lock:
            self.counters.requests[label] = (
                self.counters.requests.get(label, 0) + 1
            )

    # ------------------------------------------------------------------
    # Request-body helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _body(body: Optional[dict]) -> dict:
        if body is None:
            raise ServiceError(400, "bad-request",
                               "this endpoint requires a JSON object body")
        if not isinstance(body, dict):
            raise ServiceError(400, "bad-request",
                               "request body must be a JSON object")
        return body

    @staticmethod
    def _str_field(body: dict, name: str, default=None, required=False):
        value = body.get(name, default)
        if required and value is None:
            raise ServiceError(400, "bad-request",
                               f"missing required field {name!r}")
        if value is not None and not isinstance(value, str):
            raise ServiceError(400, "bad-request",
                               f"field {name!r} must be a string")
        return value

    @staticmethod
    def _tu_sources(files) -> list:
        """Validate the ``files`` field of session creation: a non-empty
        list of ``{"name": ..., "source": ...}`` objects, returned as
        the ``[(name, source), ...]`` pairs the linker consumes."""
        if not isinstance(files, list) or not files:
            raise ServiceError(400, "bad-request",
                               "field 'files' must be a non-empty list of "
                               "{name, source} objects")
        pairs = []
        for i, item in enumerate(files):
            if (not isinstance(item, dict)
                    or not isinstance(item.get("source"), str)):
                raise ServiceError(400, "bad-request",
                                   f"files[{i}] must be an object with a "
                                   f"string 'source'")
            tu_name = item.get("name", f"tu{i}.c")
            if not isinstance(tu_name, str):
                raise ServiceError(400, "bad-request",
                                   f"files[{i}].name must be a string")
            pairs.append((tu_name, item["source"]))
        return pairs

    @staticmethod
    def _bool_field(body: dict, name: str, default: bool) -> bool:
        value = body.get(name, default)
        if not isinstance(value, bool):
            raise ServiceError(400, "bad-request",
                               f"field {name!r} must be a boolean")
        return value

    def _validated_strategy(self, key: Optional[str]) -> str:
        key = key or self.config.default_strategy
        if key not in STRATEGY_BY_KEY:
            raise ServiceError(
                400, "bad-request",
                f"unknown strategy {key!r}; registered: "
                f"{', '.join(sorted(STRATEGY_BY_KEY))}",
            )
        return key

    def _validated_backend(self, name: Optional[str]) -> Optional[str]:
        if name is None:
            return self.config.backend
        try:
            return backend_name(name)
        except KeyError as err:
            raise ServiceError(400, "bad-request", err.args[0]) from None

    # ------------------------------------------------------------------
    # Solving (the one place engines are created per request).
    # ------------------------------------------------------------------
    def _solve(self, entry: PooledSession, strategy_key: str):
        """Solve (or fetch the cached result of) one strategy for ``entry``.

        Caller holds ``entry.lock``.  A repeat query hits the session's
        solve cache (counted as the server's ``solve_cache_hits``); a
        result loaded from the store is neither a hit nor a solve (the
        session document counts it in ``store.hits``).
        """
        strategy = _strategy(entry, strategy_key)
        session = entry.session
        hits, loads = session.solve_cache_hits, session.store_hits
        try:
            result = session.solve(strategy, backend=entry.backend)
        except AnalysisBudgetExceeded as err:
            raise ServiceError(
                422, "analysis-budget-exceeded",
                f"solve exceeded the server's fact budget: {err}",
            ) from None
        with self._counter_lock:
            if session.solve_cache_hits > hits:
                self.counters.solve_cache_hits += 1
            elif session.store_hits == loads:
                self.counters.solves += 1
        return result

    # ------------------------------------------------------------------
    # Handlers.
    # ------------------------------------------------------------------
    def _healthz(self, params, query, body):
        return 200, {
            "status": "ok",
            "sessions_live": self.pool.sessions_live,
            "uptime_seconds": time.monotonic() - self._started,
        }

    def _metrics(self, params, query, body):
        sessions = []
        for entry in self.pool.entries():
            with entry.lock:
                rec = session_metrics(entry.session)
                rec.update(
                    id=entry.id,
                    name=entry.name,
                    bytes_estimate=entry.bytes_estimate,
                    queries=entry.queries,
                    deltas=entry.deltas,
                )
                sessions.append(rec)
        with self._counter_lock:
            server = self.counters.as_dict()
        server.update(self.pool.counters())
        server["frontend_cache"] = self.frontend_cache.counters()
        server["uptime_seconds"] = time.monotonic() - self._started
        # Cyclic-collector activity since the server started, one entry
        # per generation.  Sessions hold no reference cycles, so a
        # DELETE frees its session by reference counting; ``collected``
        # counts what was left for the collector to find.
        server["gc"] = [
            {"generation": gen, "collections": st["collections"],
             "collected": st["collected"]}
            for gen, st in enumerate(gc.get_stats())
        ]
        return 200, {"server": server, "sessions": sessions}

    def _create_session(self, params, query, body):
        body = self._body(body)
        files = body.get("files")
        if files is not None and "source" in body:
            raise ServiceError(400, "bad-request",
                               "'source' and 'files' are mutually exclusive")
        if files is None:
            source = self._str_field(body, "source", required=True)
        else:
            source = None
        name = self._str_field(body, "name") or "<service>"
        strict = self._bool_field(body, "strict", self.config.default_strict)
        strategy_key = self._validated_strategy(
            self._str_field(body, "strategy"))
        abi = self._str_field(body, "abi") or self.config.default_abi
        if abi not in _ABIS:
            raise ServiceError(400, "bad-request",
                               f"unknown abi {abi!r}; expected one of "
                               f"{', '.join(_ABIS)}")
        backend = self._validated_backend(self._str_field(body, "backend"))

        program, sink = self._frontend(name, strict, source, files)
        session = AnalysisSession(
            program, diagnostics=sink, strict=strict,
            max_facts=self.config.max_facts, backend=backend,
            store=self.config.store,
        )
        entry = PooledSession(session, name, strategy_key, abi, strict,
                              backend)
        evicted = self.pool.add(entry)
        doc = entry.describe()
        return 201, {"session": doc, "evicted": [e.id for e in evicted]}

    def _frontend(self, name, strict, source, files):
        """The program and diagnostics of a create request: a private
        copy from the front-end cache, or a fresh front-end run that is
        stored there once it has passed the fatal checks."""
        sources = self._tu_sources(files) if files is not None else None
        key = frontend_key(name, strict, source=source, files=sources)
        cached = self.frontend_cache.get(key)
        if cached is not None:
            return cached
        sink = DiagnosticSink()
        try:
            if sources is not None:
                program = program_from_sources(sources, name, strict=strict,
                                               diagnostics=sink)
            else:
                program = program_from_c(source, name, strict=strict,
                                         diagnostics=sink)
        except FrontendError as err:
            raise from_frontend_error(err) from None
        fatal = from_fatal_sink(sink)
        if fatal is not None:
            raise fatal
        self.frontend_cache.put(key, program, sink)
        return program, sink

    def _list_sessions(self, params, query, body):
        docs = []
        for entry in self.pool.entries():
            with entry.lock:
                docs.append(entry.describe())
        return 200, {"sessions": docs}

    def _get_session(self, params, query, body):
        entry = self.pool.checkout(params["sid"])
        with entry.lock:
            return 200, {"session": entry.describe()}

    def _delete_session(self, params, query, body):
        entry = self.pool.remove(params["sid"])
        held = getattr(self._held, "sessions", None)
        if held is not None:
            held.append(entry)
        else:
            self._persist_deleted(entry)
        return 200, {"deleted": entry.id}

    def _add_statements(self, params, query, body):
        entry = self.pool.checkout(params["sid"])
        body = self._body(body)
        function = self._str_field(body, "function")
        if "statements" not in body:
            raise ServiceError(400, "bad-request",
                               "missing required field 'statements'")
        with entry.lock:
            program = entry.session.program
            if function is not None and function not in program.functions:
                raise ServiceError(
                    422, "unknown-object",
                    f"no function {function!r} in this session; defined: "
                    f"{sorted(program.functions)}",
                )
            stmts = statements_from_json(program, body["statements"], function)
            try:
                added = entry.session.add_statements(stmts, function=function)
            except AnalysisBudgetExceeded as err:
                # The program grew; the engines that could not re-solve
                # are gone, so a later query solves afresh.
                entry.deltas += 1
                raise ServiceError(
                    422, "analysis-budget-exceeded",
                    f"re-solve exceeded the server's fact budget: {err}",
                ) from None
            entry.deltas += 1
            resolved = len(entry.session.cached_results())
        self.pool.remeasure(entry)
        return 200, {
            "session": entry.id,
            "added": len(added),
            "function": function,
            "engines_resolved": resolved,
        }

    def _diagnostics(self, params, query, body):
        entry = self.pool.checkout(params["sid"])
        with entry.lock:
            sink = entry.session.diagnostics
            return 200, {
                "session": entry.id,
                "total": sink.total,
                "by_kind": sink.kinds(),
                "by_severity": sink.severities(),
                "records": diagnostics_json(sink),
            }

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def _query(self, params, query, body):
        kind = query.get("kind", "points_to")
        if kind not in QUERY_KINDS:
            raise ServiceError(
                400, "bad-request",
                f"unknown query kind {kind!r}; "
                f"expected one of {', '.join(QUERY_KINDS)}",
            )
        entry = self.pool.checkout(params["sid"])
        try:
            with entry.lock:
                strategy_key = self._validated_strategy(query.get("strategy")
                                                        or entry.strategy_key)
                result = self._solve(entry, strategy_key)
                entry.queries += 1
                payload = getattr(self, "_query_" + kind)(entry, result, query)
        finally:
            # A query may trigger the FIRST solve of a new strategy: the
            # session's real footprint grows whether or not the handler
            # then succeeds, so the byte-budget re-measurement must run
            # even when a 4xx (unknown target, unknown function) is on
            # its way out — otherwise the growth goes undetected until
            # some unrelated later mutation.
            self.pool.remeasure(entry)
        payload.update(session=entry.id, kind=kind, strategy=strategy_key)
        return 200, payload

    @staticmethod
    def _required_param(query: Dict[str, str], name: str) -> str:
        value = query.get(name)
        if not value:
            raise ServiceError(400, "bad-request",
                               f"query kind requires the {name!r} parameter")
        return value

    def _query_points_to(self, entry, result, query):
        target = self._required_param(query, "target")
        ref = resolve_ref(result.program, target,
                          query.get("function"))
        pts = result.points_to(ref)
        return {
            "target": target,
            "points_to": sorted(map(repr, pts)),
            "names": sorted({r.obj.name for r in pts}),
        }

    def _query_alias(self, entry, result, query):
        a = self._required_param(query, "a")
        b = self._required_param(query, "b")
        fn = query.get("function")
        ra = resolve_ref(result.program, a, fn)
        rb = resolve_ref(result.program, b, fn)
        return {
            "a": a,
            "b": b,
            "may_alias": may_alias(result, ra, rb),
            "may_point_to_same": may_point_to_same(result, ra, rb),
        }

    def _query_modref(self, entry, result, query):
        mr = mod_ref(result)
        fn = query.get("function")
        names = [fn] if fn else sorted(mr.mod)
        if fn and fn not in mr.mod:
            raise ServiceError(422, "unknown-object",
                               f"no function {fn!r} in this session")
        return {
            "functions": {
                name: {
                    "mod": sorted(mr.mod_of(name)),
                    "ref": sorted(mr.ref_of(name)),
                }
                for name in names
            }
        }

    def _query_callgraph(self, entry, result, query):
        cg = build_call_graph(result)
        return {
            "edges": {fn: sorted(callees)
                      for fn, callees in sorted(cg.edges.items())},
            "edge_count": cg.edge_count(),
            "indirect_sites": [
                {"caller": caller, "line": line, "targets": sorted(targets)}
                for (caller, line), targets in sorted(
                    cg.indirect_sites.items(),
                    key=lambda kv: (kv[0][0], kv[0][1] or 0),
                )
            ],
        }

    def _query_derefs(self, entry, result, query):
        ds = deref_stats(result)
        return {
            "sites": [
                {"line": site.line, "pointer": site.pointer_name,
                 "targets": site.set_size}
                for site in ds.sites
            ],
            "count": ds.count,
            "average": ds.average,
            "max": ds.maximum,
            "empty_sites": ds.empty_sites,
        }
