"""Span recorder and layer wrappers for the traced run.

Nothing under ``src/`` is changed: :func:`install` wraps the public entry
point of each layer in place and :func:`uninstall` puts the originals
back.  A plain function is rebound under every ``repro`` module name that
refers to it, because ``from x import f`` gives the caller its own name
for ``f``; a method is replaced on its class.

A span is ``(id, parent id, operation id, name, start, end, attrs)``.
Spans are kept in memory (one list per :class:`Recorder`) and written out
once, by :meth:`Recorder.dump`.  Operations nest per thread: the service
handler starts a fresh operation for each request it serves, so spans of
concurrent requests never share a parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.monotonic   # CLOCK_MONOTONIC: comparable across processes

Span = Tuple[int, int, int, str, float, float, Optional[dict]]


class Recorder:
    """In-memory span sink, safe to share between threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- operations and the per-thread span stack -----------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: int) -> None:
        self._local.op = op

    def op(self) -> int:
        return getattr(self._local, "op", 0)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span whose interval was measured elsewhere."""
        self.spans.append((next(self._ids), 0, self.op(), name, start, end,
                           None))

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None,
             root: bool = False) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, state)``, which returns
        the span's attributes.  A ``root`` wrapper starts a new
        operation when the calling thread is not inside a span.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if root and not stack:
                rec.set_op(next(rec._ids))
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            state = before(args, kwargs) if before is not None else None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = (after(args, kwargs, result, state)
                         if after is not None else None)
                rec.spans.append((sid, parent, rec.op(), name, start, end,
                                  attrs))

        return wrapper

    # -- patching --------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig, **kw))

    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Rebind ``fn`` under every loaded ``repro`` module name for it."""
        wrapper = self.wrap(name, fn, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name (newest first)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------
    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        doc = {"spans": self.spans}
        if extra:
            doc.update(extra)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)


# ----------------------------------------------------------------------
# The layers.
# ----------------------------------------------------------------------
#: Engine counters summed into the ``engine.*`` count metrics.
ENGINE_COUNTS = ("facts", "rule_firings", "lookup_calls", "resolve_calls",
                 "sccs_collapsed", "props_saved")
_MEMO = ("memo_lookup_hits", "memo_lookup_misses",
         "memo_resolve_hits", "memo_resolve_misses")


def _lines(args, kwargs):
    source = args[0] if args else kwargs.get("source", "")
    return {"lines": source.count("\n") + 1}


def _after_lines(args, kwargs, result, state):
    return state


def _after_normalize(args, kwargs, result, state):
    if result is None:
        return None
    return {"program": result.name, "stmts": result.stmt_count()}


def _after_link(args, kwargs, result, state):
    if result is None or result.link_info is None:
        return None
    info = result.link_info
    return {"program": result.name, "tus": info.tus_linked,
            "externs": info.externs_resolved}


def _strategy_of_engine(args, kwargs, result, state):
    return {"strategy": args[0].strategy.key}


def _before_solve(args, kwargs):
    strategy = args[0].strategy
    return [getattr(strategy, k) for k in _MEMO]


def _after_solve(args, kwargs, result, state):
    engine = args[0]
    strategy = engine.strategy
    attrs = {"strategy": strategy.key, "program": engine.program.name,
             "stmts": engine.program.stmt_count()}
    memo = [getattr(strategy, k) - v for k, v in zip(_MEMO, state)]
    attrs["memo_hits"] = memo[0] + memo[2]
    attrs["memo_attempts"] = sum(memo)
    if result is not None:
        st = result.stats
        attrs.update(
            facts=st.facts,
            rule_firings=(st.rule1_firings + st.rule2_firings + st.rule3_firings
                          + st.rule4_firings + st.rule5_firings),
            lookup_calls=st.lookup_calls,
            resolve_calls=st.resolve_calls,
            sccs_collapsed=st.sccs_collapsed,
            props_saved=st.props_saved,
        )
    return attrs


def _after_demand(args, kwargs, result, state):
    if result is None:
        return None
    return {"widened": bool(result.widened), "installed": result.installed,
            "stmts": args[0].stmt_count()}


def _after_load(args, kwargs, result, state):
    strategy = args[2] if len(args) > 2 else kwargs["strategy"]
    return {"strategy": strategy.key, "hit": result is not None}


def _route(method: str, path: str) -> str:
    if path == "/v1/sessions":
        return "create" if method == "POST" else "list"
    if path.startswith("/v1/sessions/"):
        if path.endswith("/query"):
            return "query"
        if path.endswith("/statements"):
            return "statements"
        if method == "DELETE":
            return "delete"
        return "get"
    return "other"


def _after_handle(args, kwargs, result, state):
    method = args[1] if len(args) > 1 else kwargs["method"]
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"route": _route(method, path),
            "status": result[0] if result is not None else 500}


#: Layer groups :func:`install` can select.
GROUPS = ("frontend", "link", "engine", "session", "demand", "store",
          "clients", "service")


def install(rec: Recorder, groups: Iterable[str] = GROUPS) -> None:
    """Wrap the entry point of every layer in ``groups``."""
    groups = set(groups)
    import repro.frontend.parse as parse_mod
    import repro.frontend  # noqa: F401  (binds parse_c / preprocess)
    from repro.frontend.normalizer import Normalizer

    if "link" in groups:
        import repro.link
        import repro.link.linker as linker
        import repro.link.split  # noqa: F401
        import repro.link.tu  # noqa: F401
    if "frontend" in groups:
        rec.patch_function(parse_mod.preprocess, "frontend.preprocess")
        rec.patch_function(parse_mod.parse_c, "frontend.parse",
                           before=_lines, after=_after_lines)
        rec.patch_method(Normalizer, "run", "frontend.normalize",
                         after=_after_normalize)
    if "link" in groups:
        rec.patch_function(linker.link_sources, "link.link", after=_after_link)
    if "engine" in groups:
        from repro.core.engine import Engine

        rec.patch_method(Engine, "solve", "engine.solve",
                         before=_before_solve, after=_after_solve)
        rec.patch_method(Engine, "drain", "engine.drain",
                         after=_strategy_of_engine)
    if "session" in groups:
        from repro.session import AnalysisSession

        rec.patch_method(AnalysisSession, "solve", "session.solve")
        rec.patch_method(AnalysisSession, "add_statements",
                         "session.add_statements")
    if "demand" in groups:
        import repro.core.demand as demand

        rec.patch_function(demand.solve_demand, "demand.solve",
                           after=_after_demand)
    if "store" in groups:
        from repro.store import ResultStore

        rec.patch_method(ResultStore, "load", "store.load", after=_after_load)
        rec.patch_method(ResultStore, "put", "store.put")
    if "service" in groups:
        import repro.service.app as app

        rec.patch_method(app.ServiceApp, "handle", "service.handle",
                         after=_after_handle, root=True)
    if "clients" in groups:
        import repro.clients.alias as alias
        import repro.clients.callgraph as callgraph
        import repro.clients.derefstats as derefstats
        import repro.clients.modref as modref

        for fn in (derefstats.deref_stats, alias.may_alias,
                   alias.may_point_to_same, modref.mod_ref,
                   callgraph.build_call_graph):
            rec.patch_function(fn, "clients.query")


# ----------------------------------------------------------------------
# Analysis of recorded spans.
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _op, _name, start, end, _attrs in spans:
        if parent:
            children[parent].append((start, end))
    return {sid: (end - start) - _union_length(children.get(sid, []))
            for sid, _p, _op, _n, start, end, _a in spans}


def covered(spans: Sequence[Span]) -> float:
    """Wall time covered by at least one of ``spans``."""
    return _union_length([(s[4], s[5]) for s in spans])


def load_dump(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc["spans"] = [tuple(s) for s in doc["spans"]]
    return doc
