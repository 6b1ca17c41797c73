"""Reference counting alone frees a solved engine and its fact base.

Rule closures receive their engine as an argument and interned refs
cache a per-fact-base token, so a solved :class:`~repro.core.engine.Engine`
holds no reference cycle: dropping the last reference frees the engine,
its :class:`~repro.core.facts.FactBase`, its
:class:`~repro.core.graph.ConstraintGraph` and its strategy at once.
Every check here runs with the cyclic collector switched off and never
calls ``gc.collect()``, including the one that a parse leaves no
pycparser token behind; ``tests/test_engine_perf_layer.py`` and
``tests/test_service.py`` keep the collector-based checks that programs
and struct types die too.

The last test bounds the peak RSS of ``python -m repro FILE --compare``
by that of the largest single-strategy run of the same file: with each
strategy released after its row, the comparison holds one solved engine
at a time.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import AnalysisSession, Engine, program_from_c
from repro.core import ALL_STRATEGIES, CommonInitialSequence, Offsets
from repro.core.demand import solve_demand
from repro.core.modular import solve_modular
from repro.service import ServiceApp, ServiceConfig
from repro.store import ResultStore

#: Structures, casts, pointer arithmetic, an indirect call and the
#: library summaries that subscribe to pairs of pointees (memcpy, qsort).
SRC = """
typedef unsigned long size_t;
void *memcpy(void *dst, const void *src, size_t n);
void qsort(void *base, size_t n, size_t size,
           int (*cmp)(const void *, const void *));
struct S { int *a; int *b; } s, t;
struct T { int *a; char c; } *tp;
int x, y, *p, *q, arr[4], *elems[4];
int cmp(const void *l, const void *r) { return l == r; }
void set(int **out) { *out = &y; }
void (*fp)(int **);
void main(void) {
    s.a = &x; s.b = &y;
    memcpy(&t, &s, sizeof s);
    tp = (struct T *) &s;
    p = tp->a;
    q = arr + 1;
    elems[0] = &x;
    qsort(elems, 4, sizeof elems[0], cmp);
    fp = set;
    fp(&p);
}
"""


@contextmanager
def collector_off():
    """Switch the cyclic collector off (restoring its state after)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def engine_refs(engine: Engine):
    """Weak references to an engine and everything it owns."""
    return [weakref.ref(o) for o in
            (engine, engine.facts, engine.graph, engine.strategy)]


def alive(refs):
    return [r() for r in refs if r() is not None]


class TestEnginesDieByRefcount:
    def test_plain_and_traced_solves(self):
        program = program_from_c(SRC)
        with collector_off():
            for trace in (False, True):
                for cls in ALL_STRATEGIES:
                    engine = Engine(program, cls(), trace=trace)
                    result = engine.solve()
                    assert result.facts.edge_count() > 0
                    refs = engine_refs(engine)
                    del engine, result
                    assert alive(refs) == [], (cls.key, trace)

    def test_add_statements(self):
        with collector_off():
            for cls in ALL_STRATEGIES:
                program = program_from_c(SRC)
                main = program.functions["main"]
                held = main.stmts[-4:]
                del main.stmts[-4:]
                session = AnalysisSession(program)
                session.solve(cls())
                session.add_statements(held, function="main")
                (engine,) = session._engines.values()
                assert engine.stats.incremental_solves == 1
                refs = engine_refs(engine)
                del engine, session
                assert alive(refs) == [], cls.key

    def test_demand_and_modular_solves(self):
        program = program_from_c(SRC)
        with collector_off():
            strategy = Offsets()
            dres = solve_demand(program, strategy, [program.objects.lookup("p")])
            refs = [weakref.ref(strategy), weakref.ref(dres.result.facts)]
            del strategy, dres
            assert alive(refs) == []
            strategy = CommonInitialSequence()
            mres = solve_modular(program, strategy)
            refs = [weakref.ref(strategy), weakref.ref(mres.result.facts)]
            del strategy, mres
            assert alive(refs) == []

    def test_store_warm_start(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        AnalysisSession(program_from_c(SRC), store=store).solve(Offsets())
        with collector_off():
            session = AnalysisSession(program_from_c(SRC), store=store)
            strategy = Offsets()
            result = session.solve(strategy)
            assert session.store_hits == 1
            refs = [weakref.ref(strategy), weakref.ref(result.facts)]
            del strategy, result, session
            assert alive(refs) == []

    def test_released_strategy_dies(self):
        session = AnalysisSession(program_from_c(SRC))
        with collector_off():
            strategy = Offsets()
            session.solve(strategy)
            (engine,) = session._engines.values()
            refs = engine_refs(engine)
            del engine
            session.release(strategy)
            del strategy
            assert alive(refs) == []
            assert session.cached_results() == []

    def test_service_delete(self):
        app = ServiceApp(ServiceConfig(pool_size=4))
        status, payload = app.handle("POST", "/v1/sessions", None,
                                     {"source": SRC})
        assert status == 201, payload
        sid = payload["session"]["id"]
        with collector_off():
            for key in ("offsets", "collapse_always"):
                status, payload = app.handle(
                    "GET", f"/v1/sessions/{sid}/query",
                    {"kind": "points_to", "target": "p", "strategy": key})
                assert status == 200, payload
            session = app.pool.checkout(sid).session
            refs = [r for e in session._engines.values()
                    for r in engine_refs(e)]
            assert len(refs) == 8
            del session
            status, _ = app.handle("DELETE", f"/v1/sessions/{sid}")
            assert status == 200
            assert alive(refs) == []

    def test_service_delete_of_a_cached_program(self):
        """A session built from a front-end cache hit dies like any other:
        the cache keeps only the pickled bytes, never a live program."""
        app = ServiceApp(ServiceConfig(pool_size=4))
        for _ in range(2):
            status, payload = app.handle("POST", "/v1/sessions", None,
                                         {"source": SRC})
            assert status == 201, payload
        sid = payload["session"]["id"]
        assert app.frontend_cache.counters()["hits"] == 1
        with collector_off():
            for cls in ALL_STRATEGIES:
                status, payload = app.handle(
                    "GET", f"/v1/sessions/{sid}/query",
                    {"kind": "points_to", "target": "p", "strategy": cls.key})
                assert status == 200, payload
            session = app.pool.checkout(sid).session
            refs = [weakref.ref(e.facts) for e in session._engines.values()]
            assert len(refs) == 4
            del session
            status, _ = app.handle("DELETE", f"/v1/sessions/{sid}")
            assert status == 200
            assert alive(refs) == []
        assert all(type(data) is bytes
                   for data in app.frontend_cache._entries.values())

    def test_service_delete_frees_after_the_response(self):
        """Over HTTP the session outlives the handler until the response
        is written (``releasing_after``), then dies at once."""
        app = ServiceApp(ServiceConfig(pool_size=4))
        status, payload = app.handle("POST", "/v1/sessions", None,
                                     {"source": SRC})
        sid = payload["session"]["id"]
        with collector_off():
            status, _ = app.handle("GET", f"/v1/sessions/{sid}/query",
                                   {"kind": "derefs", "strategy": "offsets"})
            assert status == 200
            (engine,) = app.pool.checkout(sid).session._engines.values()
            refs = engine_refs(engine)
            del engine
            with app.releasing_after():
                status, _ = app.handle("DELETE", f"/v1/sessions/{sid}")
                assert status == 200
                assert len(alive(refs)) == 4
            assert alive(refs) == []


def _tokens() -> int:
    """pycparser tokens still alive (they are tracked by the collector)."""
    return sum(1 for o in gc.get_objects() if type(o).__name__ == "_Token")


def test_parse_leaves_no_tokens_to_the_collector():
    """A parse frees its tokens by reference counting, also when it fails."""
    from repro.frontend.parse import ParseError, parse_c, prelude_nodes
    from repro.suite.registry import by_name, program_dir

    source = (program_dir() / by_name("bc").filename).read_text()
    prelude_nodes()                 # the once-per-process prelude parse
    with collector_off():
        before = _tokens()
        ast = parse_c(source, "bc.c")
        assert ast.ext
        parse_c("int x = ;", "bad.c", strict=False)
        try:
            parse_c("int x = ;", "bad.c")
        except ParseError:
            pass
        else:
            raise AssertionError("the syntax error was not raised")
        assert _tokens() == before


#: Runs ``argv[1:]``, reaps it with ``wait4`` and prints its exit code
#: and peak RSS (KiB).  A child's ``ru_maxrss`` starts from the RSS of
#: the process that spawned it, so the analyses are spawned from this
#: small launcher rather than from the test process.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _peak_rss_mb(args) -> float:
    """Peak RSS of ``python -m repro ARGS``, in MB."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "0", args
    return int(out[1]) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_compare_peak_rss_is_one_strategy():
    """``--compare`` releases each strategy after its row, so its peak
    RSS stays within 1 MB of the largest single-strategy run."""
    from repro.suite.registry import by_name, program_dir

    path = str(program_dir() / by_name("bc").filename)
    compare = _peak_rss_mb([path, "--compare"])
    single = max(_peak_rss_mb([path, "-s", cls.key]) for cls in ALL_STRATEGIES)
    assert compare <= single + 1.0, (compare, single)
