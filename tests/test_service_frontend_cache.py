"""The service's front-end cache (:mod:`repro.service.frontcache`).

A create request whose source text, name and mode the server has seen
before gets a private unpickled copy of the first front-end run instead
of a new parse.  The differential half checks that a cached copy is the
program a fresh front-end run builds — same store keys, statements,
diagnostics and solved facts — over the suite (strict), the crash corpus
(lenient) and a linked 4-TU split; the rest checks that copies are
private, failures are never cached, the byte bound evicts the least
recently used program, and concurrent creates of one source both work.
"""

from __future__ import annotations

import pathlib
import sys
import threading

import pytest

import repro.frontend.parse as parse_mod
from repro.core import ALL_STRATEGIES
from repro.diag import DiagnosticSink
from repro.frontend import program_from_c, program_from_sources
from repro.ir.refs import FieldRef
from repro.link import split_translation_units
from repro.service import ServiceApp, ServiceConfig
from repro.service.errors import diagnostics_json
from repro.session import AnalysisSession
from repro.store import store_key
from repro.suite.registry import SUITE, by_name, load_source

CORPUS = pathlib.Path(__file__).parent / "corpus"

SRC = """
struct S { int *s1; int *s2; } s;
int x, y, *p;
void main(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }
"""


def create(app, **body):
    return app.handle("POST", "/v1/sessions", None, body)


def created_session(app, **body):
    status, payload = create(app, **body)
    assert status == 201, payload
    sid = payload["session"]["id"]
    return sid, app.pool.checkout(sid).session


def cache_counters(app):
    status, payload = app.handle("GET", "/metrics")
    assert status == 200
    return payload["server"]["frontend_cache"]


def points_to(app, sid, target, strategy="offsets"):
    status, payload = app.handle("GET", f"/v1/sessions/{sid}/query",
                                 {"kind": "points_to", "target": target,
                                  "strategy": strategy})
    assert status == 200, payload
    return payload["names"]


def fingerprint(program, sink, strict):
    """Everything a cached copy must share with a fresh front-end run."""
    keys = [store_key(program, cls(), strict=strict) for cls in ALL_STRATEGIES]
    stmts = [repr(st) for st in program.all_stmts()]
    facts = []
    for cls in ALL_STRATEGIES:
        result = AnalysisSession(program, strict=strict).solve(cls())
        facts.append(sorted((repr(src), repr(dst))
                            for src, dst in result.facts.all_facts()))
    return keys, stmts, facts, diagnostics_json(sink)


def field_refs(program):
    """The statement operands that are refs (``&t.β`` and ``x = t.β``)."""
    return [ref for st in program.all_stmts() for ref in
            (getattr(st, "target", None), getattr(st, "rhs", None))
            if isinstance(ref, FieldRef)]


def cached_copy(app, strict, **body):
    """Create ``body`` twice; the second session must be a cache hit."""
    before = cache_counters(app)["hits"]
    created_session(app, strict=strict, **body)
    sid, session = created_session(app, strict=strict, **body)
    assert cache_counters(app)["hits"] == before + 1
    assert session.program.diagnostics is session.diagnostics.records
    app.handle("DELETE", f"/v1/sessions/{sid}")
    return session


@pytest.fixture
def app():
    return ServiceApp(ServiceConfig(pool_size=4))


class TestCachedEqualsFresh:
    @pytest.mark.parametrize("prog", SUITE, ids=lambda p: p.name)
    def test_suite_strict(self, app, prog):
        source = load_source(prog)
        session = cached_copy(app, True, source=source, name=prog.filename)
        sink = DiagnosticSink()
        fresh = program_from_c(source, prog.filename, strict=True,
                               diagnostics=sink)
        assert (fingerprint(session.program, session.diagnostics, True)
                == fingerprint(fresh, sink, True))

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.c")),
                             ids=lambda p: p.name)
    def test_corpus_lenient(self, app, path):
        source = path.read_text()
        sink = DiagnosticSink()
        fresh = program_from_c(source, path.name, strict=False,
                               diagnostics=sink)
        if sink.has_fatal:
            for _ in range(2):
                status, _ = create(app, source=source, name=path.name,
                                   strict=False)
                assert status == 422
            assert cache_counters(app)["entries"] == 0
            return
        session = cached_copy(app, False, source=source, name=path.name)
        assert (fingerprint(session.program, session.diagnostics, False)
                == fingerprint(fresh, sink, False))

    def test_linked_split(self, app):
        tus = split_translation_units(load_source(by_name("bc")), "bc.c",
                                      parts=4)
        assert len(tus) == 4
        files = [{"name": tu, "source": text} for tu, text in tus]
        session = cached_copy(app, True, files=files, name="bc-split")
        sink = DiagnosticSink()
        fresh = program_from_sources(tus, "bc-split", strict=True,
                                     diagnostics=sink)
        assert session.program.link_info is not None
        assert (fingerprint(session.program, session.diagnostics, True)
                == fingerprint(fresh, sink, True))

    def test_a_hit_runs_no_parser(self, app, monkeypatch):
        calls = []
        original = parse_mod.parse_c

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, "parse_c",
                                                    None) is original:
                monkeypatch.setattr(mod, "parse_c", counting)
        created_session(app, source=SRC)
        assert len(calls) == 1
        created_session(app, source=SRC)
        assert len(calls) == 1
        counters = cache_counters(app)
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert counters["entries"] == 1 and counters["bytes"] > 0

    def test_key_covers_name_and_mode(self, app):
        created_session(app, source=SRC, name="a.c")
        created_session(app, source=SRC, name="b.c")
        created_session(app, source=SRC, name="a.c", strict=False)
        created_session(app, files=[{"name": "a.c", "source": SRC}],
                        name="a.c")
        counters = cache_counters(app)
        assert counters["hits"] == 0 and counters["entries"] == 4

    def test_copies_recompute_ref_hashes(self):
        """A ref hashed before the program is cached (its hash comes from
        its object's address) hashes like a fresh ref in every copy."""
        program = program_from_c(SRC)
        for ref in field_refs(program):
            hash(ref)
        app = ServiceApp()
        key = b"k"
        app.frontend_cache.put(key, program, DiagnosticSink())
        copy, _ = app.frontend_cache.get(key)
        refs = field_refs(copy)
        assert refs
        for ref in refs:
            assert hash(ref) == hash(FieldRef(ref.obj, ref.path))


class TestPrivacyAndFailures:
    def test_a_delta_stays_in_its_session(self, app):
        first, _ = created_session(app, source=SRC)
        hit, session = created_session(app, source=SRC)
        count = session.program.stmt_count()
        assert points_to(app, first, "p") == ["x"]
        for sid in (hit, first):
            status, payload = app.handle(
                "POST", f"/v1/sessions/{sid}/statements", None,
                {"statements": [{"form": "addrof", "lhs": "p",
                                 "target": "y"}]})
            assert status == 200, payload
            assert points_to(app, sid, "p") == ["x", "y"]
            third, fresh = created_session(app, source=SRC)
            assert fresh.program.stmt_count() == count
            assert points_to(app, third, "p") == ["x"]
        assert cache_counters(app)["hits"] == 3

    def test_a_live_sibling_keeps_its_answers(self, app):
        sibling, _ = created_session(app, source=SRC)
        before = points_to(app, sibling, "p")
        hit, _ = created_session(app, source=SRC)
        app.handle("POST", f"/v1/sessions/{hit}/statements", None,
                   {"statements": [{"form": "addrof", "lhs": "p",
                                    "target": "y"}]})
        assert points_to(app, hit, "p") == ["x", "y"]
        assert points_to(app, sibling, "p") == before == ["x"]

    def test_rejected_source_is_never_cached(self, app):
        source = (CORPUS / "parse_error.c").read_text()
        answers = [create(app, source=source, name="parse_error.c")
                   for _ in range(2)]
        assert answers[0][0] == answers[1][0] and 400 <= answers[0][0] < 500
        assert answers[0][1]["error"] == answers[1][1]["error"]
        counters = cache_counters(app)
        assert counters["misses"] == 2 and counters["hits"] == 0
        assert counters["entries"] == 0 and counters["bytes"] == 0

    def test_the_byte_bound_evicts_least_recently_used(self):
        sources = [SRC.replace("y", name) for name in ("ya", "yb", "yc")]
        probe = ServiceApp()
        sizes = []
        for source in sources:
            before = cache_counters(probe)["bytes"]
            created_session(probe, source=source)
            sizes.append(cache_counters(probe)["bytes"] - before)
        app = ServiceApp(ServiceConfig(byte_budget=8 * (sum(sizes) - 1)))
        a, b, c = sources
        for source in (a, b, a, c):
            created_session(app, source=source)
        counters = cache_counters(app)
        assert counters["evictions"] == 1 and counters["entries"] == 2
        assert counters["bytes"] == sizes[0] + sizes[2]
        created_session(app, source=a)
        assert cache_counters(app)["hits"] == 2
        created_session(app, source=b)
        assert cache_counters(app)["misses"] == 4

    def test_concurrent_creates_of_one_source(self, app):
        answers = race(app, [[SRC], [SRC]])
        for status, payload in answers:
            assert status == 201, payload
            assert points_to(app, payload["session"]["id"], "p") == ["x"]
        assert len({payload["session"]["id"] for _, payload in answers}) == 2
        counters = cache_counters(app)
        assert counters["hits"] + counters["misses"] == 2
        assert counters["entries"] == 1

    def test_racing_creates_lose_no_count(self):
        """More threads than cores, a short switch interval, three
        sources: every create is counted once and the byte total matches
        the entries held."""
        app = ServiceApp(ServiceConfig(pool_size=64))
        sources = [SRC.replace("y", name) for name in ("ya", "yb", "yc")]
        answers = race(app, [[sources[(i + r) % 3] for r in range(3)]
                             for i in range(8)])
        assert len(answers) == 24
        for status, payload in answers:
            assert status == 201, payload
            assert points_to(app, payload["session"]["id"], "p") == ["x"]
        counters = cache_counters(app)
        assert counters["hits"] + counters["misses"] == 24
        assert counters["entries"] == 3
        assert counters["bytes"] == sum(
            len(data) for data in app.frontend_cache._entries.values())


def race(app, plans):
    """One thread per plan (a list of sources to create in turn), all
    released at once under a short switch interval; the answers."""
    barrier = threading.Barrier(len(plans))
    answers = []

    def worker(sources):
        barrier.wait()
        for source in sources:
            answers.append(create(app, source=source))

    threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return answers
