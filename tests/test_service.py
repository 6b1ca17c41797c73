"""App-level tests for the analysis service (no sockets).

:class:`repro.service.app.ServiceApp` maps requests to JSON responses
without HTTP, so the session lifecycle, the pool's LRU/byte-budget
semantics, the delta codec, the query surface, and the error model are
all tested here directly; ``tests/test_service_http.py`` covers the
wire (concurrency, fuzz-over-HTTP, the ``serve`` CLI).
"""

from __future__ import annotations

import gc
import weakref

import pytest
from conftest import struct_types

from repro.core import STRATEGY_BY_KEY
from repro.service import ServiceApp, ServiceConfig, ServiceError
from repro.service.codec import resolve_ref, statements_from_json
from repro.service.pool import SessionPool
from repro.suite.generator import GenConfig, generate_program

SRC = """
struct S { int *s1; int *s2; } s;
int x, y, *p;
void main(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }
"""


@pytest.fixture
def app():
    return ServiceApp(ServiceConfig(pool_size=4))


def create(app, source=SRC, **fields):
    status, payload = app.handle("POST", "/v1/sessions", None,
                                 {"source": source, **fields})
    assert status == 201, payload
    return payload


def _query_and_delete_sessions(app, seeds):
    """Create one session per generated program, query it under every
    strategy (whole-program and demand), delete it; return weakrefs to
    each program and its struct types."""
    refs = []
    for seed in seeds:
        source = generate_program(seed, GenConfig(n_statements=60))
        sid = create(app, source=source)["session"]["id"]
        for key in STRATEGY_BY_KEY:
            for query in ({"kind": "derefs"},
                          {"kind": "points_to", "target": "p0",
                           "demand": "1"}):
                status, payload = app.handle(
                    "GET", f"/v1/sessions/{sid}/query",
                    {**query, "strategy": key})
                assert status == 200, payload
        program = app.pool.checkout(sid).session.program
        refs.append(weakref.ref(program))
        refs.extend(weakref.ref(t) for t in struct_types(program))
        status, _ = app.handle("DELETE", f"/v1/sessions/{sid}")
        assert status == 200
    return refs


class TestLifecycle:
    def test_create_returns_session_document(self, app):
        doc = create(app, name="unit.c")["session"]
        assert doc["name"] == "unit.c"
        assert doc["functions"] == ["main"]
        assert doc["statements"] > 0
        assert doc["strict"] is True
        assert doc["solved"] == []          # solves happen on query
        assert doc["diagnostics"]["total"] == 0

    def test_get_and_list(self, app):
        sid = create(app)["session"]["id"]
        status, payload = app.handle("GET", f"/v1/sessions/{sid}")
        assert status == 200 and payload["session"]["id"] == sid
        status, payload = app.handle("GET", "/v1/sessions")
        assert [d["id"] for d in payload["sessions"]] == [sid]

    def test_points_to_query(self, app):
        sid = create(app)["session"]["id"]
        status, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                               {"kind": "points_to", "target": "p"})
        assert status == 200
        assert q["names"] == ["x"]
        assert q["strategy"] == "common_initial_sequence"

    def test_field_query_and_strategy_override(self, app):
        sid = create(app)["session"]["id"]
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "points_to", "target": "s.s2"})
        assert q["names"] == ["y"]
        # collapse_always merges the struct: p sees both targets.
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "points_to", "target": "p",
                           "strategy": "collapse_always"})
        assert q["names"] == ["x", "y"]

    def test_delta_grows_cached_result(self, app):
        sid = create(app)["session"]["id"]
        app.handle("GET", f"/v1/sessions/{sid}/query",
                   {"kind": "points_to", "target": "p"})
        status, r = app.handle(
            "POST", f"/v1/sessions/{sid}/statements", None,
            {"function": "main",
             "statements": [{"form": "addrof", "lhs": "p", "target": "y"}]},
        )
        assert status == 200
        assert r["added"] == 1 and r["engines_resolved"] == 1
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "points_to", "target": "p"})
        assert q["names"] == ["x", "y"]

    def test_delete_then_404(self, app):
        sid = create(app)["session"]["id"]
        status, payload = app.handle("DELETE", f"/v1/sessions/{sid}")
        assert status == 200 and payload["deleted"] == sid
        status, payload = app.handle("GET", f"/v1/sessions/{sid}")
        assert status == 404
        assert payload["error"]["kind"] == "unknown-session"

    def test_deleted_sessions_free_their_programs(self, app):
        """A deleted session leaves nothing behind: no strategy, layout
        or field-path memo keeps its program or struct types alive."""
        refs = _query_and_delete_sessions(app, seeds=(0, 1, 2))
        gc.collect()
        assert app.pool.sessions_live == 0
        assert [r() for r in refs if r() is not None] == []

    def test_session_strategies_share_its_abi_layout(self, app):
        sid = create(app, abi="lp64")["session"]["id"]
        for key in ("offsets", "collapse_on_cast"):
            status, _ = app.handle("GET", f"/v1/sessions/{sid}/query",
                                   {"kind": "derefs", "strategy": key})
            assert status == 200
        entry = app.pool.checkout(sid)
        layouts = {id(s.layout) for s in entry.strategies.values()}
        assert layouts == {id(entry.layout)}
        assert entry.layout.abi.name == "lp64"

    def test_query_cache_hit_counters(self, app):
        sid = create(app)["session"]["id"]
        for _ in range(3):
            app.handle("GET", f"/v1/sessions/{sid}/query",
                       {"kind": "points_to", "target": "p"})
        assert app.counters.solves == 1
        assert app.counters.solve_cache_hits == 2


class TestQueries:
    SRC_CALLS = """
    int g, *p;
    void callee(void) { p = &g; }
    void (*fp)(void);
    void main(void) { fp = callee; (*fp)(); }
    """

    def test_alias(self, app):
        sid = create(app)["session"]["id"]
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "alias", "a": "p", "b": "s.s1"})
        assert q["may_alias"] is True and q["may_point_to_same"] is True
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "alias", "a": "p", "b": "s.s2"})
        assert q["may_alias"] is False

    def test_callgraph_resolves_function_pointer(self, app):
        sid = create(app, source=self.SRC_CALLS)["session"]["id"]
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "callgraph"})
        assert q["edges"]["main"] == ["callee"]
        [site] = q["indirect_sites"]
        assert site["targets"] == ["callee"]

    def test_modref(self, app):
        sid = create(app, source=self.SRC_CALLS)["session"]["id"]
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "modref", "function": "main"})
        # main transitively modifies p through the indirect call.
        assert "p" in q["functions"]["main"]["mod"]

    def test_derefs(self, app):
        sid = create(app, source=self.SRC_CALLS)["session"]["id"]
        _, q = app.handle("GET", f"/v1/sessions/{sid}/query",
                          {"kind": "derefs"})
        assert q["count"] >= 1 and q["average"] >= 1.0

    def test_diagnostics_endpoint(self, app):
        doc = create(app, source="int *p; int g;\n"
                     "void main(void) { p = &g; g = g.oops; }",
                     strict=False)
        sid = doc["session"]["id"]
        status, d = app.handle("GET", f"/v1/sessions/{sid}/diagnostics")
        assert status == 200
        assert d["by_kind"] == {"member-on-non-struct": 1}
        [rec] = d["records"]
        assert rec["severity"] == "ERROR" and rec["line"] == 2


class TestErrorModel:
    def test_strict_hostile_input_is_422_with_diagnostics(self, app):
        status, payload = app.handle("POST", "/v1/sessions", None,
                                     {"source": "int x = ;"})
        assert status == 422
        err = payload["error"]
        assert err["kind"] == "analysis-failed"
        assert err["diagnostics"][0]["severity"] in ("ERROR", "FATAL")

    def test_lenient_fatal_is_still_422(self, app):
        status, payload = app.handle("POST", "/v1/sessions", None,
                                     {"source": "int x = ;", "strict": False})
        assert status == 422
        assert payload["error"]["diagnostics"][0]["severity"] == "FATAL"

    def test_missing_source_field(self, app):
        status, payload = app.handle("POST", "/v1/sessions", None, {})
        assert status == 400
        assert payload["error"]["kind"] == "bad-request"

    def test_unknown_strategy_abi_backend(self, app):
        for fields in ({"strategy": "nope"}, {"abi": "pdp11"},
                       {"backend": "nope"}):
            status, payload = app.handle("POST", "/v1/sessions", None,
                                         {"source": SRC, **fields})
            assert status == 400, fields
            assert payload["error"]["kind"] == "bad-request"

    def test_unknown_endpoint_and_method(self, app):
        status, payload = app.handle("GET", "/v2/nope")
        assert status == 404
        assert payload["error"]["kind"] == "unknown-endpoint"
        status, payload = app.handle("DELETE", "/healthz")
        assert status == 405
        assert payload["error"]["kind"] == "method-not-allowed"

    def test_unknown_query_object_is_422(self, app):
        sid = create(app)["session"]["id"]
        status, payload = app.handle("GET", f"/v1/sessions/{sid}/query",
                                     {"kind": "points_to", "target": "zzz"})
        assert status == 422
        assert payload["error"]["kind"] == "unknown-object"

    def test_bad_delta_applies_nothing(self, app):
        sid = create(app)["session"]["id"]
        before = app.handle("GET", f"/v1/sessions/{sid}")[1]["session"]
        status, payload = app.handle(
            "POST", f"/v1/sessions/{sid}/statements", None,
            {"statements": [
                {"form": "addrof", "lhs": "p", "target": "y"},
                {"form": "warp", "lhs": "p"},          # decode fails here
            ]},
        )
        assert status == 422
        assert payload["error"]["kind"] == "bad-statement"
        after = app.handle("GET", f"/v1/sessions/{sid}")[1]["session"]
        assert after["statements"] == before["statements"]  # all-or-nothing

    def test_delta_unknown_function(self, app):
        sid = create(app)["session"]["id"]
        status, payload = app.handle(
            "POST", f"/v1/sessions/{sid}/statements", None,
            {"function": "nope",
             "statements": [{"form": "load", "lhs": "p", "ptr": "p"}]},
        )
        assert status == 422
        assert payload["error"]["kind"] == "unknown-object"


class TestPool:
    def test_lru_eviction_under_tiny_cap(self):
        app = ServiceApp(ServiceConfig(pool_size=2))
        s1 = create(app)["session"]["id"]
        s2 = create(app)["session"]["id"]
        doc = create(app)                    # pool full: evicts s1 (LRU)
        assert doc["evicted"] == [s1]
        s3 = doc["session"]["id"]
        assert app.handle("GET", f"/v1/sessions/{s1}")[0] == 404
        # Touch s2 so s3 becomes LRU; next create must evict s3.
        app.handle("GET", f"/v1/sessions/{s2}")
        doc = create(app)
        assert doc["evicted"] == [s3]
        assert app.pool.counters()["evictions"] == 2
        assert app.pool.counters()["sessions_live"] == 2

    def test_byte_budget_eviction(self):
        app = ServiceApp(ServiceConfig(pool_size=100, byte_budget=60_000))
        ids = [create(app)["session"]["id"] for _ in range(4)]
        counters = app.pool.counters()
        assert counters["evictions"] >= 1
        assert counters["bytes_live"] <= 60_000
        # The newest session always survives its own admission.
        assert app.handle("GET", f"/v1/sessions/{ids[-1]}")[0] == 200

    def test_single_giant_session_survives_alone(self):
        # One session over the whole budget must not be evicted for
        # being alone — only older tenants make room.
        app = ServiceApp(ServiceConfig(pool_size=4, byte_budget=1))
        sid = create(app)["session"]["id"]
        assert app.handle("GET", f"/v1/sessions/{sid}")[0] == 200
        sid2 = create(app)["session"]["id"]
        assert app.handle("GET", f"/v1/sessions/{sid}")[0] == 404
        assert app.handle("GET", f"/v1/sessions/{sid2}")[0] == 200

    def test_pool_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SessionPool(capacity=0)


class TestMetricsSchema:
    def test_healthz(self, app):
        status, h = app.handle("GET", "/healthz")
        assert status == 200
        assert h["status"] == "ok"
        assert h["sessions_live"] == 0
        assert h["uptime_seconds"] >= 0

    def test_metrics_schema(self, app):
        sid = create(app, name="m.c")["session"]["id"]
        app.handle("GET", f"/v1/sessions/{sid}/query",
                   {"kind": "points_to", "target": "p"})
        status, m = app.handle("GET", "/metrics")
        assert status == 200
        server = m["server"]
        for key in ("sessions_live", "sessions_created", "evictions",
                    "checkouts", "misses", "bytes_live", "pool_capacity",
                    "byte_budget", "requests", "responses_by_status",
                    "solves", "solve_cache_hits", "internal_errors",
                    "uptime_seconds"):
            assert key in server, key
        assert server["sessions_live"] == 1
        assert server["requests"]["POST /v1/sessions"] == 1
        assert server["requests"]["GET /v1/sessions/{id}/query"] == 1
        [sess] = m["sessions"]
        assert sess["id"] == sid and sess["name"] == "m.c"
        [result] = sess["results"]          # the obs metrics() record
        assert result["strategy"] == "common_initial_sequence"
        assert "stats" in result and "facts" in result

    def test_metrics_serializes_to_json(self, app):
        import json

        sid = create(app)["session"]["id"]
        app.handle("GET", f"/v1/sessions/{sid}/query",
                   {"kind": "points_to", "target": "p"})
        _, m = app.handle("GET", "/metrics")
        json.dumps(m, sort_keys=True, default=str)   # must not raise


class TestCodec:
    @pytest.fixture
    def program(self):
        from repro import program_from_c

        return program_from_c(SRC, name="codec.c")

    def test_every_form_decodes(self, program):
        stmts = statements_from_json(program, [
            {"form": "addrof", "lhs": "p", "target": "y"},
            {"form": "copy", "lhs": "p", "rhs": "s", "path": ["s1"]},
            {"form": "load", "lhs": "p", "ptr": "p"},
            {"form": "store", "ptr": "p", "rhs": "x"},
            {"form": "fieldaddr", "lhs": "p", "ptr": "p", "path": ["s1"]},
            {"form": "ptrarith", "lhs": "p", "operands": ["p", "x"]},
        ], function="main")
        assert len(stmts) == 6
        assert all(st.fn == "main" for st in stmts)

    def test_function_scoped_name_resolution(self):
        from repro import program_from_c

        program = program_from_c(
            "int g;\nvoid main(void) { int *q; q = &g; }", name="scope.c"
        )
        [st] = statements_from_json(
            program, [{"form": "addrof", "lhs": "q", "target": "g"}],
            function="main",
        )
        assert st.lhs.name == "main::q"     # resolved through main::

    def test_fieldaddr_requires_path(self, program):
        with pytest.raises(ServiceError) as exc:
            statements_from_json(program, [
                {"form": "fieldaddr", "lhs": "p", "ptr": "p", "path": []}
            ])
        assert exc.value.kind == "bad-statement"

    def test_unknown_object(self, program):
        with pytest.raises(ServiceError) as exc:
            statements_from_json(program, [
                {"form": "load", "lhs": "zzz", "ptr": "p"}
            ])
        assert exc.value.status == 422
        assert exc.value.kind == "unknown-object"

    def test_resolve_ref_paths(self, program):
        ref = resolve_ref(program, "s.s2")
        assert ref.obj.name == "s" and ref.path == ("s2",)


class TestConfig:
    def test_bad_backend_fails_at_construction(self):
        with pytest.raises(KeyError):
            ServiceConfig(backend="nope")

    def test_bad_strategy_fails_at_construction(self):
        with pytest.raises(KeyError):
            ServiceConfig(default_strategy="nope")

    def test_bad_abi_fails_at_construction(self):
        with pytest.raises(KeyError):
            ServiceConfig(default_abi="pdp11")


class TestQueryFootprint:
    """The byte-budget bugfix: query-driven solves must re-measure."""

    def test_query_driven_solve_grows_bytes_estimate(self):
        app = ServiceApp(ServiceConfig(pool_size=4))
        sid = create(app)["session"]["id"]
        entry = app.pool.checkout(sid)
        before = entry.bytes_estimate
        status, _ = app.handle(
            "GET", f"/v1/sessions/{sid}/query", {"target": "p"})
        assert status == 200
        assert entry.bytes_estimate > before

    def test_query_driven_solve_triggers_eviction(self):
        """A query's FIRST solve of a new strategy can push the pool
        past its byte budget: eviction must fire on the query itself,
        not wait for some later delta."""
        budget = 40_000
        app = ServiceApp(ServiceConfig(pool_size=100, byte_budget=budget))
        ids = []
        while app.pool.counters()["evictions"] == 0 and len(ids) < 32:
            sid = create(app)["session"]["id"]
            ids.append(sid)
            status, _ = app.handle(
                "GET", f"/v1/sessions/{sid}/query", {"target": "p"})
            if status != 200:
                break
        counters = app.pool.counters()
        assert counters["evictions"] >= 1
        assert counters["bytes_live"] <= budget

    def test_failed_query_still_remeasures(self):
        """A 4xx out of the handler (unknown target) must not skip the
        re-measurement the triggering solve made necessary."""
        app = ServiceApp(ServiceConfig(pool_size=4))
        sid = create(app)["session"]["id"]
        entry = app.pool.checkout(sid)
        before = entry.bytes_estimate
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/query", {"target": "no_such_var"})
        assert status == 422
        assert payload["error"]["kind"] == "unknown-object"
        # The solve ran (and grew the session) before the target failed
        # to resolve; the footprint must reflect it anyway.
        assert entry.bytes_estimate > before


class TestDemandQueries:
    """``demand=1`` is not a parameter of the query route: like any other
    unrecognised parameter it is ignored, and the answer is the plain
    query's."""

    def test_demand_points_to_matches_exhaustive(self):
        app = ServiceApp(ServiceConfig(pool_size=4))
        sid = create(app)["session"]["id"]
        status, full = app.handle(
            "GET", f"/v1/sessions/{sid}/query", {"target": "p"})
        sid2 = create(app)["session"]["id"]
        status2, dem = app.handle(
            "GET", f"/v1/sessions/{sid2}/query",
            {"target": "p", "demand": "1"})
        assert status == status2 == 200
        assert dem["points_to"] == full["points_to"]
        assert dem["names"] == full["names"]
        assert "demand" not in dem and "demand" not in full
        del dem["session"], full["session"]
        assert dem == full

    def test_demand_alias_round_trip(self):
        app = ServiceApp(ServiceConfig(pool_size=4))
        sid = create(app)["session"]["id"]
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/query",
            {"kind": "alias", "a": "p", "b": "s.s1", "demand": "true"})
        assert status == 200, payload
        assert payload["may_point_to_same"] is True
        assert "demand" not in payload

    def test_demand_ignored_for_whole_program_kinds(self):
        app = ServiceApp(ServiceConfig(pool_size=4))
        sid = create(app)["session"]["id"]
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/query",
            {"kind": "callgraph", "demand": "1"})
        assert status == 200
        assert "demand" not in payload

    def test_demand_bad_target_is_structured(self):
        app = ServiceApp(ServiceConfig(pool_size=4))
        sid = create(app)["session"]["id"]
        status, payload = app.handle(
            "GET", f"/v1/sessions/{sid}/query",
            {"target": "ghost", "demand": "1"})
        assert status == 422
        assert payload["error"]["kind"] == "unknown-object"


class TestDemandSource:
    """A query is answered from the session's cached fixpoint, else the
    store, else one solve — ``demand=1`` or not."""

    def test_source_follows_the_lookup_order(self, tmp_path):
        config = ServiceConfig(pool_size=4, store=str(tmp_path))
        app = ServiceApp(config)
        query = {"target": "p", "demand": "1"}

        def server():
            return app.handle("GET", "/metrics")[1]["server"]

        def store_hits(sid):
            doc = app.handle("GET", f"/v1/sessions/{sid}")[1]["session"]
            return doc["store"]["hits"]

        sid = create(app)["session"]["id"]
        before = server()
        status, first = app.handle("GET", f"/v1/sessions/{sid}/query", query)
        assert status == 200 and "demand" not in first
        after = server()
        # The first query solved once and found nothing in the store.
        assert after["solves"] == before["solves"] + 1
        assert after["solve_cache_hits"] == before["solve_cache_hits"]
        assert store_hits(sid) == 0
        status, full = app.handle("GET", f"/v1/sessions/{sid}/query",
                                  {"target": "p"})
        status, cached = app.handle("GET", f"/v1/sessions/{sid}/query", query)
        # Both later queries were cache hits, not solves.
        final = server()
        assert final["solves"] == after["solves"]
        assert final["solve_cache_hits"] == after["solve_cache_hits"] + 2

        sid2 = create(app)["session"]["id"]
        status, stored = app.handle("GET", f"/v1/sessions/{sid2}/query", query)
        # A new session over the same program loads the stored fixpoint:
        # no solve, no solve-cache hit, one store hit.
        assert status == 200 and store_hits(sid2) == 1
        assert server()["solves"] == final["solves"]
        assert server()["solve_cache_hits"] == final["solve_cache_hits"]
        for answer in (first, cached, stored):
            assert answer["names"] == full["names"]


class TestServiceStore:
    def test_sessions_share_the_store_across_processes(self, tmp_path):
        """Simulated restart: a second app over the same store directory
        warm-starts the same program instead of re-solving."""
        config = ServiceConfig(pool_size=4, store=str(tmp_path))
        app1 = ServiceApp(config)
        sid = create(app1)["session"]["id"]
        status, cold = app1.handle(
            "GET", f"/v1/sessions/{sid}/query", {"target": "p"})
        assert status == 200

        app2 = ServiceApp(ServiceConfig(pool_size=4, store=str(tmp_path)))
        sid2 = create(app2)["session"]["id"]
        status, warm = app2.handle(
            "GET", f"/v1/sessions/{sid2}/query", {"target": "p"})
        assert status == 200
        assert warm["points_to"] == cold["points_to"]
        entry = app2.pool.checkout(sid2)
        assert entry.session.store_hits == 1
        doc = app2.handle("GET", f"/v1/sessions/{sid2}")[1]["session"]
        assert doc["store"]["hits"] == 1


class TestPersistOnDelete:
    """A deleted session writes what its deltas re-drained, so a later
    session over the grown program loads it instead of solving."""

    SRC = "int x, y, *p, *q;\nvoid main(void) { p = &x; }\n"
    DELTA = [{"form": "copy", "lhs": "q", "rhs": "p"},
             {"form": "addrof", "lhs": "p", "target": "y"}]

    def _grown(self, app):
        sid = create(app, source=self.SRC)["session"]["id"]
        status, _ = app.handle("GET", f"/v1/sessions/{sid}/query",
                               {"target": "q"})
        assert status == 200
        status, _ = app.handle("POST", f"/v1/sessions/{sid}/statements",
                               None, {"statements": self.DELTA})
        assert status == 200
        status, answer = app.handle("GET", f"/v1/sessions/{sid}/query",
                                    {"target": "q"})
        assert status == 200 and answer["names"] == ["x", "y"]
        return sid, answer

    def test_delete_writes_the_grown_fixpoint(self, tmp_path):
        app = ServiceApp(ServiceConfig(pool_size=4, store=str(tmp_path)))
        sid, grown = self._grown(app)
        assert len(list(tmp_path.glob("*.json"))) == 1   # the cold solve
        status, _ = app.handle("DELETE", f"/v1/sessions/{sid}")
        assert status == 200
        assert len(list(tmp_path.glob("*.json"))) == 2

        solves = app.handle("GET", "/metrics")[1]["server"]["solves"]
        sid = create(app, source=self.SRC)["session"]["id"]
        app.handle("POST", f"/v1/sessions/{sid}/statements", None,
                   {"statements": self.DELTA})
        status, warm = app.handle("GET", f"/v1/sessions/{sid}/query",
                                  {"target": "q"})
        assert status == 200 and warm["points_to"] == grown["points_to"]
        assert app.handle("GET", "/metrics")[1]["server"]["solves"] == solves
        doc = app.handle("GET", f"/v1/sessions/{sid}")[1]["session"]
        assert doc["store"]["hits"] == 1

    def test_a_failing_write_is_counted_not_raised(self, tmp_path,
                                                   monkeypatch):
        from repro.store import ResultStore

        app = ServiceApp(ServiceConfig(pool_size=4, store=str(tmp_path)))
        sid, _ = self._grown(app)

        def broken(self, *args, **kwargs):
            raise RuntimeError("bug in put")

        monkeypatch.setattr(ResultStore, "put", broken)
        status, payload = app.handle("DELETE", f"/v1/sessions/{sid}")
        assert status == 200 and payload == {"deleted": sid}
        server = app.handle("GET", "/metrics")[1]["server"]
        assert server["internal_errors"] == 1

    def test_a_delta_over_the_fact_budget_persists_nothing(self, tmp_path):
        """A re-solve that hits ``--max-facts`` is a 422, and the session
        it leaves behind has nothing stale to write at ``DELETE``."""
        app = ServiceApp(ServiceConfig(pool_size=4, store=str(tmp_path),
                                       max_facts=2))
        sid = create(app, source=self.SRC)["session"]["id"]
        status, _ = app.handle("GET", f"/v1/sessions/{sid}/query",
                               {"target": "q"})
        assert status == 200
        status, payload = app.handle(
            "POST", f"/v1/sessions/{sid}/statements", None,
            {"statements": self.DELTA})
        assert status == 422
        assert payload["error"]["kind"] == "analysis-budget-exceeded"
        doc = app.handle("GET", f"/v1/sessions/{sid}")[1]["session"]
        assert doc["deltas"] == 1
        status, _ = app.handle("GET", f"/v1/sessions/{sid}/query",
                               {"target": "q"})
        assert status == 422                 # the grown program re-solves
        status, _ = app.handle("DELETE", f"/v1/sessions/{sid}")
        assert status == 200
        assert len(list(tmp_path.glob("*.json"))) == 1   # the cold solve
        server = app.handle("GET", "/metrics")[1]["server"]
        assert server["internal_errors"] == 0
