"""AnalysisSession facade: caching, freshness, growth, worklist policies.

The session-level behaviours: one parse serving many solves, result
caching keyed by strategy configuration, live results growing across
:meth:`~repro.session.AnalysisSession.add_statements`, the session
counters, and the FIFO worklist as the order-independence witness.
"""

from __future__ import annotations

import pytest

from repro import (
    ALL_STRATEGIES,
    AnalysisSession,
    CollapseAlways,
    CommonInitialSequence,
    Offsets,
    analyze,
    program_from_c,
)
from repro.core.worklist import FifoWorklist, PriorityWorklist, WORKLISTS
from repro.ctype.layout import ILP32, LP64, Layout
from repro.ir.refs import FieldRef
from repro.ir.stmts import AddrOf
from repro.session import resolve_target

SRC = """
struct S { int *s1; int *s2; } s;
int x, y, *p;
void main(void) { s.s1 = &x; p = s.s1; }
"""


def _obj(session, name):
    obj = session.program.objects.lookup(name)
    assert obj is not None, name
    return obj


class TestSessionBasics:
    def test_from_c_and_solve(self):
        session = AnalysisSession.from_c(SRC)
        result = session.solve(CommonInitialSequence())
        assert result.points_to_names(_obj(session, "p")) == {"x"}

    def test_solve_is_cached_per_configuration(self):
        session = AnalysisSession.from_c(SRC)
        a = session.solve(CommonInitialSequence())
        b = session.solve(CommonInitialSequence())
        assert a is b
        # A different strategy gets its own engine and result.
        c = session.solve(CollapseAlways())
        assert c is not a
        # Tracing is part of the configuration, not a cache hit.
        d = session.solve(CommonInitialSequence(), trace=True)
        assert d is not a and d.tracer is not None
        # So is the ABI: the cache keys on its name, not layout identity.
        assert session.solve(CommonInitialSequence(Layout(ILP32))) is a
        e = session.solve(CommonInitialSequence(Layout(LP64)))
        assert e is not a

    def test_fresh_forces_a_new_engine(self):
        session = AnalysisSession.from_c(SRC)
        a = session.solve(CommonInitialSequence())
        b = session.solve(CommonInitialSequence(), fresh=True)
        assert a is not b
        assert set(a.facts.all_facts()) == set(b.facts.all_facts())
        # fresh replaces the cache entry.
        assert session.solve(CommonInitialSequence()) is b

    def test_all_strategies_share_one_parse(self):
        session = AnalysisSession.from_c(SRC)
        results = [session.solve(cls()) for cls in ALL_STRATEGIES]
        assert len(session.cached_results()) == len(ALL_STRATEGIES)
        for r in results:
            assert r.program is session.program

    def test_analyze_matches_session_solve(self):
        program = program_from_c(SRC)
        via_analyze = analyze(program, CommonInitialSequence())
        via_session = AnalysisSession(program_from_c(SRC)).solve(
            CommonInitialSequence()
        )
        assert {
            (repr(a), repr(b)) for a, b in via_analyze.facts.all_facts()
        } == {(repr(a), repr(b)) for a, b in via_session.facts.all_facts()}


class TestSessionGrowth:
    def test_add_statements_updates_every_cached_result(self):
        session = AnalysisSession.from_c(SRC)
        fine = session.solve(CommonInitialSequence())
        coarse = session.solve(CollapseAlways())
        p = _obj(session, "p")
        y = _obj(session, "y")
        assert fine.points_to_names(p) == {"x"}
        session.add_statements([AddrOf(p, FieldRef(y, ()))], function="main")
        # Live views: the previously returned results grew in place.
        assert fine.points_to_names(p) == {"x", "y"}
        assert coarse.points_to_names(p) == {"x", "y"}

    def test_session_counters(self):
        session = AnalysisSession.from_c(SRC)
        result = session.solve(CommonInitialSequence())
        assert result.stats.incremental_solves == 0
        assert result.stats.delta_stmts == 0
        assert result.stats.reused_graph_refs == 0
        p, y = _obj(session, "p"), _obj(session, "y")
        refs_before = result.facts.num_refs()
        session.add_statements([AddrOf(p, FieldRef(y, ()))], function="main")
        assert result.stats.incremental_solves == 1
        assert result.stats.delta_stmts == 1
        assert result.stats.reused_graph_refs == refs_before

    def test_add_statements_global_scope(self):
        session = AnalysisSession.from_c(SRC)
        result = session.solve(CommonInitialSequence())
        p, y = _obj(session, "p"), _obj(session, "y")
        session.add_statements([AddrOf(p, FieldRef(y, ()))])
        assert result.points_to_names(p) == {"x", "y"}
        assert session.program.global_stmts[-1].lhs is p

    def test_add_statements_unknown_function_raises(self):
        session = AnalysisSession.from_c(SRC)
        p, y = _obj(session, "p"), _obj(session, "y")
        with pytest.raises(KeyError):
            session.add_statements(
                [AddrOf(p, FieldRef(y, ()))], function="nope"
            )

    def test_engine_add_statements_requires_solve(self):
        from repro.core.engine import Engine

        program = program_from_c(SRC)
        engine = Engine(program, CommonInitialSequence())
        with pytest.raises(RuntimeError):
            engine.add_statements([])

    def test_solve_after_growth_sees_grown_program(self):
        session = AnalysisSession.from_c(SRC)
        p, y = _obj(session, "p"), _obj(session, "y")
        session.add_statements([AddrOf(p, FieldRef(y, ()))], function="main")
        # A strategy solved only after the growth still sees everything.
        late = session.solve(Offsets())
        assert late.points_to_names(p) == {"x", "y"}
        assert late.stats.incremental_solves == 0


class TestWorklistPolicies:
    def test_registry(self):
        assert WORKLISTS["priority"] is PriorityWorklist
        assert WORKLISTS["fifo"] is FifoWorklist

    @pytest.mark.parametrize("cls", ALL_STRATEGIES)
    def test_fifo_reaches_same_fixpoint(self, cls):
        """Order independence: FIFO and priority drains agree exactly on
        the fixpoint and on every order-independent counter."""
        from repro.bench.harness import _UNGATED_STATS

        program = program_from_c(SRC)
        prio = analyze(program, cls())
        fifo = analyze(program, cls(), worklist="fifo")
        assert set(prio.facts.all_facts()) == set(fifo.facts.all_facts())
        gated = lambda s: {
            k: v for k, v in s.as_dict().items() if k not in _UNGATED_STATS
        }
        assert gated(prio.stats) == gated(fifo.stats)

    def test_worklist_instance_accepted(self):
        program = program_from_c(SRC)
        result = analyze(program, CommonInitialSequence(), worklist=FifoWorklist())
        p = result.program.objects.lookup("p")
        assert result.points_to_names(p) == {"x"}


class TestBackendPinning:
    """The session resolves its backend ONCE, at construction: a
    mid-process change of $REPRO_BACKEND must not let one session mix
    backends across solves."""

    def test_env_backend_resolved_at_construction(self, monkeypatch):
        from repro.core.backend import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "bigint")
        session = AnalysisSession.from_c(SRC)
        assert session.backend == "bigint"
        monkeypatch.setenv(ENV_VAR, "diffprop")
        result = session.solve(CommonInitialSequence())
        assert result.stats.backend == "bigint"
        # A second strategy on the same session: still the pinned one.
        result2 = session.solve(CollapseAlways())
        assert result2.stats.backend == "bigint"

    def test_default_resolves_to_concrete_name(self, monkeypatch):
        from repro.core.backend import DEFAULT_BACKEND, ENV_VAR

        monkeypatch.delenv(ENV_VAR, raising=False)
        session = AnalysisSession.from_c(SRC)
        assert session.backend == DEFAULT_BACKEND

    def test_explicit_name_still_wins_per_solve(self):
        session = AnalysisSession.from_c(SRC, backend="bigint")
        result = session.solve(CommonInitialSequence(), backend="diffprop")
        assert result.stats.backend == "diffprop"

    def test_bad_env_backend_fails_at_construction(self, monkeypatch):
        from repro.core.backend import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "nope")
        with pytest.raises(KeyError):
            AnalysisSession.from_c(SRC)


LOCALS_SRC = """
struct S { int *s1; int *s2; } s;
int x, *p;
void f(void) { int *loc; loc = &x; }
void main(void) { s.s1 = &x; p = s.s1; }
"""


class TestResolveTarget:
    """One resolver serves ``query``, the CLI's ``-q`` and ``explain``."""

    def test_global_names_and_field_paths(self):
        program = program_from_c(LOCALS_SRC)
        ref = resolve_target(program, "s.s1")
        assert ref == FieldRef(program.objects.lookup("s"), ("s1",))
        assert resolve_target(program, "p") == FieldRef(
            program.objects.lookup("p"), ())

    def test_locals_fall_back_to_the_function_spelling(self):
        program = program_from_c(LOCALS_SRC)
        ref = resolve_target(program, "loc")
        assert ref.obj.name == "f::loc" and ref.path == ()

    def test_a_local_of_several_functions_is_ambiguous(self):
        program = program_from_c(LOCALS_SRC + "void g(void) { int *loc; }")
        with pytest.raises(KeyError, match="ambiguous"):
            resolve_target(program, "loc")
        assert resolve_target(program, "g::loc").obj.name == "g::loc"

    def test_unknown_names_raise_key_error(self):
        program = program_from_c(LOCALS_SRC)
        with pytest.raises(KeyError, match="ghost"):
            resolve_target(program, "ghost")

    def test_query_answers_through_it(self):
        session = AnalysisSession.from_c(LOCALS_SRC)
        assert session.query(["loc", "s.s1"]) == {
            "loc": ["x"], "s.s1": ["x"]}
        with pytest.raises(KeyError):
            session.query(["ghost"])
