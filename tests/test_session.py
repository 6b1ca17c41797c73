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


# A separable program: ``p`` needs ``s`` but not ``q``'s statement.
DEMAND_SRC = """
struct S { int *s1; int *s2; } s;
int x, y, z, *p, *q;
void main(void) { s.s1 = &x; p = s.s1; q = &z; }
"""


def _no_demand_solve(monkeypatch):
    """Make any call of ``repro.core.demand.solve_demand`` fail."""
    import repro.core.demand as demand

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_demand ran although the fixpoint was held")

    monkeypatch.setattr(demand, "solve_demand", forbidden)


def _answers(result, program):
    """Every non-function object's points-to names, keyed by name."""
    from repro.ir.objects import ObjKind

    return {
        o.name: result.points_to_names(FieldRef(o, ()))
        for o in program.objects.all_objects()
        if o.kind is not ObjKind.FUNCTION
    }


class TestSolveDemand:
    """``AnalysisSession.solve_demand`` answers from the exhaustive
    fixpoint: the session's result, then the store, then a solve."""

    def test_cached_exhaustive_result_answers(self, monkeypatch):
        session = AnalysisSession.from_c(DEMAND_SRC)
        strategy = CommonInitialSequence()
        full = session.solve(strategy)
        _no_demand_solve(monkeypatch)
        hits = session.solve_cache_hits
        p = _obj(session, "p")
        dres = session.solve_demand(strategy, [p])
        assert dres.source == "cache"
        assert dres.result is full
        assert session.solve_cache_hits == hits + 1
        assert not dres.widened
        assert dres.installed == session.program.stmt_count()
        assert p in dres.demanded and _obj(session, "q") in dres.demanded
        assert dres.points_to_names(p) == {"x"}

    def test_store_answers_a_fresh_session(self, tmp_path, monkeypatch):
        strategy = CommonInitialSequence()
        cold = AnalysisSession.from_c(DEMAND_SRC, store=str(tmp_path))
        full = cold.solve(strategy)
        warm = AnalysisSession.from_c(DEMAND_SRC, store=str(tmp_path))
        _no_demand_solve(monkeypatch)
        dres = warm.solve_demand(strategy, [_obj(warm, "p")])
        assert dres.source == "store"
        assert warm.store_hits == 1 and warm.store_misses == 0
        assert not dres.widened
        assert dres.installed == warm.program.stmt_count()
        assert _answers(dres.result, warm.program) == _answers(
            full, cold.program)
        # The loaded fixpoint is now the session's cached result.
        hits = warm.solve_cache_hits
        assert warm.solve(strategy) is dres.result
        assert warm.solve_cache_hits == hits + 1
        assert warm.store_hits == 1

    @pytest.mark.parametrize("with_store", [False, True],
                             ids=["no-store", "empty-store"])
    def test_demand_solve_without_finished_work(self, tmp_path, with_store,
                                                monkeypatch):
        store = str(tmp_path) if with_store else None
        session = AnalysisSession.from_c(DEMAND_SRC, store=store)
        _no_demand_solve(monkeypatch)
        p = _obj(session, "p")
        dres = session.solve_demand(CommonInitialSequence(), [p])
        assert dres.source == "solve"
        assert not dres.widened
        assert dres.installed == session.program.stmt_count()
        assert dres.points_to_names(p) == {"x"}
        assert session.solve_cache_hits == 0
        assert session.store_misses == (1 if with_store else 0)
        # A repeat of the same query is a cache hit on the solved result.
        again = session.solve_demand(CommonInitialSequence(), [p])
        assert again.source == "cache" and again.result is dres.result
        assert session.solve_cache_hits == 1

    def test_cold_demand_then_solve_builds_one_engine(self, monkeypatch):
        import repro.session as session_mod

        built = []

        class CountingEngine(session_mod.Engine):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_mod, "Engine", CountingEngine)
        session = AnalysisSession.from_c(DEMAND_SRC)
        strategy = CommonInitialSequence()
        dres = session.solve_demand(strategy, [_obj(session, "p")])
        hits = session.solve_cache_hits
        full = session.solve(strategy)
        assert len(built) == 1
        assert session.solve_cache_hits == hits + 1
        assert full is dres.result

    @pytest.mark.parametrize("first", ["cache", "store", "demand"])
    def test_answers_follow_growth(self, tmp_path, first):
        # ``demand`` starts from nothing held: the first answer is a solve.
        strategy = CommonInitialSequence()
        if first == "store":
            AnalysisSession.from_c(DEMAND_SRC, store=str(tmp_path)).solve(
                strategy)
        session = AnalysisSession.from_c(
            DEMAND_SRC, store=str(tmp_path) if first == "store" else None)
        if first == "cache":
            session.solve(strategy)
        p, q, y = _obj(session, "p"), _obj(session, "q"), _obj(session, "y")
        assert session.solve_demand(strategy, [p]).source == (
            "solve" if first == "demand" else first)
        session.add_statements(
            [AddrOf(p, FieldRef(y, ())), AddrOf(q, FieldRef(y, ()))],
            function="main")
        dres = session.solve_demand(strategy, [p, q])
        fresh = analyze(session.program, CommonInitialSequence())
        for obj in (p, q):
            assert dres.points_to(obj) == fresh.points_to(obj)
        assert dres.points_to_names(p) == {"x", "y"}
        # A live engine re-drains; a warm result is dropped and re-solved.
        assert dres.source == ("solve" if first == "store" else "cache")
        assert _answers(dres.result, session.program) == _answers(
            fresh, session.program)
