"""Unit tests for the fact base and engine internals (edges, windows,
subscriptions, cross-subscriptions, memoized normalization)."""

import pytest

from repro.core import CollapseOnCast, Offsets
from repro.core.engine import Engine
from repro.core.facts import FactBase
from repro.core.strategy import Window
from repro.ctype.types import Field, StructType, int_t, ptr
from repro.frontend import program_from_c
from repro.ir.objects import ObjectFactory
from repro.ir.program import Program
from repro.ir.refs import FieldRef, OffsetRef


@pytest.fixture
def objs():
    return ObjectFactory()


def fr(obj, *path):
    return FieldRef(obj, tuple(path))


class TestFactBase:
    def test_add_and_query(self, objs):
        fb = FactBase()
        a = objs.global_var("a", ptr(int_t))
        b = objs.global_var("b", int_t)
        assert fb.add(fr(a), fr(b)) is True
        assert fb.add(fr(a), fr(b)) is False  # duplicate
        assert fb.points_to(fr(a)) == frozenset({fr(b)})
        assert fb.has(fr(a), fr(b))
        assert not fb.has(fr(b), fr(a))

    def test_edge_count(self, objs):
        fb = FactBase()
        a = objs.global_var("a", ptr(int_t))
        b = objs.global_var("b", int_t)
        c = objs.global_var("c", int_t)
        fb.add(fr(a), fr(b))
        fb.add(fr(a), fr(c))
        assert fb.edge_count() == 2
        assert len(fb) == 2

    def test_refs_of_obj(self, objs):
        fb = FactBase()
        s = StructType("S").define([Field("x", ptr(int_t)), Field("y", ptr(int_t))])
        a = objs.global_var("a", s)
        b = objs.global_var("b", int_t)
        fb.add(fr(a, "x"), fr(b))
        fb.add(fr(a, "y"), fr(b))
        assert fb.refs_of_obj(a) == frozenset({fr(a, "x"), fr(a, "y")})
        assert fb.refs_of_obj(b) == frozenset()

    def test_all_facts_and_pretty(self, objs):
        fb = FactBase()
        a = objs.global_var("a", ptr(int_t))
        b = objs.global_var("b", int_t)
        fb.add(fr(a), fr(b))
        assert list(fb.all_facts()) == [(fr(a), fr(b))]
        assert "a -> {b}" in fb.pretty()

    def test_pretty_limit(self, objs):
        fb = FactBase()
        t = objs.global_var("t", int_t)
        for i in range(5):
            src = objs.global_var(f"v{i}", ptr(int_t))
            fb.add(fr(src), fr(t))
        assert "..." in fb.pretty(limit=2)


class TestEngineEdges:
    def _engine(self, strategy=None):
        program = Program()
        return Engine(program, strategy or CollapseOnCast()), program

    def test_copy_edge_propagates_existing_and_future(self):
        engine, program = self._engine()
        a = program.objects.global_var("a", ptr(int_t))
        b = program.objects.global_var("b", ptr(int_t))
        x = program.objects.global_var("x", int_t)
        y = program.objects.global_var("y", int_t)
        engine.add_fact(fr(a), fr(x))
        engine.install_copy_edge(fr(a), fr(b))
        # Existing fact propagated immediately.
        assert engine.facts.has(fr(b), fr(x))
        # Future facts flow along the edge once the worklist drains.
        engine.add_fact(fr(a), fr(y))
        engine.drain()
        assert engine.facts.has(fr(b), fr(y))

    def test_copy_edge_self_loop_ignored(self):
        engine, program = self._engine()
        a = program.objects.global_var("a", ptr(int_t))
        engine.install_copy_edge(fr(a), fr(a))
        assert engine.stats.copy_edges == 0

    def test_copy_edge_deduplicated(self):
        engine, program = self._engine()
        a = program.objects.global_var("a", ptr(int_t))
        b = program.objects.global_var("b", ptr(int_t))
        engine.install_copy_edge(fr(a), fr(b))
        engine.install_copy_edge(fr(a), fr(b))
        assert engine.stats.copy_edges == 1

    def test_window_propagation(self):
        strategy = Offsets()
        engine, program = self._engine(strategy)
        s = StructType("W").define([Field("p", ptr(int_t)), Field("q", ptr(int_t))])
        a = program.objects.global_var("a", s)
        b = program.objects.global_var("b", s)
        x = program.objects.global_var("x", int_t)
        engine.add_fact(OffsetRef(a, 4), OffsetRef(x, 0))
        engine.install_window(Window(dst=OffsetRef(b, 0), src=OffsetRef(a, 0), size=8))
        assert engine.facts.has(OffsetRef(b, 4), OffsetRef(x, 0))

    def test_window_respects_bounds(self):
        strategy = Offsets()
        engine, program = self._engine(strategy)
        s = StructType("W2").define([Field("p", ptr(int_t)), Field("q", ptr(int_t))])
        small = StructType("W3").define([Field("p", ptr(int_t))])
        a = program.objects.global_var("a2", s)
        b = program.objects.global_var("b2", small)
        x = program.objects.global_var("x2", int_t)
        engine.add_fact(OffsetRef(a, 4), OffsetRef(x, 0))
        # Copy 8 bytes into a 4-byte object: offset 4 is out of bounds.
        engine.install_window(Window(dst=OffsetRef(b, 0), src=OffsetRef(a, 0), size=8))
        assert not engine.facts.has(OffsetRef(b, 4), OffsetRef(x, 0))

    def test_subscription_replay_and_dedup(self):
        engine, program = self._engine()
        p = program.objects.global_var("p", ptr(int_t))
        x = program.objects.global_var("x", int_t)
        calls = []

        def on_pointee(eng, tgt):
            assert eng is engine
            calls.append(tgt)

        engine.add_fact(fr(p), fr(x))
        engine.subscribe(fr(p), on_pointee)
        assert calls == [fr(x)]
        # Same target delivered twice -> callback runs once.
        engine.subscribe(fr(p), on_pointee)
        assert len(calls) == 2  # one per subscription, not per delivery

    def test_cross_subscribe_pairs(self):
        engine, program = self._engine()
        a = program.objects.global_var("a", ptr(int_t))
        b = program.objects.global_var("b", ptr(int_t))
        x = program.objects.global_var("x", int_t)
        y = program.objects.global_var("y", int_t)
        pairs = []
        engine.cross_subscribe(
            fr(a), fr(b), lambda eng, u, v: pairs.append((u, v))
        )
        engine.add_fact(fr(a), fr(x))
        engine.drain()
        engine.add_fact(fr(b), fr(y))
        engine.drain()
        assert (fr(x), fr(y)) in pairs

    def test_budget(self):
        engine, program = self._engine()
        engine.max_facts = 1
        a = program.objects.global_var("a", ptr(int_t))
        x = program.objects.global_var("x", int_t)
        y = program.objects.global_var("y", int_t)
        engine.add_fact(fr(a), fr(x))
        from repro.core.engine import AnalysisBudgetExceeded

        with pytest.raises(AnalysisBudgetExceeded):
            engine.add_fact(fr(a), fr(y))

    def test_norm_cache(self):
        engine, program = self._engine()
        a = program.objects.global_var("a", ptr(int_t))
        r1 = engine.norm_obj(a)
        r2 = engine.norm_obj(a)
        assert r1 is r2 or r1 == r2


class TestResultHelpers:
    def test_points_to_variants(self):
        from repro import CommonInitialSequence, analyze

        prog = program_from_c(
            "struct S { int *a; } s; int x; void main(void) { s.a = &x; }"
        )
        r = analyze(prog, CommonInitialSequence())
        s = prog.objects.lookup("s")
        # Object, raw FieldRef, and pre-normalized ref all work.
        assert r.points_to_names(FieldRef(s, ("a",))) == {"x"}
        norm = r.strategy.normalize(FieldRef(s, ("a",)))
        assert r.points_to(norm) == r.points_to(FieldRef(s, ("a",)))

    def test_pointer_of_deref_type_error(self):
        from repro import CommonInitialSequence, analyze
        from repro.ir.stmts import Copy

        prog = program_from_c("int a, b; void main(void) { a = b; }")
        r = analyze(prog, CommonInitialSequence())
        st = next(iter(prog.functions["main"].stmts))
        assert isinstance(st, Copy)
        with pytest.raises(TypeError):
            r.pointer_of_deref(st)


class TestRefCopies:
    """A copied or unpickled ref rebuilds from ``(obj, path|offset)``:
    its hash comes from the copy's object, not the original's address."""

    @staticmethod
    def _copies(pair):
        import copy
        import pickle

        yield copy.deepcopy(pair)
        yield pickle.loads(pickle.dumps(pair))

    @pytest.mark.parametrize("make", [
        lambda obj: FieldRef(obj, ("a",)),
        lambda obj: OffsetRef(obj, 4),
    ], ids=["field", "offset"])
    def test_hashed_ref_copied_with_its_object(self, objs, make):
        obj = objs.global_var("s", int_t)
        ref = make(obj)
        hash(ref)
        FactBase().intern(ref)              # fills the interning slots
        for copied_obj, copied in self._copies((obj, ref)):
            assert copied.obj is copied_obj and copied_obj is not obj
            fresh = make(copied_obj)
            assert copied == fresh
            assert fresh in {copied} and copied in {fresh}
            assert {copied: 1}[fresh] == 1
            assert not hasattr(copied, "_fb")

    def test_shallow_copy_keeps_the_object(self, objs):
        import copy

        obj = objs.global_var("s", int_t)
        ref = FieldRef(obj, ("a",))
        hash(ref)
        dup = copy.copy(ref)
        assert dup is not ref and dup.obj is obj and dup == ref
        assert hash(dup) == hash(ref)
