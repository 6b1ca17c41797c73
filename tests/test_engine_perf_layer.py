"""Tests for the delta-driven engine's performance layer: incremental
fact counting, allocation-free views, the window interval index, the
memoized strategy layer (and its Figure-3 invariant), EngineStats
serialization/merging, analysis-budget behaviour on real programs, the
parallel bench harness, amortized class-merge compaction, the single
memo per question on the untraced path, and the cyclic-collector guard
around every fixpoint."""

import gc
import threading
import weakref

import pytest
from conftest import struct_types

from repro.core import ALL_STRATEGIES, STRATEGY_BY_KEY, analyze
from repro.core.engine import (
    AnalysisBudgetExceeded,
    Engine,
    EngineStats,
    _WindowIndex,
    no_cyclic_gc,
)
from repro.core.facts import FactBase
from repro.core.graph import ConstraintGraph
from repro.core.worklist import PriorityWorklist
from repro.ctype.types import int_t, ptr
from repro.frontend import program_from_c
from repro.ir.objects import ObjectFactory
from repro.ir.refs import FieldRef
from repro.session import AnalysisSession
from repro.suite.generator import GenConfig, generate_program


def fr(obj, *path):
    return FieldRef(obj, tuple(path))


SRC = """
struct node { struct node *next; int *payload; };
struct node a, b, c;
int x, y;
void main(void) {
    a.next = &b;
    b.next = &c;
    c.next = &a;
    a.payload = &x;
    b.payload = &y;
    c.payload = a.next->payload;
}
"""


# ---------------------------------------------------------------------------
# FactBase: incremental counting and views.
# ---------------------------------------------------------------------------


class TestFactBaseCounting:
    def test_count_incremental_with_duplicates(self):
        objs = ObjectFactory()
        fb = FactBase()
        t = objs.global_var("t", int_t)
        srcs = [objs.global_var(f"s{i}", ptr(int_t)) for i in range(5)]
        for s in srcs:
            assert fb.add(fr(s), fr(t)) is True
            assert fb.add(fr(s), fr(t)) is False  # duplicate: count unchanged
        assert fb.edge_count() == 5
        assert len(fb) == 5

    def test_views_match_public_api(self):
        objs = ObjectFactory()
        fb = FactBase()
        a = objs.global_var("a", ptr(int_t))
        x = objs.global_var("x", int_t)
        y = objs.global_var("y", int_t)
        fb.add(fr(a), fr(x))
        fb.add(fr(a), fr(y))
        assert set(fb.points_to_view(fr(a))) == set(fb.points_to(fr(a)))
        assert set(fb.refs_of_obj_view(a)) == set(fb.refs_of_obj(a))
        # Missing keys: empty, and no index entry is created by the probe.
        assert fb.points_to_view(fr(x)) == frozenset()
        assert fb.refs_of_obj_view(x) == frozenset()
        assert fb.edge_count() == 2

    def test_public_api_returns_stable_copies(self):
        objs = ObjectFactory()
        fb = FactBase()
        a = objs.global_var("a", ptr(int_t))
        x = objs.global_var("x", int_t)
        y = objs.global_var("y", int_t)
        fb.add(fr(a), fr(x))
        snapshot = fb.points_to(fr(a))
        fb.add(fr(a), fr(y))
        assert snapshot == frozenset({fr(x)})  # unaffected by later adds


# ---------------------------------------------------------------------------
# Window interval index.
# ---------------------------------------------------------------------------


class TestWindowIndex:
    @staticmethod
    def _key(hit):
        lo, dobj, dbase = hit
        return (lo, id(dobj), dbase)

    def _brute(self, windows, off):
        return sorted(
            (
                (lo, dobj, dbase)
                for lo, size, dobj, dbase in windows
                if lo <= off < lo + size
            ),
            key=self._key,
        )

    def test_matches_brute_force(self):
        objs = ObjectFactory()
        dsts = [objs.global_var(f"d{i}", int_t) for i in range(4)]
        windows = [
            (0, 8, dsts[0], 0),
            (4, 16, dsts[1], 8),
            (4, 2, dsts[2], 0),
            (24, 8, dsts[3], 4),
            (0, 40, dsts[0], 100),  # long window spanning everything
        ]
        index = _WindowIndex()
        for lo, size, dobj, dbase in windows:
            index.insert(lo, size, dobj, dbase)
        for off in range(-2, 48):
            got = sorted(index.matches(off), key=self._key)
            assert got == self._brute(windows, off), f"offset {off}"

    def test_incremental_inserts_keep_index_consistent(self):
        objs = ObjectFactory()
        d = objs.global_var("d", int_t)
        index = _WindowIndex()
        windows = []
        for lo, size in [(10, 4), (0, 30), (12, 2), (8, 1), (20, 10)]:
            windows.append((lo, size, d, lo))
            index.insert(lo, size, d, lo)
            for off in range(0, 35):
                assert sorted(index.matches(off), key=self._key) == self._brute(windows, off)


# ---------------------------------------------------------------------------
# Memoized strategy layer.
# ---------------------------------------------------------------------------


def _solve_and_drop_sessions(seeds):
    """Solve every registered strategy on one generated program per seed;
    return weakrefs to each program and its struct types."""
    refs = []
    for seed in seeds:
        program = program_from_c(
            generate_program(seed, GenConfig(n_statements=60)),
            name=f"gen{seed}")
        session = AnalysisSession(program)
        for cls in STRATEGY_BY_KEY.values():
            assert session.solve(cls()).facts.edge_count() > 0
        types = struct_types(program)
        assert types
        refs.append(weakref.ref(program))
        refs.extend(weakref.ref(t) for t in types)
    return refs


class TestStrategyMemoization:
    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_reused_strategy_instance_matches_fresh(self, cls):
        """A strategy reused across programs (warm caches) must produce
        the same facts and the same Figure-3 counters as fresh ones."""
        shared = cls()
        progs = [program_from_c(SRC, name=f"p{i}") for i in range(2)]
        for prog in progs:
            warm = analyze(prog, shared)
            cold = analyze(prog, cls())
            assert warm.facts.edge_count() == cold.facts.edge_count()
            assert {(repr(s), repr(d)) for s, d in warm.facts.all_facts()} == {
                (repr(s), repr(d)) for s, d in cold.facts.all_facts()
            }
            wd, cd = warm.stats.as_dict(), cold.stats.as_dict()
            wd.pop("solve_seconds"), cd.pop("solve_seconds")
            assert wd == cd

    def test_memo_tables_die_with_the_session(self):
        """Strategy, layout and field-path memos belong to their owners:
        once a session over distinct programs is dropped, nothing keeps
        its program or any of its struct types alive."""
        refs = _solve_and_drop_sessions(seeds=(0, 1, 2))
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert alive == []

    def test_cached_lookup_counts_every_call(self):
        """The memo cache sits below the instrumentation boundary: hits
        still increment the engine's per-call counters."""
        prog = program_from_c(SRC)
        res = analyze(prog, STRATEGY_BY_KEY["common_initial_sequence"]())
        strategy = res.strategy
        before = res.stats.lookup_calls
        assert before > 0
        # Re-running one instrumented lookup through a fresh engine on the
        # same (warm) strategy instance must bump the counter again.
        engine = Engine(prog, strategy)
        engine.solve()
        assert engine.stats.lookup_calls == before

    def test_cached_results_are_consistent(self):
        prog = program_from_c(SRC)
        strategy = STRATEGY_BY_KEY["offsets"]()
        analyze(prog, strategy)
        obj = prog.objects.lookup("a")
        target = strategy.normalize(FieldRef(obj, ()))
        tau = obj.type
        r1 = strategy.cached_lookup(tau, ("next",), target)
        r2 = strategy.cached_lookup(tau, ("next",), target)
        assert r1 == r2
        cold = strategy.lookup(tau, ("next",), target)
        assert r1[0] == cold[0] and r1[1] == cold[1]


# ---------------------------------------------------------------------------
# EngineStats serialization / aggregation.
# ---------------------------------------------------------------------------


class TestEngineStatsHelpers:
    def test_as_dict_round_trip(self):
        s = EngineStats(lookup_calls=3, resolve_calls=5, facts=7,
                        solve_seconds=0.25)
        d = s.as_dict()
        assert d["lookup_calls"] == 3 and d["solve_seconds"] == 0.25
        assert EngineStats.from_dict(d) == s
        # Unknown keys (e.g. from a newer baseline schema) are ignored.
        d["future_field"] = 1
        assert EngineStats.from_dict(d) == s

    def test_merge_sums_fields(self):
        a = EngineStats(lookup_calls=1, facts=2, solve_seconds=0.5)
        b = EngineStats(lookup_calls=10, facts=20, solve_seconds=0.25)
        m = a.merge(b)
        assert m.lookup_calls == 11 and m.facts == 22
        assert m.solve_seconds == pytest.approx(0.75)

    def test_merged_many(self):
        parts = [EngineStats(resolve_calls=i) for i in range(5)]
        assert EngineStats.merged(parts).resolve_calls == 10
        assert EngineStats.merged([]) == EngineStats()

    def test_merged_empty_iterable_not_just_list(self):
        # merged() must cope with any (possibly empty) iterable, not
        # only lists — the bench harness feeds it generator expressions.
        assert EngineStats.merged(s for s in ()) == EngineStats()
        assert EngineStats.merged(iter([])).sccs_collapsed == 0

    def test_collapse_counters_round_trip(self):
        s = EngineStats(facts=7, sccs_collapsed=3, props_saved=41)
        d = s.as_dict()
        assert d["sccs_collapsed"] == 3 and d["props_saved"] == 41
        assert EngineStats.from_dict(d) == s

    def test_from_dict_tolerates_pre_collapse_schema(self):
        # Baselines written before the collapse counters existed lack the
        # keys; they must load with the counters defaulted to zero.
        d = EngineStats(lookup_calls=2, facts=9).as_dict()
        del d["sccs_collapsed"], d["props_saved"]
        s = EngineStats.from_dict(d)
        assert s.lookup_calls == 2 and s.facts == 9
        assert s.sccs_collapsed == 0 and s.props_saved == 0

    def test_merge_sums_collapse_counters(self):
        a = EngineStats(sccs_collapsed=1, props_saved=10)
        b = EngineStats(sccs_collapsed=2, props_saved=5)
        m = a.merge(b)
        assert m.sccs_collapsed == 3 and m.props_saved == 15


# ---------------------------------------------------------------------------
# Analysis budget on a real program.
# ---------------------------------------------------------------------------


class TestAnalysisBudget:
    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_tiny_budget_raises_with_partial_stats(self, cls):
        prog = program_from_c(SRC)
        engine = Engine(prog, cls(), max_facts=1)
        with pytest.raises(AnalysisBudgetExceeded):
            engine.solve()
        # The partial run is observable: the counter crossed the budget
        # and the facts added before the abort are still in the base.
        assert engine.stats.facts == 2
        assert engine.facts.edge_count() == 2
        assert engine.stats.facts == engine.facts.edge_count()

    def test_generous_budget_unaffected(self):
        prog = program_from_c(SRC)
        res = analyze(prog, STRATEGY_BY_KEY["common_initial_sequence"](),
                      max_facts=1_000_000)
        assert res.stats.facts == res.facts.edge_count() > 0

    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_budget_identical_in_traced_drain(self, cls):
        """``max_facts`` goes through the same ``_account`` chokepoint in
        the traced drain: the abort happens at the same fact count."""
        prog = program_from_c(SRC)
        engine = Engine(prog, cls(), max_facts=1, trace=True)
        with pytest.raises(AnalysisBudgetExceeded):
            engine.solve()
        assert engine.stats.facts == 2
        assert engine.facts.edge_count() == 2

    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_budget_identical_in_fifo_drain(self, cls):
        prog = program_from_c(SRC)
        engine = Engine(prog, cls(), max_facts=1, worklist="fifo")
        with pytest.raises(AnalysisBudgetExceeded):
            engine.solve()
        assert engine.stats.facts == 2
        assert engine.facts.edge_count() == 2

    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_budget_enforced_in_incremental_resolve(self, cls):
        """An incremental re-solve is bounded by the same budget: solve a
        prefix under a roomy budget, tighten it on the live engine, and
        the delta drain must abort the moment the counter crosses it."""
        from repro import AnalysisSession

        prog = program_from_c(SRC)
        # Hold out everything but the first statement of main.
        info = prog.functions["main"]
        held = info.stmts[1:]
        info.stmts[:] = info.stmts[:1]
        session = AnalysisSession(prog)
        result = session.solve(cls())
        solved_facts = result.stats.facts
        (engine,) = session._engines.values()
        engine.max_facts = solved_facts  # any further gain must raise
        with pytest.raises(AnalysisBudgetExceeded):
            session.add_statements(held, function="main")
        # The abort happened at the accounting chokepoint: the counter
        # crossed the tightened budget by exactly one gain batch.
        assert engine.stats.facts > solved_facts
        # The incremental counters recorded the attempt before the abort.
        assert engine.stats.incremental_solves == 1
        assert engine.stats.delta_stmts == len(held)


# ---------------------------------------------------------------------------
# Online cycle collapsing (union-find plane of the interned fact base).
# ---------------------------------------------------------------------------

CYCLE_SRC = """
struct S { int *p; int *q; };
int x, y;
int *s0;
int **pp, **qq, **rr;
struct S a, b, c, d;
int **id(int **v) { return v; }
void main(void) {
    a.p = &x;
    d.q = &y;
    b = a;      /* struct copy cycle: a -> b -> c -> a */
    c = b;
    a = c;
    a = d;      /* an edge into the cycle from outside */
    qq = pp;    /* pointer copy chain pp -> qq -> rr */
    rr = qq;
    /* call-binding cycle: pp -> v(param) -> return -> pp.  Call edges
       are plain copy edges under every strategy (including Offsets,
       whose variable copies otherwise go through windows). */
    pp = id(pp);
    pp = &s0;   /* seeded after the cycle is wired, so the fact flows
                   around the closed cycle during drain */
    s0 = &x;
}
"""


def _ref_key(r):
    """Position of a ref inside its object (path or byte offset)."""
    return r.path if hasattr(r, "path") else r.offset


class TestCycleCollapsing:
    def test_factbase_union_merges_source_plane(self):
        objs = ObjectFactory()
        fb = FactBase()
        t1 = objs.global_var("t1", int_t)
        t2 = objs.global_var("t2", int_t)
        p = objs.global_var("p", ptr(int_t))
        q = objs.global_var("q", ptr(int_t))
        fb.add(fr(p), fr(t1))
        fb.add(fr(q), fr(t2))
        pid, qid = fb.intern(fr(p)), fb.intern(fr(q))
        rep, dead, gain, fresh = fb.union(pid, qid)
        assert {rep, dead} == {pid, qid} and rep != dead
        assert fb.find(pid) == fb.find(qid) == rep
        # Both sets merged; per-ref queries see the union through either name.
        assert fb.points_to(fr(p)) == fb.points_to(fr(q)) == {fr(t1), fr(t2)}
        # Logical count: 2 members x 2 targets.
        assert fb.edge_count() == 4
        # fresh holds exactly the bits each side was missing.
        assert fb.decode(fresh) == fb.decode(fresh)  # well-formed bitset
        assert len(fb.decode(fresh)) == 2

    def test_union_is_idempotent(self):
        objs = ObjectFactory()
        fb = FactBase()
        p = objs.global_var("p", ptr(int_t))
        q = objs.global_var("q", ptr(int_t))
        pid, qid = fb.intern(fr(p)), fb.intern(fr(q))
        rep1, _, _, _ = fb.union(pid, qid)
        rep2, dead2, gain2, fresh2 = fb.union(pid, qid)
        assert rep2 == rep1 and dead2 == rep1 and gain2 == 0 and fresh2 == 0

    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_cycle_program_collapses_and_stays_exact(self, cls):
        prog = program_from_c(CYCLE_SRC)
        res = analyze(prog, cls())
        if cls.key == "offsets":
            # Offsets routes *every* copy (including call bindings, via
            # the temp -> lhs hop) through resolve, which it answers with
            # windows — its copy-edge plane is empty, so there is nothing
            # to collapse.  The cycle must still converge to exact facts.
            assert res.stats.windows > 0
        else:
            assert res.stats.sccs_collapsed > 0
        # Members of the collapsed cycle expose identical points-to sets
        # through the ordinary public API: positionally matching refs of
        # a, b, c must agree (everything flows around the cycle).
        by_obj = {}
        for r in res.facts.sources():
            by_obj.setdefault(r.obj.name, {})[_ref_key(r)] = res.facts.points_to(r)
        for key, a_pts in by_obj["a"].items():
            for name in ("b", "c"):
                if key in by_obj.get(name, {}):
                    assert by_obj[name][key] == a_pts
        # x flowed around the struct cycle; y entered it from outside.
        a_names = {t.obj.name for pts in by_obj["a"].values() for t in pts}
        assert {"x", "y"} <= a_names
        # The scalar pointer cycle converged too.
        for var in ("pp", "qq", "rr"):
            (pts,) = by_obj[var].values()
            assert {t.obj.name for t in pts} == {"s0"}

    def test_props_saved_counts_internal_edges(self):
        prog = program_from_c(CYCLE_SRC)
        res = analyze(prog, STRATEGY_BY_KEY["common_initial_sequence"]())
        assert res.stats.props_saved > 0


# ---------------------------------------------------------------------------
# Amortized adjacency compaction in merge_classes.
# ---------------------------------------------------------------------------


class _CountingFactBase(FactBase):
    """A fact base that counts ``find`` calls while ``budget`` is set and
    fails as soon as they exceed it (so quadratic work fails fast)."""

    def __init__(self):
        super().__init__()
        self.finds = 0
        self.budget = None

    def find(self, rid):
        if self.budget is not None:
            self.finds += 1
            assert self.finds <= self.budget, (
                f"merge_classes made more than {self.budget} find calls")
        return super().find(rid)


def test_merge_compaction_is_linear_in_appended_entries():
    """Merging 2000 classes of 16 out-edges each into one root, one at a
    time, re-filters the root's adjacency only when it has doubled: the
    find calls stay within a constant factor of the entries appended,
    and the list never holds more than twice the live target classes."""
    n_classes, fresh_per_class, n_shared = 2000, 4, 6
    objs = ObjectFactory()
    facts = _CountingFactBase()
    graph = ConstraintGraph(facts)

    def node(name):
        return facts.intern(fr(objs.global_var(name, int_t)))

    shared = [node(f"shared{i}") for i in range(n_shared)]
    classes = [node(f"c{i}") for i in range(n_classes)]
    for i, cid in enumerate(classes):
        # 4 fresh targets, 6 shared ones (duplicates once merged) and 6
        # edges back into the root (self-edges once merged): 16 per class.
        fresh = [node(f"t{i}_{k}") for k in range(fresh_per_class)]
        graph.copy_adj[cid] = fresh + shared + [classes[0]] * 6
    appended = 16 * (n_classes - 1)
    facts.budget = 8 * appended
    wl = PriorityWorklist()
    for i in range(1, n_classes):
        assert graph.merge_classes([classes[0], classes[i]], wl, lambda g: None)
        root = facts.find(classes[0])
        live_targets = n_shared + fresh_per_class * (i + 1)
        assert len(graph.copy_adj[root]) <= 2 * max(16, live_targets)
    facts.budget = None
    root = facts.find(classes[0])
    live = {facts.find(t) for t in graph.copy_adj[root]} - {root}
    assert len(live) == n_shared + fresh_per_class * n_classes


# ---------------------------------------------------------------------------
# One memo per question on the untraced path.
# ---------------------------------------------------------------------------

# Two stores of the same struct through two pointers to the same target:
# the second rule-5 firing recurs the first's (dst, src, τ) — one struct
# type object, one rhs variable, one pointee.
RECURRING_STORE_SRC = """
struct pair { int *a; int *b; };
struct pair s, t;
struct pair *p, *q;
int x, y;
void main(void) {
    t.a = &x;
    t.b = &y;
    p = &s;
    q = &s;
    *p = t;
    *q = t;
    t = *p;
}
"""


class _CountingHits(dict):
    """The engine's fused resolve memo, counting probes that hit."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


class TestUntracedMemoLayers:
    @pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
    def test_untraced_solve_leaves_strategy_tables_empty(self, cls):
        strategy = cls()
        analyze(program_from_c(SRC), strategy)
        analyze(program_from_c(RECURRING_STORE_SRC), strategy)
        assert strategy.memo_table("lookup") == {}
        assert strategy.memo_table("resolve") == {}

    @pytest.mark.parametrize("backend", ["bigint", "codegen"])
    def test_resolve_hits_count_fused_memo_hits(self, backend):
        strategy = STRATEGY_BY_KEY["common_initial_sequence"]()
        engine = Engine(program_from_c(RECURRING_STORE_SRC), strategy,
                        backend=backend)
        engine._resolve_done = _CountingHits()
        stats = engine.solve().stats
        assert engine._resolve_done.hits > 0
        assert strategy.memo_resolve_hits == engine._resolve_done.hits
        # Every Figure-3 call was answered by exactly one memo or one
        # strategy computation.
        assert (strategy.memo_resolve_hits + strategy.memo_resolve_misses
                == stats.resolve_calls)
        assert (strategy.memo_lookup_hits + strategy.memo_lookup_misses
                == stats.lookup_calls)

    def test_traced_solve_fills_and_hits_strategy_tables(self):
        strategy = STRATEGY_BY_KEY["common_initial_sequence"]()
        Engine(program_from_c(RECURRING_STORE_SRC), strategy, trace=True).solve()
        assert strategy.memo_table("resolve")
        assert strategy.memo_resolve_hits > 0


# ---------------------------------------------------------------------------
# No automatic cyclic collection inside a fixpoint.
# ---------------------------------------------------------------------------


class _GcProbe(STRATEGY_BY_KEY["common_initial_sequence"]):
    """Records the collector's state each time ``resolve`` runs."""

    def __init__(self):
        super().__init__()
        self.gc_states = set()

    def resolve(self, dst, src, tau):
        self.gc_states.add(gc.isenabled())
        return super().resolve(dst, src, tau)


@pytest.fixture
def gc_enabled():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.fixture
def gc_disabled():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


class TestNoCyclicGcInFixpoint:
    def test_no_automatic_pass_during_a_large_solve(self, gc_enabled):
        program = program_from_c(
            generate_program(3, GenConfig(n_statements=2000)), name="gen")
        engine = Engine(program, STRATEGY_BY_KEY["common_initial_sequence"]())
        solving = [True]
        passes = []
        drain = engine.drain

        def drain_then_stop():
            drain()
            # The first allocation after the guard re-enables the
            # collector may run the pass it deferred: count only the
            # setup and the drain.
            solving[0] = False

        def hook(phase, info):
            if phase == "start" and solving[0]:
                passes.append(info["generation"])

        engine.drain = drain_then_stop
        gc.callbacks.append(hook)
        try:
            engine.solve()
        finally:
            gc.callbacks.remove(hook)
        assert engine.stats.facts > 1000
        assert passes == []

    def test_enabled_collector_is_paused_then_restored(self, gc_enabled):
        strategy = _GcProbe()
        analyze(program_from_c(SRC), strategy)
        assert strategy.gc_states == {False}
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, gc_disabled):
        strategy = _GcProbe()
        analyze(program_from_c(SRC), strategy)
        assert strategy.gc_states == {False}
        assert not gc.isenabled()

    def test_restored_after_budget_exceeded(self, gc_enabled):
        engine = Engine(program_from_c(SRC), _GcProbe(), max_facts=1)
        with pytest.raises(AnalysisBudgetExceeded):
            engine.solve()
        assert gc.isenabled()

    def test_add_statements_pauses_and_restores(self, gc_enabled):
        program = program_from_c(RECURRING_STORE_SRC)
        body = program.functions["main"].stmts
        held = body[len(body) // 2:]
        del body[len(body) // 2:]
        strategy = _GcProbe()
        session = AnalysisSession(program)
        session.solve(strategy)
        strategy.gc_states.clear()
        session.add_statements(held, function="main")
        assert strategy.gc_states == {False}
        assert gc.isenabled()

    def test_concurrent_solves_restore_once_both_finish(self, gc_enabled):
        program = program_from_c(
            generate_program(5, GenConfig(n_statements=400)), name="gen")
        start = threading.Barrier(2)
        errors = []

        def solve():
            try:
                start.wait()
                for cls in ALL_STRATEGIES:
                    analyze(program, cls())
            except Exception as err:  # pragma: no cover - reported below
                errors.append(err)

        threads = [threading.Thread(target=solve) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert gc.isenabled()

    def test_guard_nests_across_threads(self, gc_enabled):
        entered, release = threading.Event(), threading.Event()

        def hold():
            with no_cyclic_gc():
                entered.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(timeout=60)
            assert not gc.isenabled()
            with no_cyclic_gc():
                assert not gc.isenabled()
            # The other thread is still inside: the collector stays off.
            assert not gc.isenabled()
        finally:
            release.set()
            holder.join()
        assert gc.isenabled()
