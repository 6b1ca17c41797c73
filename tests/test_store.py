"""The content-addressed result store (:mod:`repro.store`).

Three contracts are pinned here:

- **Key sensitivity**: the hash must change — and hence lookups must
  miss — when any fixpoint-determining input changes: program text,
  strategy, ABI, strict/lenient mode, Assumption 1.  And it must NOT
  change for fixpoint-irrelevant inputs (the propagation backend) or
  across independent parses of the same source.
- **Round-trip fidelity**: under every registered strategy, a
  warm-started result's points-to sets are byte-identical to the solved
  ones, across independent parses of the same source (fresh object
  identities), with ``store_hits`` visible in the result stats and the
  session counters.
- **Corruption safety**: whatever is on disk under the key — truncated
  JSON, random bytes, schema junk, version skew, facts naming unknown
  objects — a load degrades to a miss plus a WARNING diagnostic
  (kind ``store-corrupt``), never a crash.  A programming error in the
  load path is not corruption: it propagates.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import CommonInitialSequence, Offsets, analyze, program_from_c
from repro.core import STRATEGY_BY_KEY
from repro.core.facts import FactBase
from repro.core.result import Result
from repro.ctype.layout import LP64, Layout
from repro.diag import DiagnosticSink, Severity
from repro.ir.refs import FieldRef
from repro.session import AnalysisSession
from repro.store import ResultStore, store_key

SRC = """
struct S { int *p; int *q; };
int x, y;
int *gp;
struct S s;
void main(void) { s.p = &x; s.q = &y; gp = s.p; }
"""


def _solved(src=SRC, strategy=None):
    prog = program_from_c(src, name="t.c")
    strategy = strategy or CommonInitialSequence()
    return prog, strategy, analyze(prog, strategy)


# ---------------------------------------------------------------------------
# Key sensitivity.
# ---------------------------------------------------------------------------
def test_key_changes_on_every_fixpoint_input() -> None:
    prog = program_from_c(SRC, name="t.c")
    base = store_key(prog, CommonInitialSequence())
    # Program text.
    grown = program_from_c(SRC + "int extra;\n", name="t.c")
    assert store_key(grown, CommonInitialSequence()) != base
    # Strategy.
    assert store_key(prog, Offsets()) != base
    # ABI.
    assert store_key(prog, CommonInitialSequence(Layout(LP64))) != base
    # Strict / lenient front-end mode.
    assert store_key(prog, CommonInitialSequence(), strict=False) != base
    # Assumption 1.
    assert store_key(prog, CommonInitialSequence(),
                     assume_valid_pointers=False) != base


def test_key_ignores_backend_and_is_stable_across_parses() -> None:
    a = program_from_c(SRC, name="t.c")
    b = program_from_c(SRC, name="t.c")
    assert store_key(a, CommonInitialSequence()) == \
        store_key(b, CommonInitialSequence())


def test_key_sees_struct_member_changes() -> None:
    """Same tag, different member list: ``repr`` can't tell structs
    apart (it is deliberately field-blind), the store key must."""
    other = SRC.replace("int *p; int *q;", "int *q; int *p;")
    a = program_from_c(SRC, name="t.c")
    b = program_from_c(other, name="t.c")
    assert store_key(a, CommonInitialSequence()) != \
        store_key(b, CommonInitialSequence())


# ---------------------------------------------------------------------------
# Round trip.
# ---------------------------------------------------------------------------
def _assert_round_trip(tmp_path, key: str) -> None:
    prog, strategy, res = _solved(strategy=STRATEGY_BY_KEY[key]())
    store = ResultStore(tmp_path)
    sink = DiagnosticSink()
    stored_key = store.put(prog, res)
    assert stored_key is not None
    assert store.path_for(stored_key).exists()

    prog2 = program_from_c(SRC, name="t.c")     # fresh identities
    strategy2 = STRATEGY_BY_KEY[key]()
    warm = store.load(prog2, strategy2, diagnostics=sink)
    assert not [d for d in sink.records if d.kind == "store-corrupt"]
    assert warm is not None and warm.key == stored_key
    for obj in prog.objects.all_objects():
        o2 = prog2.objects.lookup(obj.name)
        a = sorted(repr(r) for r in res.points_to(FieldRef(obj, ())))
        b = sorted(repr(r) for r in warm.result.points_to(FieldRef(o2, ())))
        assert a == b, obj.name
    assert warm.result.stats.store_hits == 1
    assert warm.result.facts.edge_count() == res.facts.edge_count()
    assert store.hits == 1 and store.misses == 0


def test_round_trip_byte_identical_across_parses(tmp_path) -> None:
    _assert_round_trip(tmp_path, CommonInitialSequence.key)


@pytest.mark.parametrize("key", sorted(STRATEGY_BY_KEY))
def test_round_trip_every_strategy(tmp_path, key) -> None:
    _assert_round_trip(tmp_path, key)


def test_session_warm_start_and_dropping_on_growth(tmp_path) -> None:
    st = CommonInitialSequence()
    cold = AnalysisSession.from_c(SRC, store=str(tmp_path))
    cold.solve(st)
    assert cold.store_misses == 1        # first solve missed, then wrote

    warm = AnalysisSession.from_c(SRC, store=str(tmp_path))
    res = warm.solve(st)
    assert warm.store_hits == 1
    assert res.stats.store_hits == 1
    assert warm.query(["gp"]) == {"gp": ["x"]}

    # Growth invalidates: warm results have no engine to re-drain.
    from repro.ir.stmts import AddrOf

    program = warm.program
    gp, y = program.objects.lookup("gp"), program.objects.lookup("y")
    warm.add_statements([AddrOf(gp, FieldRef(y, ()))], function="main")
    assert warm.query(["gp"]) == {"gp": ["x", "y"]}
    # The grown program re-solved (its key is new — another miss+write).
    assert warm.store_misses >= 1


def test_session_hashes_each_program_version_once(tmp_path,
                                                  monkeypatch) -> None:
    """A warm-start miss and the put that follows it share one key; a
    grown program is hashed afresh, and keys match ``store_key``."""
    import repro.store as store_mod

    calls = []

    def counting_store_key(*args, **kwargs):
        calls.append(args[1].key)
        return store_key(*args, **kwargs)

    monkeypatch.setattr(store_mod, "store_key", counting_store_key)
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    strategy = CommonInitialSequence()
    session.solve(strategy)                 # miss, solve, put
    assert session.store_misses == 1
    assert calls == [strategy.key]
    key = store_key(session.program, strategy)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]

    from repro.ir.stmts import AddrOf

    program = session.program
    gp, y = program.objects.lookup("gp"), program.objects.lookup("y")
    session.add_statements([AddrOf(gp, FieldRef(y, ()))], function="main")
    offsets = Offsets()
    session.solve(offsets)                  # grown program: miss, put
    assert calls == [strategy.key, offsets.key]
    assert (tmp_path / f"{store_key(program, offsets)}.json").exists()


def test_put_declines_unstorable_facts(tmp_path) -> None:
    """Facts naming objects outside the program's table (the pessimistic
    ``<unknown>`` sink) cannot be rebuilt by name: put returns None."""
    prog, strategy, res = _solved()
    foreign = program_from_c("int alien;", name="a.c")
    facts = FactBase()
    facts.add(
        strategy.normalize(FieldRef(prog.objects.lookup("gp"), ())),
        strategy.normalize(FieldRef(foreign.objects.lookup("alien"), ())),
    )
    fake = Result(prog, strategy, facts, res.stats)
    store = ResultStore(tmp_path)
    assert store.put(prog, fake) is None
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Corruption safety: fuzz the entry under a valid key.
# ---------------------------------------------------------------------------
def _corruptions(payload_text: str):
    rng = random.Random(0)
    yield ""                                            # empty file
    yield payload_text[: len(payload_text) // 2]        # truncated JSON
    yield "not json at all {{{"
    yield bytes(rng.randrange(256) for _ in range(512)).decode(
        "latin-1")                                      # random bytes
    yield json.dumps([1, 2, 3])                         # wrong shape
    yield json.dumps({"version": 999})                  # version skew
    doc = json.loads(payload_text)
    doc["strategy"] = "offsets"                         # field mismatch
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["refs"] = [["F", "no_such_object", []]]
    doc["adjacency"] = [[0, [0]]]
    yield json.dumps(doc)                               # unknown object
    doc = json.loads(payload_text)
    doc["adjacency"] = [[0, [10_000]]]                  # target out of range
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["adjacency"] = [[-2, [0]]]                      # source out of range
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["refs"] = "oops"                                # table not a list
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["refs"][0][2] = float("inf")                    # non-integer offset
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["adjacency"] = [[float("inf"), [0]]]            # non-integer index
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["stats"] = [1, 2]                               # stats not an object
    yield json.dumps(doc)
    doc = json.loads(payload_text)
    doc["stats"]["facts"] = "many"                      # stat not a number
    yield json.dumps(doc)


def test_corrupted_entries_degrade_to_miss_with_warning(tmp_path) -> None:
    prog, strategy, res = _solved()
    store = ResultStore(tmp_path)
    key = store.put(prog, res)
    path = store.path_for(key)
    pristine = path.read_text()

    for i, garbage in enumerate(_corruptions(pristine)):
        path.write_text(garbage, encoding="latin-1")
        sink = DiagnosticSink()
        loaded = store.load(prog, strategy, diagnostics=sink)
        assert loaded is None, f"corruption #{i} was not a miss"
        warnings = [d for d in sink.records if d.kind == "store-corrupt"]
        assert warnings and warnings[0].severity is Severity.WARNING, (
            f"corruption #{i} produced no store-corrupt WARNING")

    # The pristine entry still loads (the store object is not poisoned).
    path.write_text(pristine)
    assert store.load(prog, strategy) is not None


def test_entries_with_old_summary_records_still_load(tmp_path) -> None:
    """Entries once carried a ``summaries`` list; the key text and
    version are unchanged, so such an entry loads and the list is
    ignored, well-formed or not."""
    prog, strategy, res = _solved()
    store = ResultStore(tmp_path)
    key = store.put(prog, res)
    path = store.path_for(key)
    doc = json.loads(path.read_text())
    assert "summaries" not in doc
    for summaries in (None, [{"name": "main", "scc": 0, "level": 0,
                              "params": {}, "returns": []}], "junk"):
        doc["summaries"] = summaries
        path.write_text(json.dumps(doc))
        sink = DiagnosticSink()
        loaded = store.load(prog, strategy, diagnostics=sink)
        assert loaded is not None and not sink.records
        assert set(loaded.result.facts.all_facts()) == set(
            res.facts.all_facts())


def test_programming_error_in_load_propagates(tmp_path, monkeypatch) -> None:
    """Only data errors degrade to a miss; a bug in the load path (here,
    a strategy whose canonicalization is broken) must surface."""
    prog, strategy, res = _solved()
    store = ResultStore(tmp_path)
    store.put(prog, res)

    def broken(ref):
        raise AttributeError("bug, not corruption")

    monkeypatch.setattr(strategy, "canon_ref", broken)
    sink = DiagnosticSink()
    with pytest.raises(AttributeError):
        store.load(prog, strategy, diagnostics=sink)
    assert not [d for d in sink.records if d.kind == "store-corrupt"]


def test_corrupt_entry_makes_session_resolve(tmp_path) -> None:
    st = CommonInitialSequence()
    AnalysisSession.from_c(SRC, store=str(tmp_path)).solve(st)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("garbage")
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    res = session.solve(st)                  # re-solves, never crashes
    assert session.store_hits == 0 and session.store_misses == 1
    assert res.points_to_names(session.program.objects.lookup("gp")) == {"x"}
    assert any(d.kind == "store-corrupt" for d in session.diagnostics.records)
    # ... and the re-solve healed the entry for the next process.
    healed = AnalysisSession.from_c(SRC, store=str(tmp_path))
    healed.solve(st)
    assert healed.store_hits == 1


def test_unwritable_store_warns_instead_of_raising(tmp_path) -> None:
    prog, strategy, res = _solved()
    store = ResultStore(tmp_path)
    (tmp_path / "blocker").mkdir()
    # Force the final rename target to be an existing directory: the
    # atomic replace fails with OSError on every platform.
    store.path_for = lambda key: tmp_path / "blocker"  # type: ignore
    sink = DiagnosticSink()
    assert store.put(prog, res, diagnostics=sink) is None
    assert any(d.kind == "store-write-failed" for d in sink.records)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_lenient_and_strict_do_not_share_entries(tmp_path, strict) -> None:
    first = AnalysisSession.from_c(SRC, strict=strict, store=str(tmp_path))
    first.solve(CommonInitialSequence())
    other = AnalysisSession.from_c(SRC, strict=not strict,
                                   store=str(tmp_path))
    other.solve(CommonInitialSequence())
    assert other.store_hits == 0             # opposite mode never hits
    assert other.store_misses == 1


# ---------------------------------------------------------------------------
# Re-drained results: written by ``persist_pending``, never by growth.
# ---------------------------------------------------------------------------
def _grow(session: AnalysisSession, target: str = "y") -> None:
    """Add ``gp = &target`` to ``main``."""
    from repro.ir.stmts import AddrOf

    objects = session.program.objects
    session.add_statements(
        [AddrOf(objects.lookup("gp"), FieldRef(objects.lookup(target), ()))],
        function="main")


def _counting_puts(monkeypatch) -> list:
    """Record the key of every ``ResultStore.put`` call."""
    keys: list = []
    original = ResultStore.put

    def counting(self, *args, **kwargs):
        keys.append(kwargs.get("key"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ResultStore, "put", counting)
    return keys


def test_persist_pending_writes_the_grown_program(tmp_path) -> None:
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    st = CommonInitialSequence()
    session.solve(st)
    _grow(session)
    key = store_key(session.program, st)
    assert not (tmp_path / f"{key}.json").exists()  # growth writes nothing
    session.persist_pending()
    assert (tmp_path / f"{key}.json").exists()


def test_persisting_twice_puts_once(tmp_path, monkeypatch) -> None:
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    session.solve(CommonInitialSequence())
    _grow(session)
    puts = _counting_puts(monkeypatch)
    session.persist_pending()
    session.persist_pending()
    assert len(puts) == 1


def test_traced_engines_are_never_written(tmp_path, monkeypatch) -> None:
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    session.solve(CommonInitialSequence(), trace=True)
    assert list(tmp_path.iterdir()) == []
    _grow(session)
    puts = _counting_puts(monkeypatch)
    session.persist_pending()
    assert puts == [] and list(tmp_path.iterdir()) == []


def test_no_store_writes_nothing(monkeypatch) -> None:
    session = AnalysisSession.from_c(SRC)
    session.solve(CommonInitialSequence())
    _grow(session)
    puts = _counting_puts(monkeypatch)
    session.persist_pending()
    assert puts == []


def test_release_drops_the_pending_mark(tmp_path, monkeypatch) -> None:
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    st = CommonInitialSequence()
    session.solve(st)
    _grow(session)
    session.release(st)
    puts = _counting_puts(monkeypatch)
    session.persist_pending()
    assert puts == []


def test_a_second_delta_persists_the_newest_version(tmp_path,
                                                    monkeypatch) -> None:
    session = AnalysisSession.from_c(SRC, store=str(tmp_path))
    st = CommonInitialSequence()
    session.solve(st)
    _grow(session, "y")
    session.persist_pending()
    first = store_key(session.program, st)
    _grow(session, "x")
    _grow(session, "s")               # two deltas, one pending version
    puts = _counting_puts(monkeypatch)
    session.persist_pending()
    newest = store_key(session.program, st)
    assert newest != first and puts == [newest]
    assert (tmp_path / f"{first}.json").exists()
    assert (tmp_path / f"{newest}.json").exists()


def test_warm_start_does_not_inherit_session_counters(tmp_path) -> None:
    """A re-drained entry is stored as a from-scratch solve would be: a
    session that warm-starts from it never re-drained anything."""
    grower = AnalysisSession.from_c(SRC, store=str(tmp_path))
    st = CommonInitialSequence()
    grown = grower.solve(st)
    _grow(grower)
    assert grown.stats.incremental_solves == 1
    grower.persist_pending()

    fresh = AnalysisSession.from_c(SRC, store=str(tmp_path))
    _grow(fresh)
    warm = fresh.solve(st)
    assert fresh.store_hits == 1
    assert warm.stats.incremental_solves == 0
    assert warm.stats.delta_stmts == 0
    assert warm.stats.reused_graph_refs == 0
    assert fresh.describe()["solved"][0]["incremental_solves"] == 0
    assert fresh.query(["gp"]) == {"gp": ["x", "y"]}


def test_a_failed_redrain_leaves_nothing_to_persist(tmp_path,
                                                    monkeypatch) -> None:
    """A re-drain that raises drops every engine it could not bring up to
    the grown program — the failing one (partial facts) and those after
    it (old facts) — so no stale pending mark reaches the store."""
    from repro.core import AnalysisBudgetExceeded

    session = AnalysisSession.from_c(SRC, store=str(tmp_path), max_facts=9)
    strategies = [CommonInitialSequence(), Offsets()]
    for st in strategies:
        assert session.solve(st).stats.facts == 8
    _grow(session, "y")                  # 9 facts each: both pending
    with pytest.raises(AnalysisBudgetExceeded):
        _grow(session, "s")              # 10 facts: the first engine raises
    assert session.cached_results() == []
    puts = _counting_puts(monkeypatch)
    session.persist_pending()
    assert puts == []
    for st in strategies:
        key = store_key(session.program, st)
        assert not (tmp_path / f"{key}.json").exists()
