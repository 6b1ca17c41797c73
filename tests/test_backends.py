"""Propagation-backend equivalence: every backend, one fixpoint.

The backend layer (:mod:`repro.core.backend`) may change *how* deltas
are pushed — per-pop big-int unions, difference-propagation frontiers,
round-based dense closure — but never *what* the analysis computes.
This file pins that contract:

- a differential matrix over the whole benchmark suite — every program,
  every strategy, every registered backend — against the dict-based
  reference solver (facts, per-ref queries, deref profile, and the
  order-independent counters must all be identical);
- forced-path tests for the numpy backend's internal kernels (dense
  rounds on tiny graphs, the matmul closure) and its fallback rules
  (numpy unavailable, graph below the dense threshold);
- the selection seams: ``Engine(backend=...)``, session caching,
  ``REPRO_BACKEND``, the ``--backend`` CLI flag, and ``trace=True``
  forcing bigint with a recorded diagnostic;
- a fixed-seed adversarial lenient-mode fuzz pass through each backend
  (the never-crash contract is backend-independent).
"""

from __future__ import annotations

import pytest

from repro import CommonInitialSequence, analyze, program_from_c
from repro.clients.derefstats import deref_stats
from repro.core import STRATEGY_BY_KEY
from repro.core.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_VAR,
    BigintBackend,
    NumpyBackend,
    backend_name,
    resolve_backend,
)
from repro.core.engine import Engine
from repro.core.reference import reference_analyze
from repro.diag import DiagnosticSink
from repro.session import AnalysisSession
from repro.suite.fuzz import run_campaign
from repro.suite.registry import SUITE, load_source

#: Stats fields that legitimately differ between backends / the
#: reference solver (how the fixpoint was reached, not what it is).
_HOW_STATS = {
    "solve_seconds", "sccs_collapsed", "props_saved",
    "backend", "dense_rounds", "accel_active",
    "frontier_bits_suppressed",
    "incremental_solves", "delta_stmts", "reused_graph_refs",
}

STRATEGY_KEYS = sorted(STRATEGY_BY_KEY)
BACKEND_KEYS = sorted(BACKENDS)


def _gated(stats) -> dict:
    return {k: v for k, v in stats.as_dict().items() if k not in _HOW_STATS}


# ---------------------------------------------------------------------------
# The differential matrix: suite x strategies x backends vs. reference.
# ---------------------------------------------------------------------------

_programs: dict = {}
_references: dict = {}


def _program(name: str):
    prog = _programs.get(name)
    if prog is None:
        bp = next(p for p in SUITE if p.name == name)
        prog = _programs[name] = program_from_c(load_source(bp), name=name)
    return prog


def _reference(name: str, key: str):
    ref = _references.get((name, key))
    if ref is None:
        ref = _references[(name, key)] = reference_analyze(
            _program(name), STRATEGY_BY_KEY[key]()
        )
    return ref


@pytest.mark.parametrize("backend", BACKEND_KEYS)
@pytest.mark.parametrize("key", STRATEGY_KEYS)
@pytest.mark.parametrize("name", [bp.name for bp in SUITE])
def test_suite_matrix_matches_reference(name, key, backend) -> None:
    """Every (program, strategy, backend) cell equals the reference."""
    ref = _reference(name, key)
    res = analyze(_program(name), STRATEGY_BY_KEY[key](), backend=backend)
    assert res.stats.backend == backend
    assert set(res.facts.all_facts()) == set(ref.facts.all_facts())
    assert res.facts.edge_count() == ref.facts.edge_count()
    assert deref_stats(res).average == deref_stats(ref).average
    assert _gated(res.stats) == _gated(ref.stats)


def test_backends_agree_on_per_ref_queries() -> None:
    """Per-ref decode path: spot-check the largest suite program."""
    ref = _reference("bc", "common_initial_sequence")
    for backend in BACKEND_KEYS:
        res = analyze(
            _program("bc"), CommonInitialSequence(), backend=backend
        )
        for src in ref.facts.sources():
            assert res.facts.points_to(src) == ref.facts.points_to(src)


# ---------------------------------------------------------------------------
# Numpy backend internals: forced kernels and fallback rules.
# ---------------------------------------------------------------------------

_CYCLE_SRC = """
struct S { int *p; int *q; };
int x, y;
struct S a, b, c;
void main(void) {
    int **pp;
    a.p = &x;
    b = a; a = c; c = b;   /* copy cycle a -> b -> c -> a */
    pp = &a.q; *pp = &y;
}
"""


def _cycle_program():
    return program_from_c(_CYCLE_SRC, name="cycle.c")


def test_numpy_forced_dense_rounds() -> None:
    """min_dense_refs=0 forces dense rounds even on a tiny program."""
    program = _cycle_program()
    base = analyze(program, CommonInitialSequence(), backend="bigint")
    res = analyze(
        program, CommonInitialSequence(),
        backend=NumpyBackend(min_dense_refs=0),
    )
    assert res.stats.dense_rounds > 0
    assert set(res.facts.all_facts()) == set(base.facts.all_facts())


def test_numpy_forced_matmul_kernel() -> None:
    """dense_kernel_edges=0 routes the closure through the matmul."""
    program = _cycle_program()
    base = analyze(program, CommonInitialSequence(), backend="bigint")
    res = analyze(
        program, CommonInitialSequence(),
        backend=NumpyBackend(min_dense_refs=0, dense_kernel_edges=0),
    )
    assert res.stats.dense_rounds > 0
    assert set(res.facts.all_facts()) == set(base.facts.all_facts())


def test_numpy_eagerly_collapses_copy_cycles() -> None:
    """The dense snapshot merges whole copy SCCs (the LCD twin)."""
    res = analyze(
        _cycle_program(), CommonInitialSequence(),
        backend=NumpyBackend(min_dense_refs=0),
    )
    assert res.stats.sccs_collapsed > 0


def test_numpy_falls_back_without_numpy(monkeypatch) -> None:
    """available_numpy() -> None: whole drain runs on diffprop."""
    import repro.core.backend as backend_mod

    monkeypatch.setattr(backend_mod, "available_numpy", lambda: None)
    program = _cycle_program()
    base = analyze(program, CommonInitialSequence(), backend="bigint")
    res = analyze(program, CommonInitialSequence(), backend="numpy")
    assert res.stats.dense_rounds == 0          # the fallback signal
    assert res.stats.backend == "numpy"         # still reports selection
    assert set(res.facts.all_facts()) == set(base.facts.all_facts())


def test_numpy_probe_propagates_errors_other_than_import_error(
        monkeypatch, broken_import) -> None:
    """Only an ImportError means "numpy is absent"; a module that breaks
    while importing is a bug to surface, not a fallback."""
    import repro.core.backend as backend_mod

    monkeypatch.setattr(backend_mod, "_np_module", None)
    monkeypatch.setattr(backend_mod, "_np_checked", False)
    broken_import("numpy")
    with pytest.raises(RuntimeError, match="numpy failed"):
        backend_mod.available_numpy()
    assert not backend_mod._np_checked


def test_numpy_falls_back_below_dense_threshold() -> None:
    """Tiny graphs never pay dense-round overhead (default threshold)."""
    res = analyze(_cycle_program(), CommonInitialSequence(), backend="numpy")
    assert res.stats.dense_rounds == 0


# ---------------------------------------------------------------------------
# Difference propagation observable behavior.
# ---------------------------------------------------------------------------


def test_diffprop_suppresses_frontier_bits() -> None:
    """On a real program the frontiers must actually suppress work."""
    res = analyze(_program("bc"), CommonInitialSequence(), backend="diffprop")
    assert res.stats.frontier_bits_suppressed > 0


def test_incremental_resolve_per_backend() -> None:
    """add_statements re-solves match a from-scratch grown solve."""
    from repro.ir.refs import FieldRef
    from repro.ir.stmts import AddrOf

    for backend in BACKEND_KEYS:
        session = AnalysisSession.from_c(
            "int x, y, *p;\nvoid main(void) { p = &x; }",
            backend=backend,
        )
        res = session.solve(CommonInitialSequence())
        objs = session.program.objects
        p, y = objs.lookup("p"), objs.lookup("y")
        session.add_statements([AddrOf(p, FieldRef(y, ()))], function="main")
        assert res.points_to_names(p) == {"x", "y"}
        assert res.stats.incremental_solves == 1


# ---------------------------------------------------------------------------
# Selection seams.
# ---------------------------------------------------------------------------


def test_backend_name_resolution(monkeypatch) -> None:
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert backend_name(None) == DEFAULT_BACKEND
    assert backend_name("diffprop") == "diffprop"
    assert backend_name(BigintBackend()) == "bigint"
    monkeypatch.setenv(ENV_VAR, "diffprop")
    assert backend_name(None) == "diffprop"
    assert resolve_backend(None).name == "diffprop"
    with pytest.raises(KeyError):
        backend_name("no-such-backend")


def test_env_var_selects_engine_backend(monkeypatch) -> None:
    monkeypatch.setenv(ENV_VAR, "diffprop")
    res = analyze(_cycle_program(), CommonInitialSequence())
    assert res.stats.backend == "diffprop"


def test_session_caches_per_backend() -> None:
    session = AnalysisSession.from_c("int x, *p;\nvoid main(void) { p = &x; }")
    a = session.solve(CommonInitialSequence(), backend="bigint")
    b = session.solve(CommonInitialSequence(), backend="diffprop")
    assert a is not b
    assert a is session.solve(CommonInitialSequence(), backend="bigint")
    assert a.stats.backend == "bigint" and b.stats.backend == "diffprop"


def test_trace_forces_bigint_with_diagnostic() -> None:
    sink = DiagnosticSink()
    program = _cycle_program()
    eng = Engine(
        program, CommonInitialSequence(), trace=True,
        backend="numpy", diagnostics=sink,
    )
    assert eng.backend.name == "bigint"
    assert eng.stats.backend == "bigint"
    kinds = [d.kind for d in sink]
    assert "backend-forced-bigint" in kinds
    # An explicit bigint request under tracing stays silent.
    sink2 = DiagnosticSink()
    Engine(program, CommonInitialSequence(), trace=True,
           backend="bigint", diagnostics=sink2)
    assert not [d for d in sink2 if d.kind == "backend-forced-bigint"]


def test_cli_backend_flag(tmp_path, capsys) -> None:
    from repro.__main__ import main

    src = tmp_path / "t.c"
    src.write_text("int x, *p;\nvoid main(void) { p = &x; }\n")
    for backend in BACKEND_KEYS:
        assert main([str(src), "--backend", backend, "-q", "p"]) == 0
        assert "'x'" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Never-crash, per backend.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_KEYS)
def test_adversarial_fuzz_smoke_per_backend(backend) -> None:
    """Fixed-seed adversarial campaign: no contract violations."""
    failures = run_campaign(range(12), strategy_keys=None, backend=backend)
    assert failures == [], "\n".join(str(f) for f in failures)
