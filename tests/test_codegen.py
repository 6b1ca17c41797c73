"""The codegen backend's compile cache, the accel seam, and fail-fast
backend validation.

``tests/test_backends.py`` already pins codegen/accel to the reference
fixpoint across the whole suite matrix; this file covers the machinery
around them:

- generated drain source is syntactically valid (and compiles) for
  every (worklist policy, windows) shape and every strategy instance;
- the content-key cache: engines sharing a (policy, windows) shape
  share one compiled code object — across engines, sessions, and
  incremental re-solves — while differing shapes compile separately;
- the accel seam: a present compiled module (here: the generator's own
  output, interpreted) is used and reported via ``stats.accel_active``,
  an absent or version-stale module falls back to generated Python
  silently and identically;
- backend-name validation fails at session construction / CLI parsing
  with the registered list and availability hints, not deep inside a
  solve.
"""

from __future__ import annotations

import ast
import sys
import types
from heapq import heappop, heappush

import pytest

from repro import CommonInitialSequence, analyze, program_from_c
from repro.core import STRATEGY_BY_KEY
import repro.core.codegen as codegen_mod
from repro.core.codegen import (
    ACCEL_API_VERSION,
    AccelBackend,
    CodegenBackend,
    compiled_drain,
    drain_key,
    generate_drain_source,
)
from repro.core.engine import Engine
from repro.ir.refs import OffsetRef
from repro.session import AnalysisSession

SRC = """
struct S { int *p; int *q; };
int x, y;
struct S a, b;
void main(void) {
    int **pp;
    a.p = &x;
    b = a;
    pp = &a.q; *pp = &y;
}
"""


def _program():
    return program_from_c(SRC, name="codegen.c")


# ---------------------------------------------------------------------------
# Source generation.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("windows", [False, True])
@pytest.mark.parametrize("policy", ["priority", "fifo", "generic"])
def test_generated_source_is_valid_python(policy, windows):
    src = generate_drain_source(policy, windows)
    tree = ast.parse(src)
    fn = tree.body[0]
    assert isinstance(fn, ast.FunctionDef) and fn.name == "drain"
    assert [a.arg for a in fn.args.args] == [
        "eng", "edge_sent", "win_sent", "sub_sent",
    ]
    compile(src, "<test>", "exec")


def test_generated_source_specializes_per_policy():
    assert "heappop" in generate_drain_source("priority", False)
    assert "popleft" in generate_drain_source("fifo", False)
    assert "wl_pop" in generate_drain_source("generic", False)
    assert "windows_get" in generate_drain_source("generic", True)
    assert "windows_get" not in generate_drain_source("generic", False)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown worklist policy"):
        generate_drain_source("lifo", False)


@pytest.mark.parametrize("key", sorted(STRATEGY_BY_KEY))
def test_drain_key_and_source_for_every_strategy(key):
    """Each strategy instance maps to a shape whose source compiles."""
    from repro.core.offsets import Offsets

    eng = Engine(_program(), STRATEGY_BY_KEY[key](), backend="codegen")
    policy, windows = drain_key(eng)
    assert policy == "priority"  # the default worklist
    # Only the Offsets family can install byte windows.
    assert windows == isinstance(eng.strategy, Offsets)
    ast.parse(generate_drain_source(policy, windows))
    assert callable(compiled_drain((policy, windows)))


# ---------------------------------------------------------------------------
# The compile cache.
# ---------------------------------------------------------------------------


def test_same_shape_shares_one_compiled_drain():
    assert compiled_drain(("priority", False)) is compiled_drain(
        ("priority", False)
    )


def test_differing_shapes_compile_separately():
    fns = {
        compiled_drain((policy, windows))
        for policy in ("priority", "fifo", "generic")
        for windows in (False, True)
    }
    assert len(fns) == 6


def test_sessions_with_same_shape_reuse_the_compiled_drain():
    a = AnalysisSession.from_c(SRC, backend="codegen")
    b = AnalysisSession.from_c(SRC, backend="codegen")
    a.solve(CommonInitialSequence())
    b.solve(CommonInitialSequence())
    (eng_a,) = a._engines.values()
    (eng_b,) = b._engines.values()
    assert eng_a.backend._fn is not None
    assert eng_a.backend._fn is eng_b.backend._fn


def test_incremental_resolve_keeps_the_resolved_drain():
    from repro.ir.refs import FieldRef
    from repro.ir.stmts import AddrOf

    session = AnalysisSession.from_c(
        "int x, y, *p;\nvoid main(void) { p = &x; }", backend="codegen"
    )
    res = session.solve(CommonInitialSequence())
    (eng,) = session._engines.values()
    fn = eng.backend._fn
    assert fn is not None
    objs = session.program.objects
    p, y = objs.lookup("p"), objs.lookup("y")
    session.add_statements([AddrOf(p, FieldRef(y, ()))], function="main")
    assert eng.backend._fn is fn
    assert res.points_to_names(p) == {"x", "y"}


def test_worklist_policy_changes_the_specialization():
    prog = _program()
    strat = STRATEGY_BY_KEY["common_initial_sequence"]
    pri = Engine(prog, strat(), backend="codegen", worklist="priority")
    fifo = Engine(prog, strat(), backend="codegen", worklist="fifo")
    base = analyze(prog, strat(), backend="bigint")
    for eng in (pri, fifo):
        res = eng.solve()
        assert set(res.facts.all_facts()) == set(base.facts.all_facts())
    assert pri.backend._fn is not fifo.backend._fn


# ---------------------------------------------------------------------------
# The accel seam.
# ---------------------------------------------------------------------------


@pytest.fixture
def accel_seam():
    """Reset load_accel's probe cache around a test and restore after."""
    saved = (codegen_mod._accel_module, codegen_mod._accel_checked)
    saved_sys = sys.modules.get("repro.core._accel")
    codegen_mod._accel_module = None
    codegen_mod._accel_checked = False
    yield
    codegen_mod._accel_module, codegen_mod._accel_checked = saved
    if saved_sys is None:
        sys.modules.pop("repro.core._accel", None)
    else:
        sys.modules["repro.core._accel"] = saved_sys


def _interpreted_accel_module():
    """What tools/build_accel.py compiles, minus the compiler."""
    ns = {"heappop": heappop, "heappush": heappush, "OffsetRef": OffsetRef}
    exec(compile(generate_drain_source("generic", True), "<test-accel>",
                 "exec"), ns)
    return types.SimpleNamespace(
        ACCEL_API_VERSION=ACCEL_API_VERSION, drain=ns["drain"]
    )


def test_accel_falls_back_to_codegen_when_absent(monkeypatch):
    monkeypatch.setattr(codegen_mod, "load_accel", lambda: None)
    prog = _program()
    base = analyze(prog, CommonInitialSequence(), backend="bigint")
    res = analyze(prog, CommonInitialSequence(), backend="accel")
    assert res.stats.backend == "accel"
    assert res.stats.accel_active == 0
    assert set(res.facts.all_facts()) == set(base.facts.all_facts())


@pytest.mark.parametrize("key", sorted(STRATEGY_BY_KEY))
def test_accel_runs_the_built_module_when_present(monkeypatch, key):
    mod = _interpreted_accel_module()
    monkeypatch.setattr(codegen_mod, "load_accel", lambda: mod)
    prog = _program()
    strat_cls = STRATEGY_BY_KEY[key]
    base = analyze(prog, strat_cls(), backend="bigint")
    res = analyze(prog, strat_cls(), backend="accel")
    assert res.stats.accel_active == 1
    assert set(res.facts.all_facts()) == set(base.facts.all_facts())
    assert res.facts.edge_count() == base.facts.edge_count()


def test_load_accel_rejects_stale_api_version(accel_seam):
    sys.modules["repro.core._accel"] = types.SimpleNamespace(
        ACCEL_API_VERSION=ACCEL_API_VERSION + 1, drain=lambda *a: None
    )
    assert codegen_mod.load_accel() is None


def test_load_accel_accepts_matching_api_version(accel_seam):
    fake = types.SimpleNamespace(
        ACCEL_API_VERSION=ACCEL_API_VERSION, drain=lambda *a: None
    )
    sys.modules["repro.core._accel"] = fake
    assert codegen_mod.load_accel() is fake
    # Probe outcome is cached.
    sys.modules.pop("repro.core._accel")
    assert codegen_mod.load_accel() is fake


def test_load_accel_propagates_errors_other_than_import_error(
        accel_seam, broken_import):
    """Only an ImportError means "not built"; a built module that breaks
    while importing is a bug to surface, not a fallback."""
    broken_import("repro.core._accel")
    with pytest.raises(RuntimeError, match="_accel failed"):
        codegen_mod.load_accel()
    assert not codegen_mod._accel_checked


def test_accel_backend_is_codegen_plus_seam():
    assert issubclass(AccelBackend, CodegenBackend)
    assert AccelBackend.name == "accel"


# ---------------------------------------------------------------------------
# Fail-fast backend validation.
# ---------------------------------------------------------------------------


def test_session_rejects_unknown_backend_at_construction():
    with pytest.raises(KeyError, match="registered:"):
        AnalysisSession.from_c(SRC, backend="no-such-backend")


def test_session_rejects_bad_env_backend_at_construction(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "typo-backend")
    with pytest.raises(KeyError, match="REPRO_BACKEND"):
        AnalysisSession.from_c(SRC)


def test_cli_reports_bad_env_backend(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    src = tmp_path / "t.c"
    src.write_text("int x, *p;\nvoid main(void) { p = &x; }\n")
    monkeypatch.setenv("REPRO_BACKEND", "typo-backend")
    with pytest.raises(SystemExit) as exc:
        main([str(src), "-q", "p"])
    msg = str(exc.value)
    assert "typo-backend" in msg and "registered:" in msg
    assert "REPRO_BACKEND" in msg


def test_bench_cli_reports_unknown_backend(capsys):
    from repro.bench.__main__ import main as bench_main

    rc = bench_main(["--repeats", "1", "--programs", "twig",
                     "--figures", "6", "--backend", "bigint,nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope" in err and "registered:" in err


def test_unknown_backend_error_hints_at_accel_fallback(
    accel_seam, monkeypatch
):
    """With no built module, the error explains the accel fallback."""
    from repro.core.backend import backend_name

    with pytest.raises(KeyError) as exc:
        backend_name("definitely-not-a-backend")
    assert "accel" in str(exc.value)
    assert "tools/build_accel.py" in str(exc.value)
