"""Multi-TU linking: symbol resolution, diagnostics, and entry points.

Covers the linker's C-linkage semantics — extern↔definition binding,
tentative-definition folding, ``static``-scope renaming, duplicate- and
conflicting-definition diagnostics — plus every user-facing surface
that grew multi-file support: ``AnalysisSession.from_files`` /
``from_sources``, ``program_from_file`` with a list, the CLI's N-file
positional and ``link`` subcommand, and the service's ``files`` field.
"""

from __future__ import annotations

import pytest

from repro import AnalysisSession, CommonInitialSequence
from repro.diag import DiagnosticSink, Severity
from repro.frontend import program_from_c, program_from_file, program_from_files
from repro.link import (
    LinkError,
    concat_sources,
    link_sources,
    parse_translation_unit,
    split_translation_units,
)


def _facts(session):
    """Solved facts as strings, compiler temporaries filtered out."""
    result = session.solve(CommonInitialSequence())
    return sorted(
        repr(pair) for pair in result.facts.all_facts()
        if "%t" not in repr(pair[0])
    )


# ----------------------------------------------------------------------
# Symbol scanning.
# ----------------------------------------------------------------------
def test_symbol_scan_classifies_linkage():
    tu = parse_translation_unit(
        """
        static int s;
        int tent;
        int strong = 1;
        extern int ext;
        int f(void) { return 0; }
        int g(int);
        """,
        name="a.c",
    )
    syms = tu.symbols
    assert syms["s"].static and syms["s"].tentative
    assert syms["tent"].tentative and not syms["tent"].defined
    assert syms["strong"].defined
    assert syms["ext"].extern and not syms["ext"].defined
    assert syms["f"].kind == "function" and syms["f"].defined
    assert syms["g"].kind == "function" and syms["g"].extern


def test_type_rendering_errors_propagate(monkeypatch):
    """Rendering a declaration's type for the conflict check has no
    fallback text: a bug inside it surfaces instead of being hidden."""
    import repro.link.tu as tu_mod
    from pycparser import c_generator

    class Broken(c_generator.CGenerator):
        def visit_Decl(self, n, no_type=False):
            raise AttributeError("broken renderer")

    monkeypatch.setattr(tu_mod, "_GEN", Broken())
    with pytest.raises(AttributeError, match="broken renderer"):
        parse_translation_unit("int f(int x);", name="a.c")


# ----------------------------------------------------------------------
# Extern resolution and tentative folding.
# ----------------------------------------------------------------------
def test_extern_resolves_to_definition_across_tus():
    session = AnalysisSession.from_sources([
        ("def.c", "int x; int *p;"),
        ("use.c", "extern int x; extern int *p;"
                  "void main(void) { p = &x; }"),
    ])
    assert _facts(session) == ["(p, x)"]
    info = session.program.link_info
    assert info.tus_linked == 2
    assert info.externs_resolved == 2


def test_tentative_definitions_fold_to_one_object():
    session = AnalysisSession.from_sources([
        ("a.c", "int x; int *p; void f(void) { p = &x; }"),
        ("b.c", "int x; int *q; void g(void) { q = &x; }"),
    ])
    facts = _facts(session)
    # Both TUs' tentative `int x;` are the same object.
    assert facts == ["(p, x)", "(q, x)"]
    assert session.program.link_info.tentative_folded == 1


def test_link_counters_flow_into_engine_stats():
    session = AnalysisSession.from_sources([
        ("def.c", "int x;"),
        ("use.c", "extern int x; int *p; void main(void) { p = &x; }"),
    ])
    stats = session.solve(CommonInitialSequence()).stats
    assert stats.tus_linked == 2
    assert stats.externs_resolved == 1
    d = stats.as_dict()
    assert d["tus_linked"] == 2 and d["externs_resolved"] == 1


# ----------------------------------------------------------------------
# static-scope renaming.
# ----------------------------------------------------------------------
def test_static_collisions_get_distinct_objects():
    session = AnalysisSession.from_sources([
        ("a.c", "static int hidden; int *pa;"
                "void fa(void) { pa = &hidden; }"),
        ("b.c", "static int hidden; int *pb;"
                "void fb(void) { pb = &hidden; }"),
    ])
    facts = _facts(session)
    # Each TU's `hidden` is its own object — pa and pb must NOT alias.
    assert len(facts) == 2
    targets = {f for f in facts}
    assert len({t.split(", ")[1] for t in targets}) == 2
    info = session.program.link_info
    assert info.static_renames == 2
    assert sorted(info.renames["hidden"]) == ["a.c", "b.c"]


def test_static_rename_is_scope_aware():
    # The local `hidden` inside fb shadows the file-scope static; the
    # rename must not touch it.
    session = AnalysisSession.from_sources([
        ("a.c", "static int hidden; int *pa;"
                "void fa(void) { pa = &hidden; }"),
        ("b.c", "static int hidden; int *pb;"
                "void fb(void) { int hidden; pb = &hidden; }"),
    ])
    pb_target = [f for f in _facts(session) if f.startswith("(pb")][0]
    assert "fb::hidden" in pb_target


def test_static_function_collision_renamed():
    session = AnalysisSession.from_sources([
        ("a.c", "static int helper(void) { return 1; }"
                "int fa(void) { return helper(); }"),
        ("b.c", "static int helper(void) { return 2; }"
                "int fb(void) { return helper(); }"),
    ])
    names = set(session.program.functions)
    assert "helper__tu0" in names and "helper__tu1" in names


def test_no_collision_no_rename():
    session = AnalysisSession.from_sources([
        ("a.c", "static int only_here; int *p;"
                "void f(void) { p = &only_here; }"),
        ("b.c", "int unrelated;"),
    ])
    assert session.program.link_info.static_renames == 0
    assert _facts(session) == ["(p, only_here)"]


# ----------------------------------------------------------------------
# Duplicate and conflicting definitions.
# ----------------------------------------------------------------------
def test_duplicate_function_definition_strict_raises():
    with pytest.raises(LinkError) as exc:
        link_sources([
            ("a.c", "int f(void) { return 1; }"),
            ("b.c", "int f(void) { return 2; }"),
        ])
    assert exc.value.diagnostic.kind == "duplicate-definition"
    assert "f" in exc.value.diagnostic.message


def test_duplicate_function_definition_lenient_keeps_first():
    sink = DiagnosticSink()
    program = link_sources([
        ("a.c", "int x1, *f_target; int *f(void) { return &x1; }"),
        ("b.c", "int x2; int *f(void) { return &x2; }"
                "extern int *f_target;"
                "void main(void) { f_target = f(); }"),
    ], strict=False, diagnostics=sink)
    assert "duplicate-definition" in sink.kinds()
    session = AnalysisSession(program)
    # First definition won: f returns &x1, never &x2.
    assert _facts(session) == ["(f::$ret, x1)", "(f_target, x1)"]


def test_mismatched_extern_types_warn_never_raise():
    for strict in (True, False):
        sink = DiagnosticSink()
        link_sources([
            ("a.c", "int g;"),
            ("b.c", "extern float g; void f(void) { }"),
        ], strict=strict, diagnostics=sink)
        kinds = sink.kinds()
        assert "conflicting-declaration" in kinds
        warn = [d for d in sink if d.kind == "conflicting-declaration"]
        assert all(d.severity is Severity.WARNING for d in warn)


def test_parameter_names_do_not_conflict():
    sink = DiagnosticSink()
    link_sources([
        ("a.c", "int *alias(int *x) { return x; }"),
        ("b.c", "int *alias(int *);"
                "void main(void) { }"),
    ], diagnostics=sink)
    assert "conflicting-declaration" not in sink.kinds()


def test_empty_link_rejected():
    with pytest.raises(LinkError):
        link_sources([])


def test_unparsable_tu_lenient_degrades():
    sink = DiagnosticSink()
    program = link_sources([
        ("good.c", "int x, *p; void main(void) { p = &x; }"),
        ("bad.c", "this is not C at all ((("),
    ], strict=False, diagnostics=sink)
    assert sink.has_fatal  # bad.c recorded, good.c still analyzed
    assert _facts(AnalysisSession(program)) == ["(p, x)"]


# ----------------------------------------------------------------------
# Entry points: frontend helpers, session classmethods, CLI, service.
# ----------------------------------------------------------------------
def test_program_from_file_accepts_path_list(tmp_path):
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text("int x;")
    b.write_text("extern int x; int *p; void main(void) { p = &x; }")
    program = program_from_file([a, b])
    assert program.link_info is not None
    assert program.link_info.tus_linked == 2
    # Single path (or singleton list) keeps single-TU behavior.
    assert program_from_file(a).link_info is None
    assert program_from_files([a]).link_info is None


def test_from_files_single_path_matches_from_file(tmp_path):
    f = tmp_path / "p.c"
    f.write_text("int x, *p; void main(void) { p = &x; }")
    one = AnalysisSession.from_file(f)
    many = AnalysisSession.from_files([f])
    assert _facts(one) == _facts(many)
    assert many.program.link_info is None


def test_session_from_file_accepts_list(tmp_path):
    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text("int x;")
    b.write_text("extern int x; int *p; void main(void) { p = &x; }")
    session = AnalysisSession.from_file([a, b])
    assert _facts(session) == ["(p, x)"]


def test_cli_accepts_multiple_files(tmp_path, capsys):
    from repro.__main__ import main

    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text("int x;")
    b.write_text("extern int x; int *p; void main(void) { p = &x; }")
    assert main([str(a), str(b), "-q", "p"]) == 0
    out = capsys.readouterr().out
    assert "2 TUs linked" in out
    assert "p -> ['x']" in out


def test_cli_duplicate_definition_one_line_error(tmp_path):
    from repro.__main__ import main

    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text("int f(void) { return 1; }")
    b.write_text("int f(void) { return 2; }")
    with pytest.raises(SystemExit) as exc:
        main([str(a), str(b)])
    msg = str(exc.value)
    assert "duplicate" in msg or "redefinition" in msg
    assert "Traceback" not in msg


def test_cli_link_subcommand(tmp_path, capsys):
    from repro.__main__ import main

    a = tmp_path / "a.c"
    b = tmp_path / "b.c"
    a.write_text("static int s; int x; void f(void) { }")
    b.write_text("static int s; extern int x; void g(void) { }")
    assert main(["link", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "2 TUs linked" in out
    assert "statics renamed: 2" in out


def test_service_accepts_files_field():
    from repro.service import ServiceApp, ServiceConfig, ServiceError

    app = ServiceApp(ServiceConfig())
    status, doc = app._create_session(
        {}, {},
        {"files": [
            {"name": "a.c", "source": "int x;"},
            {"name": "b.c",
             "source": "extern int x; int *p; void main(void) { p = &x; }"},
        ]},
    )
    assert status == 201
    assert doc["session"]["link"]["tus_linked"] == 2

    with pytest.raises(ServiceError) as exc:
        app._create_session({}, {}, {"source": "int x;", "files": []})
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        app._create_session({}, {}, {"files": []})
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        app._create_session({}, {}, {"files": [{"name": "a.c"}]})
    assert exc.value.status == 400


def test_splitter_roundtrip_equivalence():
    source = """
    struct node { struct node *next; int v; };
    struct node pool[4];
    struct node *head;
    void push(struct node *n) { n->next = head; head = n; }
    void init(void) { push(&pool[0]); push(&pool[1]); }
    int main(void) { init(); return 0; }
    """
    tus = split_translation_units(source, name="list.c", parts=3)
    assert len(tus) == 3
    linked = AnalysisSession(link_sources(tus, name="list.c"))
    concat = AnalysisSession(program_from_c(concat_sources(tus), "list.c"))
    assert _facts(linked) == _facts(concat)
