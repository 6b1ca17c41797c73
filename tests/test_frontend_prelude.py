"""The libc prelude is parsed once per process and shared by every AST.

:func:`~repro.frontend.parse.parse_c` parses a short scope header in the
prelude's place (the same typedef names and identifiers, so pycparser's
file scope is unchanged) and splices in the cached prelude nodes.  The
oracle for every test here is the plain parse that design replaces:
``CParser().parse(PRELUDE + '\\n# 1 "f"\\n' + preprocess(src), f)``,
computed inside the test.
"""

from __future__ import annotations

import pathlib

import pytest
from pycparser import c_ast, c_generator, c_parser

from repro.diag import DiagnosticSink
from repro.frontend import program_from_c
from repro.frontend.parse import (
    PRELUDE,
    ParseError,
    _wrap_pycparser_error,
    parse_c,
    prelude_nodes,
    preprocess,
)
from repro.link import link_sources, split_translation_units
from repro.link.tu import prelude_ext_count
from repro.suite.generator import GenConfig, generate_program
from repro.suite.registry import SUITE, load_source

SUITE_NAMES = [bp.name for bp in SUITE]
CORPUS = pathlib.Path(__file__).parent / "corpus"
_GEN = c_generator.CGenerator()


def _suite_source(name: str) -> str:
    return load_source(next(bp for bp in SUITE if bp.name == name))


def _oracle(source: str, filename: str, strict: bool = True) -> c_ast.FileAST:
    body = preprocess(source, strict=strict, diagnostics=DiagnosticSink(),
                      filename=filename)
    return c_parser.CParser().parse(
        PRELUDE + f'\n# 1 "{filename}"\n' + body, filename)


def _coords(node: c_ast.Node):
    """``(file, line, column)`` of ``node`` and every node below it."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        c = n.coord
        out.append(None if c is None else (c.file, c.line, c.column))
        stack.extend(child for _, child in n.children())
    return out


def _assert_same_ast(ast: c_ast.FileAST, oracle: c_ast.FileAST) -> None:
    assert len(ast.ext) == len(oracle.ext)
    for ours, theirs in zip(ast.ext, oracle.ext):
        assert _GEN.visit(ours) == _GEN.visit(theirs)
    n = prelude_ext_count()
    for ours, theirs in zip(ast.ext[n:], oracle.ext[n:]):
        assert repr(ours) == repr(theirs)
        assert _coords(ours) == _coords(theirs)


def _assert_same_failure(source: str, filename: str, strict: bool) -> None:
    """The syntax error (strict) or the FATAL record and empty AST
    (lenient) carry the oracle's message and location."""
    with pytest.raises(c_parser.ParseError) as oracle:
        _oracle(source, filename, strict=strict)
    sink = DiagnosticSink()
    if strict:
        with pytest.raises(ParseError) as err:
            parse_c(source, filename=filename)
        record = err.value.diagnostic
    else:
        ast = parse_c(source, filename=filename, strict=False,
                      diagnostics=sink)
        assert ast.ext == []
        [record] = [d for d in sink if d.phase == "parse"]
    expected = _wrap_pycparser_error(oracle.value, filename)
    assert (record.message, record.loc) == (expected.diagnostic.message,
                                            expected.loc)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_parses_like_the_full_prelude(name, strict) -> None:
    source = _suite_source(name)
    ast = parse_c(source, filename=f"{name}.c", strict=strict,
                  diagnostics=DiagnosticSink())
    _assert_same_ast(ast, _oracle(source, f"{name}.c", strict=strict))


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.c")),
                         ids=lambda p: p.name)
def test_lenient_corpus_parses_like_the_full_prelude(path) -> None:
    source = path.read_text()
    try:
        oracle = _oracle(source, path.name, strict=False)
    except c_parser.ParseError:
        _assert_same_failure(source, path.name, strict=False)
        return
    ast = parse_c(source, filename=path.name, strict=False,
                  diagnostics=DiagnosticSink())
    _assert_same_ast(ast, oracle)


@pytest.mark.parametrize("seed", [3, 11])
def test_split_translation_units_parse_like_the_full_prelude(seed) -> None:
    source = generate_program(seed, GenConfig(n_helper_functions=4))
    tus = split_translation_units(source, f"gen{seed}.c")
    assert len(tus) > 1
    for tu_name, tu_source in tus:
        _assert_same_ast(parse_c(tu_source, filename=tu_name),
                         _oracle(tu_source, tu_name))


def test_every_parse_shares_the_cached_nodes() -> None:
    shared = prelude_nodes()
    assert isinstance(shared, tuple)
    for source in ("", "int x;"):
        ext = parse_c(source, filename="f.c").ext
        assert all(a is b for a, b in zip(ext, shared))
    assert len(parse_c("int x;", filename="f.c", use_prelude=False).ext) == 1


def test_prelude_ext_count_is_unchanged() -> None:
    assert prelude_ext_count() == 77
    assert len(_oracle("", "f.c").ext) == 77


@pytest.mark.parametrize("source", [
    "typedef int malloc;",
    "int size_t;",
    "int ok;\n\nint  FILE = 1;",
    "int strlen;\ntypedef int ptrdiff_t;\ntypedef char strlen;",
])
def test_scope_conflicts_fail_like_the_full_prelude(source) -> None:
    for strict in (True, False):
        _assert_same_failure(source, "f.c", strict=strict)


def test_pipeline_leaves_the_shared_nodes_untouched() -> None:
    """Normalizing, linking (with a static rename of a name the prelude
    also declares) and splitting must copy before they edit."""
    for name in SUITE_NAMES:
        source = _suite_source(name)
        program_from_c(source, name=name)
        split_translation_units(source, f"{name}.c")
    program = link_sources([
        ("a.c", "static int abs(int x) { return x; }\n"
                "int ga, *pa; void fa(void) { pa = &ga; abs(1); }"),
        ("b.c", "static int abs(int x) { return -x; }\n"
                "int gb, *pb; void fb(void) { pb = &gb; abs(2); }"),
    ])
    assert program.link_info.static_renames == 2
    link_sources(split_translation_units(_suite_source("bc"), "bc.c"))

    fresh = c_parser.CParser().parse(PRELUDE, "<prelude>").ext
    shared = prelude_nodes()
    assert [_GEN.visit(n) for n in shared] == [_GEN.visit(n) for n in fresh]
    assert [repr(n) for n in shared] == [repr(n) for n in fresh]
