"""Per-translation-unit parsing and symbol tables.

A :class:`TranslationUnit` is one parsed C file plus the file-scope
symbol table the linker (:mod:`repro.link.linker`) resolves across
units: which names this TU *defines* (function bodies, initialized
globals), which it *tentatively defines* (``int x;`` — C's tentative
definitions, folded at link time), which it merely *declares*
(``extern``/prototypes), and which have internal linkage (``static``).

Parsing a TU reuses the single-file front end verbatim — the same
mini-preprocessor, libc prelude, and lenient-mode degradation — so a TU
alone behaves exactly like today's one-file programs.  The linker then
merges the *declaration streams* of many TUs into one
:class:`~repro.ir.program.Program` through a single shared
:class:`~repro.frontend.normalizer.Normalizer` pass, which is what makes
linked analysis byte-identical to analyzing the concatenated source.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from pycparser import c_ast, c_generator

from ..diag import DiagnosticSink, SourceLoc
from ..frontend.parse import parse_c, prelude_nodes

__all__ = [
    "TranslationUnit",
    "TUSymbol",
    "parse_translation_unit",
    "prelude_ext_count",
]


def prelude_ext_count() -> int:
    """Number of top-level declarations the libc prelude contributes.

    Every :func:`~repro.frontend.parse.parse_c` AST begins with exactly
    these nodes; the linker slices them off all but the first TU so the
    merged declaration stream matches a single concatenated parse.
    """
    return len(prelude_nodes())


@dataclass
class TUSymbol:
    """Link-relevant facts about one file-scope name in one TU."""

    name: str
    #: ``"function"`` or ``"object"``.
    kind: str
    #: Has a strong definition here (function body / initialized global).
    defined: bool = False
    #: Has a C tentative definition here (``int x;`` at file scope).
    tentative: bool = False
    #: Internal linkage (``static``) — invisible to other TUs.
    static: bool = False
    #: Declared ``extern`` (or prototype-only for functions).
    extern: bool = False
    #: Coordinates of the strong definition (or first declaration).
    loc: SourceLoc = field(default_factory=SourceLoc)
    #: Storage-stripped rendering of the declared type, for
    #: conflicting-declaration diagnostics (textual: the linker warns on
    #: *any* cross-TU spelling difference, it does not type-check C).
    type_text: str = ""
    #: Set by the linker when a ``static``-scope collision forced a
    #: TU-local rename (C internal linkage emulated by renaming).
    renamed_to: Optional[str] = None


@dataclass
class TranslationUnit:
    """One parsed C file: AST (prelude included), source, symbol table."""

    name: str
    source: str
    ast: c_ast.FileAST
    symbols: Dict[str, TUSymbol] = field(default_factory=dict)

    def body_exts(self) -> List[c_ast.Node]:
        """Top-level declarations excluding the shared libc prelude."""
        n = prelude_ext_count()
        if len(self.ast.ext) < n:
            # Lenient parse failure: the AST is empty (or truncated);
            # there is no body to contribute.
            return []
        return list(self.ast.ext[n:])

    def defined_names(self) -> List[str]:
        return sorted(
            s.name for s in self.symbols.values() if s.defined or s.tentative
        )


_GEN = c_generator.CGenerator()


def _strip_param_names(node: c_ast.Node) -> None:
    """Null out parameter names inside function declarators: the names
    are not part of the type (``int f(int *)`` == ``int f(int *x)``)."""
    for _, child in node.children():
        if isinstance(child, c_ast.FuncDecl) and child.args is not None:
            for param in child.args.params:
                if isinstance(param, c_ast.Decl):
                    param.name = None
                t = getattr(param, "type", None)
                while t is not None:
                    if isinstance(t, c_ast.TypeDecl):
                        t.declname = None
                        break
                    t = getattr(t, "type", None)
        _strip_param_names(child)


def _type_text(decl: c_ast.Decl) -> str:
    """Storage-free, parameter-name-free one-line rendering of a
    declaration's type.

    Works on a copy, leaving ``decl`` as parsed.  Every parsed
    declaration renders, so an error here is a bug and propagates.
    """
    stripped = copy.deepcopy(decl)
    stripped.storage, stripped.init = [], None
    _strip_param_names(stripped)
    return " ".join(_GEN.visit(stripped).split())


def _loc_of(node: c_ast.Node, filename: str) -> SourceLoc:
    coord = getattr(node, "coord", None)
    if coord is None:
        return SourceLoc(file=filename)
    return SourceLoc(file=coord.file or filename, line=coord.line,
                     column=coord.column or 0)


def _is_function_decl(decl: c_ast.Decl) -> bool:
    t = decl.type
    while isinstance(t, (c_ast.ArrayDecl,)):
        t = t.type
    return isinstance(t, c_ast.FuncDecl)


def scan_symbols(tu: TranslationUnit) -> None:
    """Populate ``tu.symbols`` from the TU's top-level declarations."""
    for ext in tu.body_exts():
        if isinstance(ext, c_ast.FuncDef):
            decl = ext.decl
            name = decl.name
            if name is None:
                continue
            sym = tu.symbols.setdefault(
                name, TUSymbol(name=name, kind="function")
            )
            sym.defined = True
            sym.static = sym.static or "static" in (decl.storage or [])
            sym.loc = _loc_of(ext, tu.name)
            sym.type_text = _type_text(decl)
        elif isinstance(ext, c_ast.Decl):
            name = ext.name
            if name is None:
                continue  # bare struct/union/enum definition
            storage = ext.storage or []
            if _is_function_decl(ext):
                sym = tu.symbols.setdefault(
                    name, TUSymbol(name=name, kind="function")
                )
                sym.extern = sym.extern or not sym.defined
                sym.static = sym.static or "static" in storage
            else:
                sym = tu.symbols.setdefault(
                    name, TUSymbol(name=name, kind="object")
                )
                if ext.init is not None:
                    sym.defined = True
                elif "extern" in storage:
                    sym.extern = True
                else:
                    sym.tentative = True
                sym.static = sym.static or "static" in storage
            if not sym.loc.known or (sym.defined and ext.init is not None):
                sym.loc = _loc_of(ext, tu.name)
            if not sym.type_text:
                sym.type_text = _type_text(ext)


def parse_translation_unit(
    source: str,
    name: str = "<tu>",
    *,
    strict: bool = True,
    diagnostics: Optional[DiagnosticSink] = None,
) -> TranslationUnit:
    """Parse one C file into a :class:`TranslationUnit` with symbols.

    Strict mode raises the usual structured front-end errors; lenient
    mode records a FATAL diagnostic for unparsable input and yields an
    empty TU (the linker then links whatever parsed — degradation, not
    a crash).
    """
    sink = diagnostics if diagnostics is not None else DiagnosticSink()
    ast = parse_c(source, filename=name, strict=strict, diagnostics=sink)
    tu = TranslationUnit(name=name, source=source, ast=ast)
    scan_symbols(tu)
    return tu
