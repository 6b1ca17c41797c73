"""Parsing C source into a pycparser AST.

pycparser expects *preprocessed* C.  The benchmark suite is written as
self-contained, include-free C, but real-world conveniences still need
handling, so this module provides a deliberately small preprocessor:

- comment stripping (``/* ... */`` and ``// ...``),
- object-like ``#define NAME TOKENS`` substitution (no function-like
  macros — the suite does not use them),
- ``#undef``, and ``#ifdef``/``#ifndef``/``#else``/``#endif`` over the
  macros defined so far,
- ``#include`` lines are dropped (every program in the suite declares the
  externs it needs, and a standard prelude supplies the common libc
  declarations),
- ``# N "file"`` / ``#line N "file"`` markers pass through to pycparser,
  which resets source coordinates accordingly — this is what lets the
  linker's concatenated-source differential keep per-TU line numbers
  (:mod:`repro.link`).

The prelude (:data:`PRELUDE`) declares the libc subset the analysis has
summaries for (:mod:`repro.core.interproc`), plus ``size_t``/``NULL``.
It is parsed once per process (:func:`prelude_nodes`); every AST
:func:`parse_c` returns begins with those same node objects, so they are
read-only — code that edits a top-level node copies it first.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Optional, Tuple

from pycparser import c_ast, c_parser

from ..diag import DiagnosticSink, FrontendError, Severity, SourceLoc

__all__ = [
    "ParseError",
    "PreprocessorError",
    "preprocess",
    "parse_c",
    "prelude_nodes",
    "PRELUDE",
]


class PreprocessorError(FrontendError):
    """Raised on a directive the mini-preprocessor cannot handle."""

    phase = "preprocess"
    default_kind = "preprocess-error"


class ParseError(FrontendError):
    """Structured wrapper around pycparser's syntax errors."""

    phase = "parse"
    default_kind = "parse-error"


PRELUDE = """
typedef unsigned long size_t;
typedef long ptrdiff_t;
typedef struct _IO_FILE { int _fileno; } FILE;
extern void *malloc(size_t n);
extern void *calloc(size_t n, size_t size);
extern void *realloc(void *p, size_t n);
extern void free(void *p);
extern void exit(int status);
extern void abort(void);
extern void *memcpy(void *dst, void *src, size_t n);
extern void *memmove(void *dst, void *src, size_t n);
extern void *memset(void *dst, int c, size_t n);
extern int memcmp(void *a, void *b, size_t n);
extern char *strcpy(char *dst, char *src);
extern char *strncpy(char *dst, char *src, size_t n);
extern char *strcat(char *dst, char *src);
extern char *strncat(char *dst, char *src, size_t n);
extern int strcmp(char *a, char *b);
extern int strncmp(char *a, char *b, size_t n);
extern size_t strlen(char *s);
extern char *strchr(char *s, int c);
extern char *strrchr(char *s, int c);
extern char *strstr(char *hay, char *needle);
extern char *strtok(char *s, char *delim);
extern char *strdup(char *s);
extern int atoi(char *s);
extern long atol(char *s);
extern double atof(char *s);
extern long strtol(char *s, char **end, int base);
extern int printf(char *fmt, ...);
extern int fprintf(FILE *f, char *fmt, ...);
extern int sprintf(char *buf, char *fmt, ...);
extern int snprintf(char *buf, size_t n, char *fmt, ...);
extern int sscanf(char *s, char *fmt, ...);
extern int scanf(char *fmt, ...);
extern int fscanf(FILE *f, char *fmt, ...);
extern int puts(char *s);
extern int putchar(int c);
extern int getchar(void);
extern int getc(FILE *f);
extern int fgetc(FILE *f);
extern char *fgets(char *buf, int n, FILE *f);
extern int fputs(char *s, FILE *f);
extern int fputc(int c, FILE *f);
extern FILE *fopen(char *path, char *mode);
extern int fclose(FILE *f);
extern size_t fread(void *buf, size_t size, size_t n, FILE *f);
extern size_t fwrite(void *buf, size_t size, size_t n, FILE *f);
extern int fseek(FILE *f, long off, int whence);
extern long ftell(FILE *f);
extern int feof(FILE *f);
extern void qsort(void *base, size_t n, size_t size,
                  int (*cmp)(void *, void *));
extern void *bsearch(void *key, void *base, size_t n, size_t size,
                     int (*cmp)(void *, void *));
extern int rand(void);
extern void srand(unsigned int seed);
extern int isalpha(int c);
extern int isdigit(int c);
extern int isalnum(int c);
extern int isspace(int c);
extern int isupper(int c);
extern int islower(int c);
extern int toupper(int c);
extern int tolower(int c);
extern int abs(int x);
extern long labs(long x);
extern double sqrt(double x);
extern double pow(double x, double y);
extern double floor(double x);
extern double ceil(double x);
extern double fabs(double x);
extern char *getenv(char *name);
extern FILE *stdin_file(void);
extern FILE *stdout_file(void);
extern FILE *stderr_file(void);
extern FILE *_stdin, *_stdout, *_stderr;
"""


def _parse(text: str, filename: str) -> c_ast.FileAST:
    """``CParser().parse(text, filename)`` that leaves no cycle behind.

    pycparser's parser holds its lexer, the lexer holds the parser's
    bound callbacks, and the parser's token stream buffers every token
    of the parse: a cycle only the cyclic collector would free.
    Clearing the parser's state once the parse returns or raises breaks
    it, so reference counting frees the tokens at once.
    """
    parser = c_parser.CParser()
    try:
        return parser.parse(text, filename)
    finally:
        vars(parser).clear()


@functools.cache
def _prelude() -> Tuple[Tuple[c_ast.Node, ...], str]:
    """The prelude's top-level nodes and its *scope header*, built once.

    The header declares the same file-scope names as :data:`PRELUDE` —
    each typedef name as a typedef, every other name as a plain ``int``
    — in as many top-level declarations.  Parsed in the prelude's
    place, it leaves pycparser's file scope (which names lex as types)
    exactly as the prelude would, at a fraction of the parse cost; its
    nodes are then swapped for the cached ones.
    """
    nodes = tuple(_parse(PRELUDE, "<prelude>").ext)
    typedefs = [n.name for n in nodes if isinstance(n, c_ast.Typedef)]
    names = [n.name for n in nodes if not isinstance(n, c_ast.Typedef)]
    header = "".join(f"typedef int {t};\n" for t in typedefs)
    header += f"int {', '.join(names)};\n"
    return nodes, header


def prelude_nodes() -> Tuple[c_ast.Node, ...]:
    """The top-level nodes of :data:`PRELUDE`, parsed once per process.

    Every AST :func:`parse_c` returns with ``use_prelude=True`` starts
    with exactly these objects, shared across parses: treat them as
    read-only (copy before editing, as
    :func:`~repro.link.split.split_translation_units` does).
    """
    return _prelude()[0]


_COMMENT_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/", re.DOTALL
)

_WORD_RE = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")

#: ``# 12 "file.c"`` or ``#line 12 "file.c"`` — a preprocessor line
#: marker.  pycparser consumes these natively and resets coordinates, so
#: the mini-preprocessor forwards them in the canonical ``# N "file"``
#: spelling instead of rejecting them as unsupported directives.
_LINE_MARKER_RE = re.compile(r'(?:line\s+)?(\d+)\s+("[^"]*")\s*$')


def _strip_comments(text: str) -> str:
    """Replace comments with equivalent whitespace, preserving line numbers."""

    def repl(m: "re.Match[str]") -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    return _COMMENT_RE.sub(repl, text)


def preprocess(
    text: str,
    defines: Optional[Dict[str, str]] = None,
    *,
    strict: bool = True,
    diagnostics: Optional[DiagnosticSink] = None,
    filename: Optional[str] = None,
) -> str:
    """Run the mini-preprocessor; returns line-count-preserving C text.

    In strict mode (the default) an unsupported directive raises a
    :class:`PreprocessorError` carrying the offending line's coordinates.
    With ``strict=False`` the directive is recorded on ``diagnostics`` and
    handled conservatively instead: unknown conditionals take the branch
    (so the guarded code *is* analyzed — sound for a may-analysis),
    function-like macros are left unexpanded, and malformed lines are
    dropped.
    """
    macros: Dict[str, str] = dict(defines or {})
    macros.setdefault("NULL", "((void*)0)")
    sink = diagnostics if diagnostics is not None else DiagnosticSink()
    out: List[str] = []
    # Stack of booleans: is the current #if region active?
    active_stack: List[bool] = []

    def trouble(kind: str, message: str, lineno: int,
                severity: Severity = Severity.WARNING) -> None:
        loc = SourceLoc(file=filename, line=lineno, column=1)
        if strict:
            raise PreprocessorError(message, kind=kind, loc=loc)
        sink.report(kind, message, loc=loc, severity=severity, phase="preprocess")

    def expand(line: str) -> str:
        # Fixpoint expansion with a small budget to tolerate self-reference.
        for _ in range(8):
            new = _WORD_RE.sub(lambda m: macros.get(m.group(0), m.group(0)), line)
            if new == line:
                break
            line = new
        return line

    for lineno, raw in enumerate(_strip_comments(text).splitlines(), start=1):
        stripped = raw.strip()
        active = all(active_stack)
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            marker = _LINE_MARKER_RE.match(body)
            if marker is not None:
                # Forward line markers (they only make sense in active
                # regions; inside a dead #ifdef branch they vanish with
                # the rest of the text).
                out.append(f"# {marker.group(1)} {marker.group(2)}"
                           if active else "")
            elif body.startswith("include"):
                out.append("")
            elif body.startswith("define"):
                if active:
                    rest = body[len("define"):].strip()
                    m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\(.*)?", rest)
                    if m is None:
                        trouble("bad-define", f"bad #define: {raw!r}", lineno)
                    elif m.group(2) is not None and m.group(2).startswith("("):
                        # Lenient: leave uses unexpanded; they parse as calls
                        # to an implicitly declared function, which the
                        # normalizer models conservatively.
                        trouble(
                            "function-like-macro",
                            f"function-like macros are not supported: {raw!r}",
                            lineno,
                        )
                    else:
                        name = m.group(1)
                        macros[name] = rest[len(name):].strip()
                out.append("")
            elif body.startswith("undef"):
                if active:
                    macros.pop(body[len("undef"):].strip(), None)
                out.append("")
            elif body.startswith("ifdef"):
                active_stack.append(body[len("ifdef"):].strip() in macros)
                out.append("")
            elif body.startswith("ifndef"):
                active_stack.append(body[len("ifndef"):].strip() not in macros)
                out.append("")
            elif body.startswith("if"):
                # `#if <expr>` is not evaluated; lenient mode takes the
                # branch so the guarded code is still analyzed.
                trouble("unsupported-directive",
                        f"unsupported directive: {raw!r}", lineno)
                active_stack.append(True)
                out.append("")
            elif body.startswith("elif"):
                trouble("unsupported-directive",
                        f"unsupported directive: {raw!r}", lineno)
                if active_stack:
                    active_stack[-1] = False  # the first branch was taken
                out.append("")
            elif body.startswith("else"):
                if not active_stack:
                    trouble("unbalanced-conditional", "#else without #if", lineno)
                else:
                    active_stack[-1] = not active_stack[-1]
                out.append("")
            elif body.startswith("endif"):
                if not active_stack:
                    trouble("unbalanced-conditional", "#endif without #if", lineno)
                else:
                    active_stack.pop()
                out.append("")
            else:
                trouble("unsupported-directive",
                        f"unsupported directive: {raw!r}", lineno)
                out.append("")
        elif active:
            out.append(expand(raw))
        else:
            out.append("")
    if active_stack:
        trouble("unbalanced-conditional", "unterminated #if block",
                len(out) or 1)
    return "\n".join(out)


#: pycparser error text: ``file:line:col: message`` (older styles omit
#: the coordinates, e.g. ``file: At end of input``).
_PYC_ERR_RE = re.compile(r"^\s*(.+?):(\d+):(\d+):\s*(.*)$", re.DOTALL)


def _wrap_pycparser_error(exc: Exception, filename: str) -> ParseError:
    """Convert a pycparser ParseError into our structured :class:`ParseError`."""
    text = str(exc)
    m = _PYC_ERR_RE.match(text)
    if m is not None:
        loc = SourceLoc(file=m.group(1), line=int(m.group(2)), column=int(m.group(3)))
        message = m.group(4).strip() or "syntax error"
    else:
        loc = SourceLoc(file=filename)
        message = text.split(": ", 1)[-1].strip() or "syntax error"
    return ParseError(f"syntax error: {message}", loc=loc)


def parse_c(
    source: str,
    filename: str = "<source>",
    use_prelude: bool = True,
    defines: Optional[Dict[str, str]] = None,
    *,
    strict: bool = True,
    diagnostics: Optional[DiagnosticSink] = None,
) -> c_ast.FileAST:
    """Preprocess and parse C source text into a pycparser AST.

    When ``use_prelude`` is true (the default), the AST starts with the
    libc prelude's declarations (:func:`prelude_nodes`, shared and
    read-only); a ``#line``-style marker keeps the user code's line
    numbers intact so diagnostics and IR provenance refer to the
    original source.

    Syntax errors raise a structured :class:`ParseError` (with source
    coordinates when pycparser provides them).  With ``strict=False`` a
    syntax error is unrecoverable but non-fatal to the caller: a FATAL
    diagnostic is recorded on ``diagnostics`` and an *empty* AST is
    returned, so downstream stages produce an empty (trivially sound)
    program instead of crashing.
    """
    sink = diagnostics if diagnostics is not None else DiagnosticSink()
    body = preprocess(
        source, defines, strict=strict, diagnostics=sink, filename=filename
    )
    text = f'# 1 "{filename}"\n' + body
    if use_prelude:
        nodes, header = _prelude()
        text = header + text
    try:
        ast = _parse(text, filename)
    except c_parser.ParseError as exc:
        if strict:
            raise _wrap_pycparser_error(exc, filename) from exc
        err = _wrap_pycparser_error(exc, filename)
        sink.report(
            err.kind, err.diagnostic.message,
            loc=err.loc, severity=Severity.FATAL, phase="parse",
        )
        return c_ast.FileAST(ext=[])
    if use_prelude:
        ast.ext[:len(nodes)] = nodes
    return ast
