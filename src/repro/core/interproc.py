"""Library-function summaries for the context-insensitive call layer.

The paper handles calls to library functions "by providing summaries of
the potential pointer assignments in each library function" (§5, using the
summaries of [WL95]).  We do the same for the libc subset our benchmark
suite exercises.  A summary is a callback that installs propagation edges
on the engine when a call to an *undefined* (extern) function is bound.
The pair callbacks it hands to ``cross_subscribe`` receive the engine as
their first argument rather than capturing it, so that the engine's
graph, which holds them, does not hold the engine in a reference cycle.

Allocation functions (``malloc`` and friends) never reach this layer: the
front end rewrites them into address-of assignments on allocation-site
pseudo-variables (paper §2), so the analysis sees ``p = &malloc_i``.

Unknown externals get the default summary: the return value may point to
whatever the pointer arguments point to (a standard, mildly optimistic
treatment — an unknown library routine returning one of its arguments —
chosen because all externs in the shipped suite are explicitly
summarized).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from ..ir.refs import Ref
from ..ir.stmts import Call

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

__all__ = ["SummaryRegistry"]

SummaryFn = Callable[["Engine", Call], None]


def _ret_gets_arg(which: int) -> SummaryFn:
    """Return value aliases argument ``which`` (strcpy, strchr, fgets, ...)."""

    def summary(engine: "Engine", call: Call) -> None:
        if call.lhs is None or which >= len(call.args):
            return
        engine.install_copy_edge(
            engine.norm_obj(call.args[which]), engine.norm_obj(call.lhs)
        )

    return summary


def _noop(engine: "Engine", call: Call) -> None:
    """No pointer effects (printf, free, memset, atoi, ...)."""


def _memcpy(engine: "Engine", call: Call) -> None:
    """``memcpy(dst, src, n)`` — copy facts between the pointed-to blocks.

    The byte count is rarely a static constant, so the copy is treated as
    covering the whole destination object: for each (destination pointee,
    source pointee) pair, a resolve-style copy with the destination
    object's declared type as the copied type.  This is the library-call
    analogue of rule 5 and reuses the strategy's ``resolve``.
    """
    if len(call.args) < 2:
        return
    dst_arg, src_arg = call.args[0], call.args[1]

    def on_pair(eng: "Engine", d: Ref, s: Ref) -> None:
        res, _info = eng.strategy.resolve(d, s, d.obj.type)
        eng.install_resolve_result(res)

    engine.cross_subscribe(engine.norm_obj(dst_arg), engine.norm_obj(src_arg), on_pair)
    if call.lhs is not None:
        engine.install_copy_edge(engine.norm_obj(dst_arg), engine.norm_obj(call.lhs))


def _qsort(engine: "Engine", call: Call) -> None:
    """``qsort(base, n, size, cmp)`` — the comparator receives pointers
    into the array ``base`` points to."""
    if len(call.args) < 4:
        return
    base_arg, cmp_arg = call.args[0], call.args[3]

    def on_pair(eng: "Engine", f: Ref, t: Ref) -> None:
        from ..ir.objects import ObjKind

        if f.obj.kind is not ObjKind.FUNCTION:
            return
        info = eng.program.function_for_object(f.obj)
        if info is None:
            return
        for param in info.params[:2]:
            for r in eng.strategy.cached_all_refs(t.obj):
                eng.add_fact(eng.norm_obj(param), r)

    engine.cross_subscribe(engine.norm_obj(cmp_arg), engine.norm_obj(base_arg), on_pair)


def _bsearch(engine: "Engine", call: Call) -> None:
    """``bsearch(key, base, n, size, cmp)`` — like qsort, plus the result
    points into the array."""
    if len(call.args) < 5:
        return
    key_arg, base_arg, cmp_arg = call.args[0], call.args[1], call.args[4]

    def on_pair(eng: "Engine", f: Ref, t: Ref) -> None:
        from ..ir.objects import ObjKind

        if f.obj.kind is not ObjKind.FUNCTION:
            return
        info = eng.program.function_for_object(f.obj)
        if info is None:
            return
        for param, src in zip(info.params[:2], (key_arg, base_arg)):
            eng.install_copy_edge(eng.norm_obj(src), eng.norm_obj(param))

    engine.cross_subscribe(engine.norm_obj(cmp_arg), engine.norm_obj(base_arg), on_pair)
    if call.lhs is not None:
        engine.install_copy_edge(engine.norm_obj(base_arg), engine.norm_obj(call.lhs))


def _default(engine: "Engine", call: Call) -> None:
    """Unknown extern: the result may alias any pointer argument."""
    if call.lhs is None:
        return
    lhs_ref = engine.norm_obj(call.lhs)
    for arg in call.args:
        engine.install_copy_edge(engine.norm_obj(arg), lhs_ref)


class SummaryRegistry:
    """Name → summary mapping, with a default for unknown externs."""

    def __init__(self) -> None:
        self._table: Dict[str, SummaryFn] = {}
        self._default: SummaryFn = _default

    def register(self, name: str, fn: SummaryFn) -> None:
        self._table[name] = fn

    def apply(self, engine: "Engine", call: Call, name: str) -> None:
        self._table.get(name, self._default)(engine, call)

    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "SummaryRegistry":
        """The stock libc summary table used by the benchmark suite."""
        reg = cls()
        ret0 = _ret_gets_arg(0)
        for name in (
            "strcpy", "strncpy", "strcat", "strncat", "memset", "memchr",
            "strchr", "strrchr", "strstr", "strpbrk", "strtok", "fgets",
            "gets", "index", "rindex",
        ):
            reg.register(name, ret0)
        for name in ("memcpy", "memmove", "bcopy"):
            reg.register(name, _memcpy)
        reg.register("qsort", _qsort)
        reg.register("bsearch", _bsearch)
        for name in (
            "printf", "fprintf", "sprintf", "snprintf", "vprintf", "puts",
            "putchar", "putc", "fputc", "fputs", "fwrite", "fread", "free",
            "exit", "abort", "atexit", "atoi", "atol", "atof", "strtol",
            "strtoul", "strtod", "strcmp", "strncmp", "strcasecmp",
            "memcmp", "strlen", "strspn", "strcspn", "isalpha", "isdigit",
            "isspace", "isupper", "islower", "toupper", "tolower", "abs",
            "labs", "rand", "srand", "time", "clock", "getchar", "getc",
            "fgetc", "ungetc", "fclose", "fflush", "fseek", "ftell",
            "rewind", "feof", "ferror", "perror", "remove", "rename",
            "scanf", "fscanf", "sscanf", "assert", "qsort_r", "longjmp",
            "setjmp", "signal", "raise", "system", "sqrt", "pow", "floor",
            "ceil", "fabs", "log", "exp", "sin", "cos", "tan",
        ):
            reg.register(name, _noop)
        for name in ("fopen", "freopen", "tmpfile", "fdopen", "opendir"):
            # Stream handles: a fresh unnamed block per call is what malloc
            # handling would do; the suite never dereferences FILE*, so the
            # result is simply left pointing at nothing.
            reg.register(name, _noop)
        reg.register("getenv", _noop)
        return reg
