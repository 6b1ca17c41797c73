"""Command-line interface: ``python -m repro [options] file.c``.

Analyze a C file under one (or all) of the framework's instances and
print points-to sets, dereference statistics, or specific queries.

Examples::

    python -m repro prog.c                          # CIS, full dump
    python -m repro a.c b.c main.c                  # link TUs, then analyze
    python -m repro prog.c -s offsets --abi lp64    # one strategy/ABI
    python -m repro prog.c -q p -q 's.field'        # specific queries
    python -m repro prog.c --compare                # all four, summary
    python -m repro prog.c --derefs                 # Figure-4 style sites
    python -m repro prog.c --modular                # bottom-up SCC solve
    python -m repro link a.c b.c                    # link report only
    python -m repro explain prog.c offsets "p -> x" # derivation tree
    python -m repro serve --port 8080               # analysis service
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from .clients.derefstats import deref_stats
from .core import ALL_STRATEGIES, STRATEGY_BY_KEY
from .core.backend import BACKENDS
from .ctype.layout import ILP32, LP64, Layout
from .diag import FrontendError, Severity
from .ir.objects import ObjKind
from .ir.refs import FieldRef
from .session import AnalysisSession


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Field-sensitive pointer analysis for C with casting "
        "(Yong/Horwitz/Reps PLDI'99 framework).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="subcommands: explain (derivation trees, "
        "docs/observability.md) · serve (HTTP analysis service, "
        "docs/service.md) · link (link report for several TUs)\n"
        "docs: framework.md · internals.md · frontend.md · robustness.md "
        "· suite.md · extending.md (all under docs/)",
    )
    p.add_argument(
        "files", nargs="+", metavar="file",
        help="C source file(s) (self-contained, include-free); several "
        "files are linked as separate translation units before analysis",
    )
    p.add_argument(
        "-s", "--strategy",
        choices=sorted(STRATEGY_BY_KEY),
        default="common_initial_sequence",
        help="framework instance to run (default: common_initial_sequence)",
    )
    p.add_argument(
        "--abi", choices=["ilp32", "lp64"], default="ilp32",
        help="concrete layout for the offsets strategies (default: ilp32)",
    )
    p.add_argument(
        "-q", "--query", action="append", default=[],
        metavar="NAME[.FIELD...]",
        help="print the points-to set of a variable or field "
        "(repeatable); e.g. -q p -q s.next",
    )
    p.add_argument(
        "--compare", action="store_true",
        help="run all four instances and print a comparison summary",
    )
    p.add_argument(
        "--derefs", action="store_true",
        help="print per-dereference points-to set sizes (Figure 4 metric)",
    )
    p.add_argument(
        "--no-assumption-1", action="store_true",
        help="pessimistic mode: pointer arithmetic yields Unknown and "
        "dereferences of possibly-corrupted pointers are flagged",
    )
    p.add_argument(
        "--temps", action="store_true",
        help="include compiler temporaries in the full dump",
    )
    p.add_argument(
        "--backend", choices=sorted(BACKENDS), default=None,
        help="propagation backend (default: $REPRO_BACKEND or 'bigint'); "
        "all backends compute the identical fixpoint — see "
        "docs/internals.md",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="profile the analysis run with cProfile and print the top 20 "
        "functions by cumulative time",
    )
    p.add_argument(
        "--lenient", action="store_true",
        help="never abort on unsupported C: degrade each unmodelled "
        "construct to a sound conservative approximation and report it "
        "as a diagnostic on stderr (see docs/robustness.md)",
    )
    p.add_argument(
        "--modular", action="store_true",
        help="solve bottom-up over the callgraph SCC DAG, computing "
        "per-function summaries (same fixpoint as the whole-program "
        "solve; see docs/internals.md)",
    )
    p.add_argument(
        "--demand", action="store_true",
        help="with -q: answer through the session's demand API, which "
        "serves the exhaustive fixpoint (cached, from --store, or "
        "solved; see docs/queries.md)",
    )
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed result store directory: solved fixpoints "
        "persist and identical (program, strategy, ABI, mode) runs "
        "warm-start from disk (see docs/queries.md)",
    )
    return p


def _layout(args) -> Layout:
    return Layout(LP64 if args.abi == "lp64" else ILP32)


def _resolve_query(program, text: str):
    """Parse ``name`` or ``name.field.path`` into a FieldRef."""
    parts = text.split(".")
    name = parts[0]
    obj = program.objects.lookup(name)
    if obj is None:
        # Try function-local names: fn::x
        for candidate in program.objects.all_objects():
            if candidate.name.endswith(f"::{name}"):
                obj = candidate
                break
    if obj is None:
        raise SystemExit(f"error: no object named {name!r}")
    return FieldRef(obj, tuple(parts[1:]))


def _open_session(args) -> AnalysisSession:
    """Parse the input file(s) once, honoring strict/lenient mode.

    Front-end failures (parse, typebuild, normalize, link) never escape
    as tracebacks: strict mode converts the structured error into a
    one-line ``path:line:col: severity: message`` diagnostic and a
    nonzero exit; lenient mode degrades and continues, unless even
    parsing failed (a FATAL diagnostic), which also exits nonzero.
    Several files are linked as separate translation units
    (:mod:`repro.link`); a conflicting definition across TUs is a
    one-line ``link-error`` diagnostic in strict mode, a degradation
    (first definition wins) in lenient mode.
    """
    try:
        session = AnalysisSession.from_files(
            args.files,
            strict=not args.lenient,
            assume_valid_pointers=not args.no_assumption_1,
            backend=args.backend,
            store=args.store,
        )
    except FrontendError as err:
        raise SystemExit(f"{err.diagnostic.one_line()}") from None
    except OSError as err:
        raise SystemExit(
            f"error: cannot read {err.filename or args.files[0]}: "
            f"{err.strerror}"
        ) from None
    except KeyError as err:
        # An unregistered backend (only reachable via $REPRO_BACKEND —
        # --backend is constrained by argparse choices): surface the
        # registry's message instead of a traceback.
        raise SystemExit(f"error: {err.args[0]}") from None
    sink = session.diagnostics
    if sink.has_fatal:
        for d in sink:
            if d.severity is Severity.FATAL:
                raise SystemExit(d.one_line())
    if len(sink):
        print(
            f"# {len(sink)} construct(s) degraded in lenient mode "
            f"({', '.join(sorted(sink.kinds()))}); results are conservative",
            file=sys.stderr,
        )
        for d in sink:
            print(f"# {d.one_line()}", file=sys.stderr)
    return session


def run_compare(session: AnalysisSession, args) -> None:
    # One session: the file is parsed and normalized once, each instance
    # gets its own solve over the shared Program.
    print(f"{'algorithm':25s} {'time':>9s} {'facts':>8s} {'avg |pts|':>10s}")
    for cls in ALL_STRATEGIES:
        _compare_row(session, cls(_layout(args)))


def _compare_row(session: AnalysisSession, strategy) -> None:
    """Solve, print and release one strategy's ``--compare`` row.

    Releasing the row's engine and result before the next solve keeps
    one solved engine alive at a time instead of all four; the result
    dies with this frame.
    """
    result = session.solve(strategy)
    ds = deref_stats(result)
    print(
        f"{strategy.name:25s} {result.stats.solve_seconds * 1000:7.1f}ms "
        f"{result.facts.edge_count():8d} {ds.average:10.2f}"
    )
    session.release(strategy)


def run_link(argv: List[str]) -> int:
    """``python -m repro link a.c b.c [--lenient]`` — link report only.

    Parses each file as a translation unit, links them, and prints the
    resolution summary (TUs, externs bound, statics renamed, tentative
    definitions folded) plus any diagnostics — no solve.
    """
    p = argparse.ArgumentParser(
        prog="python -m repro link",
        description="Link C translation units and report symbol resolution.",
    )
    p.add_argument("files", nargs="+", metavar="file", help="C source files")
    p.add_argument(
        "--lenient", action="store_true",
        help="degrade duplicate definitions (first wins) instead of failing",
    )
    args = p.parse_args(argv)
    from .diag import DiagnosticSink
    from .link import link_files

    sink = DiagnosticSink()
    try:
        program = link_files(args.files, strict=not args.lenient,
                             diagnostics=sink)
    except FrontendError as err:
        raise SystemExit(err.diagnostic.one_line()) from None
    except OSError as err:
        raise SystemExit(
            f"error: cannot read {err.filename}: {err.strerror}"
        ) from None
    for d in sink:
        print(f"# {d.one_line()}", file=sys.stderr)
    info = program.link_info
    print(f"# {program.summary()}")
    if info is not None:
        print(f"# externs resolved: {info.externs_resolved}   "
              f"statics renamed: {info.static_renames}   "
              f"tentative definitions folded: {info.tentative_folded}")
        for old, by_tu in sorted(info.renames.items()):
            for tu_name, new in sorted(by_tu.items()):
                print(f"#   static rename: {tu_name}: {old} -> {new}")
    return 0


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch; bare `python -m repro file.c` keeps working.
    if argv and argv[0] == "explain":
        from .obs.explain import main as explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "link":
        return run_link(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.demand and not args.query:
        parser.error("--demand requires at least one -q/--query target")
    if args.demand and args.modular:
        parser.error("--demand and --modular are mutually exclusive")

    session = _open_session(args)
    if args.compare:
        run_compare(session, args)
        return 0

    program = session.program
    strategy = STRATEGY_BY_KEY[args.strategy](_layout(args))

    def _solve():
        if args.modular:
            return session.solve_modular(strategy).result
        if args.demand:
            refs = [_resolve_query(program, q) for q in args.query]
            return session.solve_demand(strategy, refs).result
        return session.solve(strategy)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = _solve()
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        es = result.stats
        print(
            f"# backend: {es.backend}   dense_rounds: {es.dense_rounds}   "
            f"frontier_bits_suppressed: {es.frontier_bits_suppressed}   "
            f"props_saved: {es.props_saved}   "
            f"tus_linked: {es.tus_linked}   "
            f"externs_resolved: {es.externs_resolved}   "
            f"summaries_computed: {es.summaries_computed}   "
            f"demanded_facts: {es.demanded_facts}   "
            f"demand_widenings: {es.demand_widenings}   "
            f"store_hits: {es.store_hits}   "
            f"store_misses: {es.store_misses}",
            file=sys.stderr,
        )
        if session.store is not None:
            print(
                f"# store: {session.store_hits} hit(s), "
                f"{session.store_misses} miss(es) at {session.store.root}",
                file=sys.stderr,
            )
    else:
        result = _solve()
    print(f"# {program.summary()}")
    print(f"# strategy: {strategy.name}   facts: {result.facts.edge_count()}   "
          f"time: {result.stats.solve_seconds * 1000:.1f}ms")
    if args.modular:
        es = result.stats
        print(f"# modular: {es.summaries_computed} function summaries")

    if args.no_assumption_1:
        flagged = result.corrupted_deref_sites()
        if flagged:
            print(f"# {len(flagged)} dereference(s) of possibly-corrupted "
                  f"pointers:")
            for st in flagged:
                print(f"#   line {st.line}: {st!r}")

    if args.query:
        for q in args.query:
            ref = _resolve_query(program, q)
            targets = sorted(map(repr, result.points_to(ref)))
            print(f"{q} -> {targets}")
        return 0

    if args.derefs:
        ds = deref_stats(result)
        for site in ds.sites:
            print(f"line {site.line}: *{site.pointer_name} -> "
                  f"{site.set_size} target(s)")
        print(f"# {ds.count} sites, average {ds.average:.2f}, "
              f"max {ds.maximum}, empty {ds.empty_sites}")
        return 0

    # Full dump: every named object with a non-empty points-to set.
    for src in sorted(result.facts.sources(), key=repr):
        if not args.temps and src.obj.kind in (ObjKind.TEMP, ObjKind.RETVAL):
            continue
        targets = sorted(map(repr, result.facts.points_to(src)))
        print(f"{src!r} -> {{{', '.join(targets)}}}")
    return 0


def _exit_fast() -> None:
    """Run :func:`main` as a process and leave without interpreter teardown.

    Tearing down a process that analysed a program frees every object
    one by one, which costs more than many small analyses themselves.
    Here the streams are flushed and the process exits with the status
    ``sys.exit(main())`` would give.  A reader that closed the stdout
    pipe early ends the process quietly (status 1), with no traceback.
    Exceptions other than ``SystemExit`` propagate as usual.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        os._exit(1)
    if code is None:
        status = 0
    elif isinstance(code, int):
        status = code
    else:
        print(code, file=sys.stderr)
        status = 1
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    _exit_fast()
