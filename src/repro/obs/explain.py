"""Minimal derivation trees over a traced run, and the ``explain`` CLI.

``python -m repro explain <program> <instance> "p -> x.f"`` re-runs the
analysis with ``Engine(trace=True)`` and prints *why* the queried fact
holds: the Figure-2 rule that first derived it, the statement the rule
was installed for, the strategy call it made (rendered by the strategy's
own :meth:`~repro.core.strategy.Strategy.describe_call`, so each of the
four instances explains its reasoning in its own §4.3.x terms), and the
premise facts — recursively, down to the rule-1 axioms.

The tree is *minimal* by construction: the tracer keeps only the first
derivation of every fact (see :class:`repro.obs.provenance.Tracer`), and
premises are always recorded before conclusions, so the premise graph is
acyclic and each fact is expanded at most once per tree (later
occurrences render as a ``(shown above)`` back-reference).

``--dot`` emits the same graph in Graphviz DOT format instead.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.strategy import Strategy
from ..ir.refs import Ref
from ..ir.stmts import Stmt
from .provenance import CallRecord, FactKey, Tracer

__all__ = ["DerivationNode", "build_tree", "render_tree", "to_dot", "main"]


@dataclass
class DerivationNode:
    """One fact in a derivation tree (conclusion + how it was derived)."""

    key: FactKey
    src: Ref
    dst: Ref
    rule: int
    label: str
    stmt: Optional[Stmt]
    call: Optional[CallRecord]
    premises: List["DerivationNode"] = field(default_factory=list)
    #: The fact was already expanded earlier in this tree.
    repeated: bool = False
    #: No derivation on record (a premise outside the trace; defensive).
    missing: bool = False

    @property
    def fact_text(self) -> str:
        return f"pointsTo({self.src!r}, {self.dst!r})"


def build_tree(tracer: Tracer, facts, key: FactKey) -> Optional[DerivationNode]:
    """The minimal derivation tree of ``key``; None if never derived.

    Iterative DFS (derivation chains routinely exceed Python's default
    recursion limit on real programs); each distinct fact is expanded
    once, repeats become leaf back-references.
    """
    if tracer.fact_node.get(key) is None:
        return None
    seen: Set[FactKey] = set()

    def shell(k: FactKey) -> Tuple[DerivationNode, Tuple[FactKey, ...]]:
        src, dst = facts.ref_of(k[0]), facts.ref_of(k[1])
        idx = tracer.fact_node.get(k)
        if idx is None:
            node = DerivationNode(k, src, dst, -1, "no recorded derivation",
                                  None, None, missing=True)
            return node, ()
        ctx = tracer.node_ctxs[idx]
        node = DerivationNode(
            k, src, dst,
            tracer.ctx_rules[ctx], tracer.ctx_labels[ctx],
            tracer.ctx_stmts[ctx], tracer.ctx_calls[ctx],
        )
        if k in seen:
            node.repeated = True
            return node, ()
        seen.add(k)
        return node, tracer.node_premises[idx]

    root, root_prems = shell(key)
    stack: List[Tuple[DerivationNode, Tuple[FactKey, ...], int]] = [
        (root, root_prems, 0)
    ]
    while stack:
        node, prems, i = stack.pop()
        if i >= len(prems):
            continue
        stack.append((node, prems, i + 1))
        child, cprems = shell(prems[i])
        node.premises.append(child)
        if cprems:
            stack.append((child, cprems, 0))
    return root


def _stmt_text(stmt: Optional[Stmt]) -> str:
    if stmt is None:
        return ""
    where = getattr(stmt, "fn", None) or "<global>"
    line = getattr(stmt, "line", None)
    loc = f"{where}:{line}" if line else where
    return f"[{loc}]  {stmt!r}"


def render_tree(
    node: DerivationNode,
    strategy: Optional[Strategy] = None,
    show_calls: bool = True,
) -> str:
    """Text rendering: one fact per block, premises as tree branches."""
    lines: List[str] = []

    def emit(n: DerivationNode, prefix: str, child_prefix: str) -> None:
        mark = ""
        if n.repeated:
            mark = "   (shown above)"
        elif n.missing:
            mark = "   (outside the trace)"
        lines.append(f"{prefix}{n.fact_text}{mark}")
        if n.repeated or n.missing:
            return
        detail: List[str] = [f"by {n.label}"]
        st = _stmt_text(n.stmt)
        if st:
            detail.append(st)
        lines.append(child_prefix + "  " + "  ".join(detail))
        if show_calls and n.call is not None:
            desc = (
                strategy.describe_call(n.call)
                if strategy is not None
                else f"{n.call.kind}{n.call.args!r} -> {n.call.out!r}"
            )
            lines.append(child_prefix + "  via " + desc)
        for i, p in enumerate(n.premises):
            last = i == len(n.premises) - 1
            branch = "└─ " if last else "├─ "
            cont = "   " if last else "│  "
            emit(p, child_prefix + branch, child_prefix + cont)

    emit(node, "", "")
    return "\n".join(lines)


def to_dot(node: DerivationNode) -> str:
    """Graphviz DOT export of a derivation tree (premise → conclusion)."""
    ids: Dict[FactKey, str] = {}
    decls: List[str] = []
    edges: List[str] = []

    def nid(n: DerivationNode) -> str:
        name = ids.get(n.key)
        if name is None:
            name = ids[n.key] = f"f{len(ids)}"
            label = n.fact_text.replace('"', r"\"")
            rule = n.label.replace('"', r"\"")
            decls.append(f'  {name} [label="{label}\\n{rule}"];')
        return name

    def walk(n: DerivationNode) -> None:
        me = nid(n)
        for p in n.premises:
            edges.append(f"  {nid(p)} -> {me};")
            if not (p.repeated or p.missing):
                walk(p)

    walk(node)
    return "\n".join(
        ["digraph derivation {", "  rankdir=BT;", "  node [shape=box, fontname=monospace];"]
        + decls + edges + ["}"]
    )


# ---------------------------------------------------------------------------
# The ``python -m repro explain`` subcommand.
# ---------------------------------------------------------------------------
def _load_program(spec: str):
    """A program by file path, or by suite name (``bc``, ``twig``, …)."""
    from ..frontend import program_from_c, program_from_file

    if os.path.exists(spec):
        return program_from_file(spec)
    from ..suite.registry import by_name, load_source

    try:
        bp = by_name(spec)
    except KeyError:
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a suite program name"
        )
    return program_from_c(load_source(bp), name=bp.name)


def _parse_query(text: str) -> Tuple[str, str]:
    if "->" not in text:
        raise SystemExit(
            'error: query must look like "src -> dst", e.g. "p -> x.f"'
        )
    src, dst = (part.strip() for part in text.split("->", 1))
    if not src or not dst:
        raise SystemExit('error: empty side in query (want "src -> dst")')
    return src, dst


def build_explain_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Print the minimal Figure-2 derivation tree of one "
        "points-to fact (requires a traced run; the analysis is re-run "
        "with Engine(trace=True)).",
    )
    p.add_argument("program", help="C source file or suite program name")
    p.add_argument(
        "instance",
        help="framework instance key (e.g. offsets, collapse_always)",
    )
    p.add_argument(
        "query", help='the fact to explain, as "src -> dst" '
        '(each side NAME[.FIELD...]; e.g. "p -> x.f")',
    )
    p.add_argument(
        "--abi", choices=["ilp32", "lp64"], default="ilp32",
        help="concrete layout for the offsets strategies (default: ilp32)",
    )
    p.add_argument(
        "--dot", action="store_true",
        help="emit the derivation as a Graphviz DOT graph instead of text",
    )
    p.add_argument(
        "--no-calls", action="store_true",
        help="omit the per-rule strategy-call lines from the tree",
    )
    return p


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; exit
        # quietly instead of tracebacking (devnull keeps the interpreter
        # shutdown flush from raising a second time).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    from ..core import STRATEGY_BY_KEY
    from ..ctype.layout import ILP32, LP64, Layout
    from ..session import AnalysisSession, resolve_target

    args = build_explain_parser().parse_args(argv)
    keys = sorted(STRATEGY_BY_KEY)
    if args.instance not in STRATEGY_BY_KEY:
        raise SystemExit(
            f"error: unknown instance {args.instance!r} (choose from {keys})"
        )
    program = _load_program(args.program)
    layout = Layout(LP64 if args.abi == "lp64" else ILP32)
    strategy = STRATEGY_BY_KEY[args.instance](layout)
    result = AnalysisSession(program).solve(strategy, trace=True)
    tracer = result.tracer
    assert isinstance(tracer, Tracer)

    src_text, dst_text = _parse_query(args.query)
    try:
        src_ref = resolve_target(program, src_text)
        dst_ref = resolve_target(program, dst_text)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}") from None
    src_ref, dst_ref = strategy.normalize(src_ref), strategy.normalize(dst_ref)
    facts = result.facts
    sid, did = facts.id_of(src_ref), facts.id_of(dst_ref)
    key = (sid, did) if sid is not None and did is not None else None
    node = build_tree(tracer, facts, key) if key is not None else None
    if node is None:
        print(
            f"fact pointsTo({src_ref!r}, {dst_ref!r}) was not derived "
            f"under {strategy.name}."
        )
        targets = sorted(map(repr, result.points_to(src_ref)))
        if targets:
            print(f"{src_ref!r} points to: {', '.join(targets)}")
        else:
            print(f"{src_ref!r} has an empty points-to set.")
        return 1

    if args.dot:
        print(to_dot(node))
        return 0
    print(f"# {program.summary()}")
    print(f"# strategy: {strategy.name}   traced facts: {len(tracer)}")
    print(render_tree(node, strategy, show_calls=not args.no_calls))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
