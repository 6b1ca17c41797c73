"""The incremental differential gate (ISSUE acceptance criterion).

For EVERY benchmark-suite program and ALL FOUR framework instances:
solve a program with ~a third of its statements held out, grow it back
via :meth:`AnalysisSession.add_statements` (incremental re-solve from
the new deltas only), and require *exact* equality with a from-scratch
solve of the whole program —

- the points-to relation (every fact, every per-ref query),
- per-dereference set sizes (the Figure 4 metric),
- every order-independent counter (Figure 3 instrumentation, rule
  firings, facts/edges/windows/calls-bound).

Soundness of the comparison: the analysis is flow-insensitive, so any
statement subset is a valid program and the fixpoint depends only on
the statement *set* — holding out statements and re-adding them merely
reorders the seeding, which monotonicity makes irrelevant.  The
excluded counters (``_UNGATED_STATS``) are exactly the propagation-
order-dependent ones plus the session counters that *describe* the
incremental path.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro import ALL_STRATEGIES, AnalysisSession, analyze
from repro.bench.harness import _UNGATED_STATS, load_program
from repro.clients.derefstats import deref_stats
from repro.ir.program import Program
from repro.ir.stmts import Stmt
from repro.service.codec import statements_from_json
from repro.suite.registry import SUITE, load_source

#: Hold out every third statement (at least one per non-trivial list).
HOLD_EVERY = 3


@pytest.fixture(scope="module")
def suite_programs():
    """Parse each suite program once for the whole module.

    Tests mutate the program (hold out, then re-add statements) but
    always restore the full statement set before finishing, so sharing
    is safe across parametrized cases.
    """
    return {bp.name: load_program(bp) for bp in SUITE}


def _split(stmts: List[Stmt]) -> Tuple[List[Stmt], List[Stmt]]:
    kept: List[Stmt] = []
    held: List[Stmt] = []
    for i, st in enumerate(stmts):
        (held if i % HOLD_EVERY == HOLD_EVERY - 1 else kept).append(st)
    return kept, held


def _hold_out(program: Program) -> List[Tuple[Optional[str], List[Stmt]]]:
    """Remove ~1/3 of the statements; returns (scope, stmts) batches."""
    batches: List[Tuple[Optional[str], List[Stmt]]] = []
    kept, held = _split(program.global_stmts)
    if held:
        program.global_stmts[:] = kept
        batches.append((None, held))
    for name, info in program.functions.items():
        kept, held = _split(info.stmts)
        if held:
            info.stmts[:] = kept
            batches.append((name, held))
    return batches


def _deref_profile(result):
    ds = deref_stats(result)
    return sorted(
        (s.line, s.pointer_name, s.set_size) for s in ds.sites
    ), ds.average, ds.maximum


def _gated(stats) -> dict:
    return {k: v for k, v in stats.as_dict().items() if k not in _UNGATED_STATS}


@pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
@pytest.mark.parametrize("bp", SUITE, ids=lambda bp: bp.name)
def test_incremental_resolve_equals_from_scratch(bp, cls, suite_programs):
    program = suite_programs[bp.name]
    total_before = program.stmt_count()
    batches = _hold_out(program)
    assert batches, f"{bp.name}: nothing held out (program too small?)"
    held_count = sum(len(stmts) for _fn, stmts in batches)

    session = AnalysisSession(program)
    incremental = session.solve(cls())
    for fn, stmts in batches:
        session.add_statements(stmts, function=fn)
    # The program is whole again (append-at-end order); the session
    # engine has been re-drained once per batch.
    assert program.stmt_count() == total_before
    assert incremental.stats.incremental_solves == len(batches)
    assert incremental.stats.delta_stmts == held_count

    scratch = analyze(program, cls())

    assert set(incremental.facts.all_facts()) == set(scratch.facts.all_facts())
    assert incremental.facts.edge_count() == scratch.facts.edge_count()
    for src in scratch.facts.sources():
        assert incremental.facts.points_to(src) == scratch.facts.points_to(src)
    assert _deref_profile(incremental) == _deref_profile(scratch)
    assert _gated(incremental.stats) == _gated(scratch.stats)


@pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
def test_incremental_with_fifo_worklist(cls, suite_programs):
    """The incremental path is policy-independent too: a FIFO-drained
    session grown incrementally equals a priority-drained scratch solve."""
    program = suite_programs[SUITE[0].name]
    batches = _hold_out(program)
    session = AnalysisSession(program)
    incremental = session.solve(cls(), worklist="fifo")
    for fn, stmts in batches:
        session.add_statements(stmts, function=fn)
    scratch = analyze(program, cls())
    assert set(incremental.facts.all_facts()) == set(scratch.facts.all_facts())
    assert _gated(incremental.stats) == _gated(scratch.stats)


def _delta(name: str, program: Program, result) -> list:
    """A two-statement JSON delta over named pointer variables with
    non-empty points-to sets: a copy and an address-of, as a service
    client sends one."""
    from repro.ctype.types import PointerType
    from repro.ir.objects import ObjKind

    kinds = (ObjKind.GLOBAL, ObjKind.LOCAL, ObjKind.PARAM)
    ptrs = sorted(o.name for o in program.objects.all_objects()
                  if o.kind in kinds and isinstance(o.type, PointerType)
                  and result.points_to(o))
    rng = random.Random(name)
    lhs, rhs = rng.sample(ptrs, 2)
    return [{"form": "copy", "lhs": lhs, "rhs": rhs},
            {"form": "addrof", "lhs": lhs, "target": rng.choice(ptrs)}]


@pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
@pytest.mark.parametrize("bp", SUITE, ids=lambda bp: bp.name)
def test_persisted_redrain_warm_starts_like_a_scratch_solve(bp, cls,
                                                            tmp_path):
    """A re-drained fixpoint written by ``persist_pending`` is what a
    fresh session over the grown program loads, and it equals a
    from-scratch solve of that program."""
    source = load_source(bp)
    grower = AnalysisSession.from_c(source, name=bp.filename,
                                    store=str(tmp_path))
    delta = _delta(bp.name, grower.program, grower.solve(cls()))
    grower.add_statements(statements_from_json(grower.program, delta))
    grower.persist_pending()

    fresh = AnalysisSession.from_c(source, name=bp.filename,
                                   store=str(tmp_path))
    fresh.add_statements(statements_from_json(fresh.program, delta))
    warm = fresh.solve(cls())
    assert fresh.store_hits == 1
    scratch = analyze(fresh.program, cls())

    assert set(warm.facts.all_facts()) == set(scratch.facts.all_facts())
    assert warm.facts.edge_count() == scratch.facts.edge_count()
    assert _deref_profile(warm) == _deref_profile(scratch)
    assert _gated(warm.stats) == _gated(scratch.stats)
