"""The modular == whole-program differential gate (ISSUE 9 criterion).

For EVERY benchmark-suite program and ALL FOUR framework instances:
solve bottom-up over the callgraph SCC DAG
(:func:`repro.core.modular.solve_modular`) and require exact equality
with the whole-program fixpoint — facts, deref profile, and every
order-independent counter.  Soundness of the gate: the staged schedule
merely reorders statement installation, and the Figure-2 rules are
monotone, so the least fixpoint (and everything determined by it) is
invariant — the same argument the incremental differential
(tests/test_session_incremental.py) rests on.

Also covered: the callgraph approximation and SCC schedule themselves,
summary extraction, and the counters' flow through ``EngineStats``.
"""

from __future__ import annotations

import pytest

from repro import AnalysisSession, CommonInitialSequence
from repro.bench.harness import _UNGATED_STATS, load_program
from repro.clients.derefstats import deref_stats
from repro.core import ALL_STRATEGIES, Engine
from repro.core.modular import (
    approximate_callgraph,
    scc_schedule,
    solve_modular,
)
from repro.frontend import program_from_c
from repro.suite.registry import SUITE


@pytest.fixture(scope="module")
def suite_programs():
    return {bp.name: load_program(bp) for bp in SUITE}


def _snapshot(result):
    ds = deref_stats(result)
    return (
        sorted(map(repr, result.facts.all_facts())),
        sorted((s.line, s.pointer_name, s.set_size) for s in ds.sites),
        {k: v for k, v in result.stats.as_dict().items()
         if k not in _UNGATED_STATS},
    )


@pytest.mark.parametrize("cls", ALL_STRATEGIES, ids=lambda c: c.key)
@pytest.mark.parametrize("bp", SUITE, ids=lambda bp: bp.name)
def test_modular_equals_whole_program(suite_programs, bp, cls):
    program = suite_programs[bp.name]
    whole = Engine(program, cls()).solve()
    mod = solve_modular(program, cls())
    wf, wd, wg = _snapshot(whole)
    mf, md, mg = _snapshot(mod.result)
    assert mf == wf, "facts diverged"
    assert md == wd, "deref profile diverged"
    assert mg == wg, "gated stats diverged"
    assert mod.stats.summaries_computed == len(program.functions)


# ----------------------------------------------------------------------
# Callgraph and schedule.
# ----------------------------------------------------------------------
RECURSIVE = """
int *shared;
int *leaf(int *x) { return x; }
int *even(int n, int *x);
int *odd(int n, int *x) { return even(n - 1, leaf(x)); }
int *even(int n, int *x) { return n ? odd(n - 1, x) : x; }
void main(void) { int v; shared = odd(3, &v); }
"""


def test_callgraph_and_scc_levels():
    program = program_from_c(RECURSIVE, "rec.c")
    cg = approximate_callgraph(program)
    assert cg["odd"] == {"even", "leaf"}
    assert cg["even"] == {"odd"}
    assert cg["main"] == {"odd"}
    sched = scc_schedule(program)
    # odd/even form one SCC; leaf sits below it; main above it.
    scc_of = sched.scc_of
    assert scc_of["odd"] == scc_of["even"]
    assert scc_of["leaf"] != scc_of["odd"]
    levels = {fn: lvl for lvl, idxs in enumerate(sched.levels)
              for i in idxs for fn in sched.sccs[i]}
    assert levels["leaf"] < levels["odd"] == levels["even"] < levels["main"]


def test_indirect_calls_target_address_taken_functions():
    program = program_from_c(
        """
        int cb_a(void) { return 1; }
        int cb_b(void) { return 2; }
        int never(void) { return 3; }
        int (*fp)(void);
        void main(void) { fp = cb_a; fp = cb_b; fp(); }
        """,
        "fp.c",
    )
    cg = approximate_callgraph(program)
    assert "cb_a" in cg["main"] and "cb_b" in cg["main"]
    assert "never" not in cg["main"]


def test_summaries_capture_param_and_return_pointees():
    program = program_from_c(RECURSIVE, "rec.c")
    mod = solve_modular(program, CommonInitialSequence())
    leaf = mod.summaries["leaf"]
    assert leaf.params["leaf::x"] == ["main::v"]
    assert leaf.returns == ["main::v"]
    assert mod.summaries["main"].returns == []


def test_session_solve_modular():
    session = AnalysisSession.from_c(RECURSIVE, "rec.c")
    mod = session.solve_modular(CommonInitialSequence())
    whole = session.solve(CommonInitialSequence())
    assert sorted(map(repr, mod.facts.all_facts())) == \
        sorted(map(repr, whole.facts.all_facts()))
    assert mod.stats.summaries_computed == 4


def test_counters_flow_through_stats_dict():
    program = program_from_c(RECURSIVE, "rec.c")
    mod = solve_modular(program, CommonInitialSequence())
    d = mod.stats.as_dict()
    assert d["summaries_computed"] == 4
    # The process-pool pre-seeder and its counters are gone.
    assert "scc_parallel_batches" not in d
    assert "modular_pool_failures" not in d
