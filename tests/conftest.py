"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc

import pytest

from repro import (
    CollapseAlways,
    CollapseOnCast,
    CommonInitialSequence,
    Offsets,
    analyze_c,
)


@pytest.fixture(autouse=True)
def _collector_state_unchanged():
    """Fail any test that leaves the cyclic collector switched differently
    from how it found it (e.g. a fixpoint guard that leaks its pause)."""
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"gc.isenabled() went from {before} to {after}")


def pts(result, name):
    """Points-to set (as sorted repr strings) of the named object."""
    obj = result.program.objects.lookup(name)
    assert obj is not None, f"no object named {name!r}"
    return sorted(map(repr, result.points_to(obj)))


def pts_names(result, name):
    """Names of objects pointed to by the named object."""
    obj = result.program.objects.lookup(name)
    assert obj is not None, f"no object named {name!r}"
    return sorted(result.points_to_names(obj))


@pytest.fixture(params=["collapse_always", "collapse_on_cast",
                        "common_initial_sequence", "offsets"])
def any_strategy(request):
    """Parametrize a test over all four instances of the framework."""
    return {
        "collapse_always": CollapseAlways,
        "collapse_on_cast": CollapseOnCast,
        "common_initial_sequence": CommonInitialSequence,
        "offsets": Offsets,
    }[request.param]()


@pytest.fixture(params=["collapse_on_cast", "common_initial_sequence", "offsets"])
def field_strategy(request):
    """Parametrize over the three field-distinguishing instances."""
    return {
        "collapse_on_cast": CollapseOnCast,
        "common_initial_sequence": CommonInitialSequence,
        "offsets": Offsets,
    }[request.param]()


def run(src: str, strategy):
    return analyze_c(src, strategy)


def struct_types(program):
    """Every struct/union type reachable from the program's objects."""
    from repro.ctype.types import ArrayType, FunctionType, PointerType, StructType

    seen = {}
    stack = [obj.type for obj in program.objects.all_objects()]
    while stack:
        t = stack.pop()
        if isinstance(t, PointerType):
            stack.append(t.pointee)
        elif isinstance(t, ArrayType):
            stack.append(t.elem)
        elif isinstance(t, FunctionType):
            stack.append(t.ret)
            stack.extend(t.params)
        elif isinstance(t, StructType) and id(t) not in seen:
            seen[id(t)] = t
            if t.is_complete:
                stack.extend(f.type for f in t.members())
    return list(seen.values())
