"""Field-path machinery shared by the portable strategies.

The "Collapse on Cast" and "Common Initial Sequence" instances of the
framework name locations by *normalized field paths*: every sub-object that
starts at the same address as an enclosing structure is represented by the
innermost first field (paper §4.3.2's ``normalize``).  This module contains
the pure type-level computations those strategies need:

- :func:`normalize_path` — the paper's recursive first-field normalization;
- :func:`normalized_positions` — the ordered set of distinct normalized
  field positions of a type (the "fields" the portable algorithms see);
- :func:`positions_at_or_after` — the paper's ``followingFields`` closure
  used by ``lookup``'s conservative branch, including the footnote-5 rule
  that fields within an array are all mutually reachable;
- :func:`type_at` — the declared type at a (possibly normalized) path.

Paths are tuples of field names.  Array derefs never contribute a path
component (every array is its single representative element, paper §2), so
a path through ``struct { struct S a[10]; }`` to the inner field ``x`` is
just ``("a", "x")``.  Unions are collapsed: a path never extends *into* a
union (the safe treatment mentioned in §2's final paragraph).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..ctype.types import ArrayType, CType, StructType, UnionType


def _memo_by_type(fn: Callable) -> Callable:
    """Memoize a pure function of (type, extra args) on the type itself.

    Results live in the type object's ``_memo`` dict (see
    :class:`~repro.ctype.types.CType`), so they are freed together with
    the type and its program; nothing outside the type refers to them.
    """

    name = fn.__name__          # a string key keeps memoized types picklable

    def wrapper(t: CType, *args):
        memo = t.__dict__.get("_memo")
        key = (name,) + args
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                return hit
        result = fn(t, *args)
        # A forward-declared record may be completed later, changing the
        # answer: only cache once the type can no longer change.
        if not (isinstance(t, StructType) and not t.is_complete):
            if memo is None:
                memo = t.__dict__["_memo"] = {}
            memo[key] = result
        return result

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    return wrapper

__all__ = [
    "normalize_path",
    "normalized_positions",
    "positions_at_or_after",
    "type_at",
    "truncate_at_union",
    "leaf_count",
    "prefix_candidates",
]

Path = Tuple[str, ...]


def _skip_arrays(t: CType) -> CType:
    while isinstance(t, ArrayType):
        t = t.elem
    return t


@_memo_by_type
def truncate_at_union(t: CType, path: Path) -> Path:
    """Cut ``path`` at the first union encountered while walking it.

    All members of a union share offset 0, so a union object is a single
    location to the portable strategies; any reference into a union is a
    reference to the union itself.
    """
    out: List[str] = []
    cur = _skip_arrays(t)
    for name in path:
        if isinstance(cur, UnionType):
            break
        if not isinstance(cur, StructType):
            break
        cur = _skip_arrays(cur.field_named(name).type)
        out.append(name)
    return tuple(out)


@_memo_by_type
def type_at(t: CType, path: Path) -> CType:
    """Declared type at ``path`` within ``t`` (arrays entered transparently)."""
    cur = _skip_arrays(t)
    for name in path:
        if not isinstance(cur, StructType):
            raise TypeError(f"cannot select .{name} within {cur!r}")
        cur = _skip_arrays(cur.field_named(name).type)
    return cur


@_memo_by_type
def normalize_path(t: CType, path: Path) -> Path:
    """Paper §4.3.2 ``normalize``: descend to the innermost first field.

    Truncates at unions, then, while the referenced sub-object is a
    (non-union) structure with at least one member, appends the first
    member's name.  The result is the canonical representative of every
    sub-object starting at the same address.
    """
    path = truncate_at_union(t, path)
    cur = type_at(t, path)
    out = list(path)
    while (
        isinstance(cur, StructType)
        and not isinstance(cur, UnionType)
        and cur.is_complete
        and cur.members()
    ):
        first = cur.members()[0]
        out.append(first.name)
        cur = _skip_arrays(first.type)
        if isinstance(cur, UnionType):
            break
    return tuple(out)


def _all_paths(t: CType, prefix: Path, acc: List[Path]) -> None:
    acc.append(prefix)
    cur = _skip_arrays(t)
    if isinstance(cur, UnionType):
        return
    if isinstance(cur, StructType) and cur.is_complete:
        for f in cur.members():
            _all_paths(f.type, prefix + (f.name,), acc)


@_memo_by_type
def normalized_positions(t: CType) -> List[Path]:
    """All distinct normalized field positions of ``t``, in layout order.

    This is the universe of locations the portable strategies distinguish
    within one object: every field path, normalized, de-duplicated, in
    pre-order (which coincides with address order under any conforming
    layout for the *relative* order of positions that ANSI C pins down).
    """
    raw: List[Path] = []
    _all_paths(t, (), raw)
    seen = set()
    out: List[Path] = []
    for p in raw:
        n = normalize_path(t, p)
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out


def _array_ancestor_prefix(t: CType, path: Path) -> Optional[Path]:
    """Shortest prefix of ``path`` whose declared field type is an array.

    Used for footnote 5: a position inside an array must consider every
    position inside that array as a "following field" (a pointer can be
    advanced from any element to any other).
    """
    cur: CType = t
    if isinstance(cur, ArrayType):
        return ()
    for i, name in enumerate(path):
        cur = _skip_arrays(cur)
        if not isinstance(cur, StructType):
            return None
        cur = cur.field_named(name).type
        if isinstance(cur, ArrayType):
            return path[: i + 1]
    return None


@_memo_by_type
def positions_at_or_after(t: CType, pos: Path) -> List[Path]:
    """Normalized positions of ``t`` at or after ``pos`` in layout order.

    The conservative branch of the portable ``lookup`` functions returns
    "all fields of ``t`` starting with ``β``"; this computes that set,
    widened per footnote 5 so that when ``pos`` lies inside an array the
    whole array's positions are included.
    """
    allp = normalized_positions(t)
    try:
        start = allp.index(pos)
    except ValueError:
        # pos is not a position of t (e.g. object accessed beyond its
        # type): be conservative and return everything.
        return list(allp)
    anc = _array_ancestor_prefix(t, pos)
    if anc is not None:
        for i, p in enumerate(allp):
            if p[: len(anc)] == anc:
                start = min(start, i)
                break
    return allp[start:]


@_memo_by_type
def leaf_count(t: CType) -> int:
    """Number of scalar leaves of ``t`` (arrays one element, unions one leaf).

    Used to expand a Collapse-Always fact ``pointsTo(p, s)`` into per-field
    facts for the Figure 4 comparison ("that fact is expanded to the set of
    facts pointsTo(p, s.α) for all fields α in s").
    """
    cur = _skip_arrays(t)
    if isinstance(cur, UnionType):
        return 1
    if isinstance(cur, StructType) and cur.is_complete:
        if not cur.members():
            return 1
        return sum(leaf_count(f.type) for f in cur.members())
    return 1


@_memo_by_type
def prefix_candidates(t: CType, norm: Path) -> List[Tuple[Path, CType]]:
    """The paper's ``δ`` candidates: prefixes naming the same address.

    Given a *normalized* position ``norm`` of an object of type ``t``,
    return every prefix ``δ`` of ``norm`` (including the empty prefix and
    ``norm`` itself) such that ``normalize(t.δ) == norm`` — i.e. every
    enclosing sub-object whose first-field chain ends at ``norm`` — paired
    with its declared type.  Ordered outermost first.
    """
    out: List[Tuple[Path, CType]] = []
    for i in range(len(norm) + 1):
        prefix = norm[:i]
        try:
            if normalize_path(t, prefix) == norm:
                out.append((prefix, type_at(t, prefix)))
        except (KeyError, TypeError):
            continue
    return out
