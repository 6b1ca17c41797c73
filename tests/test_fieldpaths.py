"""Unit tests for the normalized field-path machinery."""

import pickle

from repro.core.fieldpaths import (
    leaf_count,
    normalize_path,
    normalized_positions,
    positions_at_or_after,
    prefix_candidates,
    truncate_at_union,
    type_at,
)
from repro.ctype.types import (
    Field,
    StructType,
    UnionType,
    array_of,
    char,
    int_t,
    ptr,
)


def mk(tag, *fields):
    return StructType(tag).define([Field(n, t) for n, t in fields])


INNER = mk("Inner", ("a", int_t), ("b", int_t))
OUTER = mk("Outer", ("i", INNER), ("c", char))
DEEP = mk("Deep", ("o", OUTER), ("z", int_t))


class TestNormalizePath:
    def test_scalar_object_unchanged(self):
        assert normalize_path(int_t, ()) == ()

    def test_struct_descends_to_first_field(self):
        assert normalize_path(INNER, ()) == ("a",)

    def test_nested_struct_descends_recursively(self):
        assert normalize_path(OUTER, ()) == ("i", "a")
        assert normalize_path(DEEP, ()) == ("o", "i", "a")

    def test_inner_struct_field(self):
        assert normalize_path(OUTER, ("i",)) == ("i", "a")

    def test_non_first_field_unchanged(self):
        assert normalize_path(OUTER, ("c",)) == ("c",)
        assert normalize_path(INNER, ("b",)) == ("b",)

    def test_idempotent(self):
        p = normalize_path(DEEP, ())
        assert normalize_path(DEEP, p) == p

    def test_array_of_structs_transparent(self):
        arr_struct = mk("AS", ("hdr", char), ("body", array_of(INNER, 4)))
        assert normalize_path(arr_struct, ("body",)) == ("body", "a")

    def test_union_stops_descent(self):
        u = UnionType("U").define([Field("s", INNER), Field("n", int_t)])
        holder = mk("H", ("u", u), ("t", int_t))
        # The union collapses: paths into it truncate at the union.
        assert normalize_path(holder, ("u",)) == ("u",)
        assert normalize_path(holder, ("u", "s")) == ("u",)
        assert normalize_path(holder, ("u", "s", "b")) == ("u",)

    def test_union_as_object_type(self):
        u = UnionType("U2").define([Field("x", int_t)])
        assert normalize_path(u, ("x",)) == ()


class TestTruncateAtUnion:
    def test_no_union_passthrough(self):
        assert truncate_at_union(OUTER, ("i", "b")) == ("i", "b")

    def test_cut_at_union(self):
        u = UnionType("U3").define([Field("s", INNER)])
        holder = mk("H3", ("pre", int_t), ("u", u))
        assert truncate_at_union(holder, ("u", "s", "a")) == ("u",)


class TestNormalizedPositions:
    def test_flat(self):
        assert normalized_positions(INNER) == [("a",), ("b",)]

    def test_nested(self):
        # Outer itself, i, and i.a all normalize to ("i","a").
        assert normalized_positions(OUTER) == [("i", "a"), ("i", "b"), ("c",)]

    def test_scalar(self):
        assert normalized_positions(int_t) == [()]

    def test_union_single_position(self):
        u = UnionType("U4").define([Field("s", INNER), Field("n", int_t)])
        assert normalized_positions(u) == [()]

    def test_count_matches_leaves_for_plain_structs(self):
        assert len(normalized_positions(DEEP)) == leaf_count(DEEP) == 4
        assert normalized_positions(DEEP) == [
            ("o", "i", "a"), ("o", "i", "b"), ("o", "c"), ("z",)
        ]


class TestPositionsAtOrAfter:
    def test_from_start(self):
        assert positions_at_or_after(OUTER, ("i", "a")) == [
            ("i", "a"), ("i", "b"), ("c",)
        ]

    def test_from_middle(self):
        assert positions_at_or_after(OUTER, ("i", "b")) == [("i", "b"), ("c",)]

    def test_from_last(self):
        assert positions_at_or_after(OUTER, ("c",)) == [("c",)]

    def test_unknown_position_conservative(self):
        assert positions_at_or_after(OUTER, ("zzz",)) == normalized_positions(OUTER)

    def test_array_member_includes_whole_array(self):
        # Footnote 5: followingFields of a field within an array includes
        # all fields within that array.
        s = mk("Arr", ("h", int_t), ("body", array_of(INNER, 3)), ("t", int_t))
        pos = positions_at_or_after(s, ("body", "b"))
        assert ("body", "a") in pos
        assert ("t",) in pos


class TestPrefixCandidates:
    def test_first_field_chain(self):
        cands = prefix_candidates(DEEP, ("o", "i", "a"))
        paths = [p for p, _t in cands]
        assert paths == [(), ("o",), ("o", "i"), ("o", "i", "a")]
        types = [t for _p, t in cands]
        assert types[0] is DEEP and types[1] is OUTER
        assert types[2] is INNER and types[3] is int_t

    def test_non_first_field_only_itself(self):
        cands = prefix_candidates(OUTER, ("c",))
        assert [p for p, _t in cands] == [("c",)]

    def test_middle_field(self):
        cands = prefix_candidates(OUTER, ("i", "b"))
        assert [p for p, _t in cands] == [("i", "b")]


class TestLeafCount:
    def test_scalar(self):
        assert leaf_count(int_t) == 1

    def test_struct(self):
        assert leaf_count(OUTER) == 3

    def test_array_counts_once(self):
        s = mk("L", ("a", array_of(INNER, 10)))
        assert leaf_count(s) == 2

    def test_union_counts_once(self):
        u = UnionType("LU").define([Field("s", INNER), Field("n", int_t)])
        assert leaf_count(u) == 1


class TestTypeAt:
    def test_walks_nested(self):
        assert type_at(DEEP, ("o", "i", "b")) is int_t
        assert type_at(DEEP, ("o",)) is OUTER

    def test_through_array(self):
        s = mk("TA", ("xs", array_of(ptr(char), 4)))
        assert repr(type_at(s, ("xs",))) == "char*"


class TestMemoOnType:
    def test_qualified_clone_starts_without_memo(self):
        s = mk("Q", ("a", int_t))
        assert type_at(s, ()) is s
        c = s.with_quals(["const"])
        assert type_at(c, ()) is c

    def test_incomplete_record_is_not_memoized(self):
        s = StructType("Fwd")
        assert leaf_count(s) == 1
        s.define([Field("a", int_t), Field("b", int_t)])
        assert leaf_count(s) == 2

    def test_memoized_type_pickles(self):
        s = mk("P", ("i", INNER), ("c", char))
        before = normalized_positions(s)
        assert normalized_positions(pickle.loads(pickle.dumps(s))) == before
