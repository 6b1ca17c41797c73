"""Representation of C types.

The pointer-analysis framework is driven almost entirely by types: the
``normalize``, ``lookup``, and ``resolve`` functions of the paper all take
declared types as arguments.  This module defines a small, self-contained
representation of the C type system sufficient for whole-program analysis:

- scalar types (``void``, integer kinds, floating kinds, enums),
- derived types (pointers, arrays, functions),
- aggregate types (structs, unions) with named fields, including bit-fields.

Struct and union types are *nominal with identity semantics*: a
:class:`StructType` is created (possibly incomplete) and its fields are
attached later, which is how C's forward declarations and self-referential
types (linked lists) work.  Equality and hashing are by object identity;
*compatibility* (the ANSI C notion that drives the "Common Initial Sequence"
strategy) is a structural check implemented in :mod:`repro.ctype.compat`.

Type qualifiers (``const``, ``volatile``) are tracked because ANSI C makes
them relevant to type compatibility (a ``const int`` is not compatible with
an ``int``), which in turn affects common-initial-sequence computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

__all__ = [
    "CType",
    "VoidType",
    "IntType",
    "FloatType",
    "EnumType",
    "PointerType",
    "ArrayType",
    "FunctionType",
    "Field",
    "StructType",
    "UnionType",
    "void",
    "char",
    "schar",
    "uchar",
    "short",
    "ushort",
    "int_t",
    "uint",
    "long_t",
    "ulong",
    "longlong",
    "ulonglong",
    "bool_t",
    "float_t",
    "double_t",
    "longdouble",
    "ptr",
    "array_of",
    "func",
    "strip_quals",
    "is_scalar",
    "is_aggregate",
    "is_pointerlike",
]


class CType:
    """Base class for all C types.

    Subclasses are lightweight dataclasses.  All types carry a tuple of
    qualifiers in :attr:`quals` (sorted, e.g. ``("const",)``); most code can
    ignore qualifiers, but compatibility checking must not.

    An instance may carry a ``_memo`` dict holding results of pure
    functions of the type (see :mod:`repro.core.fieldpaths`); it dies
    with the type, and a clone starts without it.
    """

    quals: Tuple[str, ...] = ()

    def with_quals(self, quals: Sequence[str]) -> "CType":
        """Return a copy of this type carrying exactly ``quals``."""
        if tuple(sorted(quals)) == self.quals:
            return self
        clone = self._clone()
        clone.quals = tuple(sorted(quals))
        return clone

    def _clone(self) -> "CType":
        import copy

        clone = copy.copy(self)
        clone.__dict__.pop("_memo", None)
        return clone

    # Convenience predicates --------------------------------------------
    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType) and not isinstance(self, UnionType)

    @property
    def is_union(self) -> bool:
        return isinstance(self, UnionType)

    @property
    def is_record(self) -> bool:
        """True for structs and unions."""
        return isinstance(self, StructType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)


@dataclass(eq=False)
class VoidType(CType):
    """The C ``void`` type (only meaningful behind a pointer)."""

    quals: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return "void"


#: Integer kinds in increasing conversion rank.
INT_KINDS = ("_Bool", "char", "short", "int", "long", "long long")


@dataclass(eq=False)
class IntType(CType):
    """An integer type: a *kind* (one of :data:`INT_KINDS`) plus signedness.

    Plain ``char`` is modelled as ``IntType("char", signed=True)``; for the
    purposes of this analysis the signedness of plain char never matters.
    """

    kind: str
    signed: bool = True
    quals: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in INT_KINDS:
            raise ValueError(f"unknown integer kind: {self.kind!r}")

    def __repr__(self) -> str:
        prefix = "" if self.signed else "unsigned "
        return f"{prefix}{self.kind}"


FLOAT_KINDS = ("float", "double", "long double")


@dataclass(eq=False)
class FloatType(CType):
    """A floating-point type (``float``, ``double``, ``long double``)."""

    kind: str
    quals: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FLOAT_KINDS:
            raise ValueError(f"unknown float kind: {self.kind!r}")

    def __repr__(self) -> str:
        return self.kind


@dataclass(eq=False)
class EnumType(CType):
    """An enumerated type.

    ANSI C makes each enum compatible with an implementation-defined integer
    type; following the paper's footnote ("an int is compatible with an
    enum"), enums are treated as compatible with ``int``.
    """

    tag: Optional[str] = None
    quals: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"enum {self.tag or '<anon>'}"


@dataclass(eq=False)
class PointerType(CType):
    """Pointer to :attr:`pointee`."""

    pointee: CType
    quals: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"


@dataclass(eq=False)
class ArrayType(CType):
    """Array of :attr:`elem`.

    ``length`` is ``None`` for incomplete arrays (``int a[]``).  Following
    the paper (§2), the analysis treats every array as a single
    representative element, but the *layout* engine still needs real lengths
    to compute offsets of fields that follow an in-struct array.
    """

    elem: CType
    length: Optional[int] = None
    quals: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.elem!r}[{n}]"


@dataclass(eq=False)
class FunctionType(CType):
    """Function type: return type plus parameter types."""

    ret: CType
    params: Tuple[CType, ...] = ()
    varargs: bool = False
    quals: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        ps = ", ".join(repr(p) for p in self.params)
        if self.varargs:
            ps = f"{ps}, ..." if ps else "..."
        return f"{self.ret!r}({ps})"


@dataclass(frozen=True)
class Field:
    """A named member of a struct or union.

    ``bit_width`` is ``None`` for ordinary members.  Bit-fields participate
    in common-initial-sequence matching only when their widths are equal
    (ISO 9899:1990 §6.3.2.3), so the width is recorded here.
    """

    name: str
    type: CType
    bit_width: Optional[int] = None


@dataclass(eq=False)
class StructType(CType):
    """A struct type.  May be created incomplete and completed later.

    Identity semantics: two independently created ``StructType`` objects are
    different types even with the same tag; *compatibility* is a separate,
    structural notion (see :mod:`repro.ctype.compat`).
    """

    tag: Optional[str] = None
    fields: Optional[Tuple[Field, ...]] = None
    quals: Tuple[str, ...] = ()
    #: True while only ``struct S;`` has been seen.
    _keyword = "struct"

    @property
    def is_complete(self) -> bool:
        return self.fields is not None

    def define(self, fields: Sequence[Field]) -> "StructType":
        """Attach the member list, completing the type.  Returns ``self``."""
        if self.fields is not None:
            raise ValueError(f"{self!r} is already complete")
        names = [f.name for f in fields]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate field names in {self!r}")
        self.fields = tuple(fields)
        return self

    def field_named(self, name: str) -> Field:
        """Return the member called ``name`` (raises ``KeyError`` if absent)."""
        for f in self.members():
            if f.name == name:
                return f
        raise KeyError(f"{self!r} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.members())

    def members(self) -> Tuple[Field, ...]:
        if self.fields is None:
            raise ValueError(f"incomplete type {self!r} has no members")
        return self.fields

    def field_index(self, name: str) -> int:
        for i, f in enumerate(self.members()):
            if f.name == name:
                return i
        raise KeyError(f"{self!r} has no field {name!r}")

    def fields_after(self, name: str) -> Tuple[Field, ...]:
        """The members that come after ``name`` (paper's ``followingFields``)."""
        return self.members()[self.field_index(name) + 1 :]

    def __repr__(self) -> str:
        return f"{self._keyword} {self.tag or '<anon>'}"


@dataclass(eq=False)
class UnionType(StructType):
    """A union type.  Shares all struct machinery; layout differs."""

    _keyword = "union"


# ---------------------------------------------------------------------------
# Singleton-ish convenience constructors.
#
# Scalar types have no identity requirements, so shared instances are safe
# (nothing ever mutates them; ``with_quals`` copies).
# ---------------------------------------------------------------------------

void = VoidType()
char = IntType("char", signed=True)
schar = IntType("char", signed=True)
uchar = IntType("char", signed=False)
short = IntType("short", signed=True)
ushort = IntType("short", signed=False)
int_t = IntType("int", signed=True)
uint = IntType("int", signed=False)
long_t = IntType("long", signed=True)
ulong = IntType("long", signed=False)
longlong = IntType("long long", signed=True)
ulonglong = IntType("long long", signed=False)
bool_t = IntType("_Bool", signed=False)
float_t = FloatType("float")
double_t = FloatType("double")
longdouble = FloatType("long double")


def ptr(pointee: CType) -> PointerType:
    """Shorthand for ``PointerType(pointee)``."""
    return PointerType(pointee)


def array_of(elem: CType, length: Optional[int] = None) -> ArrayType:
    """Shorthand for ``ArrayType(elem, length)``."""
    return ArrayType(elem, length)


def func(ret: CType, *params: CType, varargs: bool = False) -> FunctionType:
    """Shorthand for ``FunctionType(ret, params, varargs)``."""
    return FunctionType(ret, tuple(params), varargs)


def strip_quals(t: CType) -> CType:
    """Return ``t`` without top-level qualifiers."""
    return t.with_quals(()) if t.quals else t


def is_scalar(t: CType) -> bool:
    """True for arithmetic types, enums, and pointers."""
    return isinstance(t, (IntType, FloatType, EnumType, PointerType))


def is_aggregate(t: CType) -> bool:
    """True for structs, unions, and arrays."""
    return isinstance(t, (StructType, ArrayType))


def is_pointerlike(t: CType) -> bool:
    """True for types whose *values* the analysis must track as addresses.

    Under the paper's casting model every object can hold (part of) an
    address, so the analysis tracks all locations; this predicate is only a
    hint used by clients and statistics (e.g. "dereferenced pointer").
    """
    return isinstance(t, (PointerType, FunctionType, ArrayType))


def named_fields(t: CType) -> Iterator[Field]:
    """Iterate members of a record type, or nothing for non-records."""
    if isinstance(t, StructType) and t.is_complete:
        yield from t.members()
