"""Concrete memory layout of C types under a configurable ABI.

The "Offsets" instance of the framework (paper §4.2.2) assumes a *specific
layout strategy*: every field has a known byte offset and every object a
known size.  This module implements that layout engine.

The layout is parameterized by an :class:`ABI` giving the size and alignment
of each scalar kind.  Two stock ABIs are provided (:data:`ILP32` and
:data:`LP64`); analyzing the same program under both demonstrates the
paper's portability argument — the "Offsets" algorithm's results are only
safe for the ABI they were computed under, while the three portable
instances are ABI-independent.

Array handling follows the paper's convention that every array is a single
representative element (§2 and footnotes 4–6): :func:`canonical_offset`
folds any byte offset that lands inside an array back into the
representative (first) element, and :func:`offsetof` indexes element 0 when
a field path traverses an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .types import (
    ArrayType,
    CType,
    EnumType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    UnionType,
    VoidType,
)

__all__ = [
    "ABI",
    "ILP32",
    "LP64",
    "LayoutError",
    "Layout",
]


class LayoutError(Exception):
    """Raised when a size/offset is requested for an incomplete type."""


@dataclass(frozen=True)
class ABI:
    """Sizes and alignments of scalar types, in bytes.

    ``int_sizes``/``int_aligns`` map integer kinds to their size/alignment;
    ``float_sizes``/``float_aligns`` likewise for floating kinds.
    """

    name: str
    pointer_size: int
    pointer_align: int
    int_sizes: Dict[str, int]
    int_aligns: Dict[str, int]
    float_sizes: Dict[str, int]
    float_aligns: Dict[str, int]
    enum_size: int = 4
    enum_align: int = 4
    #: Size used for functions when one is (erroneously) asked for; a
    #: function designator decays to a pointer, so this is rarely reached.
    function_size: int = 1


ILP32 = ABI(
    name="ilp32",
    pointer_size=4,
    pointer_align=4,
    int_sizes={"_Bool": 1, "char": 1, "short": 2, "int": 4, "long": 4, "long long": 8},
    int_aligns={"_Bool": 1, "char": 1, "short": 2, "int": 4, "long": 4, "long long": 4},
    float_sizes={"float": 4, "double": 8, "long double": 12},
    float_aligns={"float": 4, "double": 4, "long double": 4},
)

LP64 = ABI(
    name="lp64",
    pointer_size=8,
    pointer_align=8,
    int_sizes={"_Bool": 1, "char": 1, "short": 2, "int": 4, "long": 8, "long long": 8},
    int_aligns={"_Bool": 1, "char": 1, "short": 2, "int": 4, "long": 8, "long long": 8},
    float_sizes={"float": 4, "double": 8, "long double": 16},
    float_aligns={"float": 4, "double": 8, "long double": 16},
)


def _align_up(n: int, a: int) -> int:
    return (n + a - 1) // a * a


@dataclass
class _RecordLayout:
    """Cached layout of one struct/union: offsets parallel to members.

    ``type`` pins the keyed type object: the cache is keyed on
    ``id(type)``, so the entry must keep the type alive against id reuse
    for as long as the owning :class:`Layout` lives.
    """

    size: int
    align: int
    offsets: Tuple[int, ...]
    type: object = None


class Layout:
    """Layout engine: ``sizeof``/``alignof``/``offsetof`` under one ABI.

    Instances cache per-record layouts, so a single :class:`Layout` should
    be shared across an analysis run.  The cache pins every record it
    has laid out; it is freed with the layout (each strategy built
    without an explicit layout owns its own).
    """

    def __init__(self, abi: ABI = ILP32):
        self.abi = abi
        self._records: Dict[int, _RecordLayout] = {}
        #: Records currently being laid out, to turn a cyclic by-value
        #: type (impossible in well-formed C, but constructible by hand)
        #: into a LayoutError instead of unbounded recursion.
        self._laying_out: set = set()

    # ------------------------------------------------------------------
    # sizeof / alignof
    # ------------------------------------------------------------------
    def sizeof(self, t: CType) -> int:
        """Size of ``t`` in bytes (C ``sizeof``)."""
        abi = self.abi
        if isinstance(t, VoidType):
            # GCC extension: sizeof(void) == 1; convenient for void* windows.
            return 1
        if isinstance(t, IntType):
            return abi.int_sizes[t.kind]
        if isinstance(t, FloatType):
            return abi.float_sizes[t.kind]
        if isinstance(t, EnumType):
            return abi.enum_size
        if isinstance(t, PointerType):
            return abi.pointer_size
        if isinstance(t, ArrayType):
            if t.length is None:
                # Incomplete array: treat as one element (the representative).
                return self.sizeof(t.elem)
            return self.sizeof(t.elem) * max(t.length, 1)
        if isinstance(t, FunctionType):
            return abi.function_size
        if isinstance(t, StructType):
            return self._record_layout(t).size
        raise LayoutError(f"cannot take sizeof {t!r}")

    def alignof(self, t: CType) -> int:
        """Alignment requirement of ``t`` in bytes."""
        abi = self.abi
        if isinstance(t, VoidType):
            return 1
        if isinstance(t, IntType):
            return abi.int_aligns[t.kind]
        if isinstance(t, FloatType):
            return abi.float_aligns[t.kind]
        if isinstance(t, EnumType):
            return abi.enum_align
        if isinstance(t, PointerType):
            return abi.pointer_align
        if isinstance(t, ArrayType):
            return self.alignof(t.elem)
        if isinstance(t, FunctionType):
            return 1
        if isinstance(t, StructType):
            return self._record_layout(t).align
        raise LayoutError(f"cannot take alignof {t!r}")

    def _record_layout(self, t: StructType) -> _RecordLayout:
        cached = self._records.get(id(t))
        if cached is not None:
            return cached
        if not t.is_complete:
            raise LayoutError(f"layout of incomplete type {t!r}")
        if id(t) in self._laying_out:
            raise LayoutError(f"recursive by-value type {t!r} has no layout")
        self._laying_out.add(id(t))
        try:
            return self._record_layout_uncached(t)
        finally:
            self._laying_out.discard(id(t))

    def _record_layout_uncached(self, t: StructType) -> _RecordLayout:
        offsets: List[int] = []
        if isinstance(t, UnionType):
            size = 0
            align = 1
            for f in t.members():
                offsets.append(0)
                size = max(size, self._member_size(f))
                align = max(align, self.alignof(f.type))
            size = _align_up(max(size, 1), align)
        else:
            off = 0
            align = 1
            bit_cursor = 0  # bit position within current storage unit
            for f in t.members():
                if f.bit_width is not None:
                    # Minimal but deterministic bit-field layout: pack into
                    # successive bytes of the declared type's storage unit.
                    unit = self.sizeof(f.type)
                    unit_align = self.alignof(f.type)
                    if bit_cursor == 0 or bit_cursor + f.bit_width > unit * 8:
                        off = _align_up(off, unit_align)
                        offsets.append(off)
                        off += unit
                        bit_cursor = f.bit_width
                    else:
                        offsets.append(offsets[-1] if offsets else 0)
                        bit_cursor += f.bit_width
                    align = max(align, unit_align)
                    continue
                bit_cursor = 0
                a = self.alignof(f.type)
                off = _align_up(off, a)
                offsets.append(off)
                off += self._member_size(f)
                align = max(align, a)
            size = _align_up(max(off, 1), align)
        lay = _RecordLayout(size=size, align=align, offsets=tuple(offsets), type=t)
        self._records[id(t)] = lay
        return lay

    def _member_size(self, f) -> int:
        if f.bit_width is not None:
            return self.sizeof(f.type)
        return self.sizeof(f.type)

    # ------------------------------------------------------------------
    # offsetof and friends
    # ------------------------------------------------------------------
    def field_offset(self, t: StructType, name: str) -> int:
        """Byte offset of member ``name`` in record ``t``."""
        lay = self._record_layout(t)
        return lay.offsets[t.field_index(name)]

    def offsetof(self, t: CType, path: Sequence[str]) -> int:
        """Byte offset of the (possibly nested) field ``path`` in ``t``.

        ``path`` is a sequence of field names, as in the paper's ``s.α``.
        Arrays along the way are entered at their representative element
        (offset 0 into the array).
        """
        off = 0
        cur = t
        for name in path:
            while isinstance(cur, ArrayType):
                cur = cur.elem  # representative element at offset 0
            if not isinstance(cur, StructType):
                raise LayoutError(f"field access .{name} into non-record {cur!r}")
            off += self.field_offset(cur, name)
            cur = cur.field_named(name).type
        return off

    def type_at_path(self, t: CType, path: Sequence[str]) -> CType:
        """The type of the field reached by ``path`` from ``t``."""
        cur = t
        for name in path:
            while isinstance(cur, ArrayType):
                cur = cur.elem
            if not isinstance(cur, StructType):
                raise LayoutError(f"field access .{name} into non-record {cur!r}")
            cur = cur.field_named(name).type
        return cur

    # ------------------------------------------------------------------
    # Offset canonicalization (arrays → representative element)
    # ------------------------------------------------------------------
    def canonical_offset(self, t: CType, off: int) -> int:
        """Fold ``off`` into the array-representative canonical form.

        If byte offset ``off`` within an object of type ``t`` falls inside
        an array (at any nesting depth), it is mapped to the corresponding
        offset within the array's *first* element, recursively.  Offsets
        beyond ``sizeof(t)`` are clamped modulo nothing — they are returned
        canonicalized as far as possible (a safe over-approximation used
        for out-of-bounds casts, paper Complication 1).
        """
        if off < 0:
            return 0
        return self._canon(t, off)

    def _canon(self, t: CType, off: int) -> int:
        if isinstance(t, ArrayType):
            esz = self.sizeof(t.elem)
            if esz <= 0:
                return 0
            inner = off % esz
            return self._canon(t.elem, inner)
        if isinstance(t, UnionType) and t.is_complete:
            # All members live at offset 0; canonicalize within the largest
            # member that covers the offset, if any.  To stay deterministic
            # we canonicalize within the first covering member.
            for f in t.members():
                if f.bit_width is None and off < self.sizeof(f.type):
                    return self._canon(f.type, off)
            return off
        if isinstance(t, StructType) and t.is_complete:
            lay = self._record_layout(t)
            members = t.members()
            # Find the member whose storage covers `off`.
            for f, fo in zip(reversed(members), reversed(lay.offsets)):
                if fo <= off:
                    if f.bit_width is not None:
                        return off
                    inner = off - fo
                    if inner < self.sizeof(f.type):
                        return fo + self._canon(f.type, inner)
                    break
            return off
        return off

    # ------------------------------------------------------------------
    # Enumerating sub-field offsets
    # ------------------------------------------------------------------
    def subfield_offsets(self, t: CType) -> List[int]:
        """All canonical start offsets of sub-objects of ``t``.

        This includes offset 0, the start of every struct member at every
        nesting depth (arrays contribute their representative element), and
        is used for the Assumption-1 treatment of pointer arithmetic: a
        pointer produced by arithmetic on a pointer into an object may point
        to any of these offsets (paper §4.2.1).
        """
        acc: List[int] = []
        seen = set()

        def walk(cur: CType, base: int) -> None:
            if base not in seen:
                seen.add(base)
                acc.append(base)
            if isinstance(cur, ArrayType):
                walk(cur.elem, base)
            elif isinstance(cur, StructType) and cur.is_complete:
                lay = self._record_layout(cur)
                for f, fo in zip(cur.members(), lay.offsets):
                    if f.bit_width is None:
                        walk(f.type, base + fo)
                    elif base + fo not in seen:
                        seen.add(base + fo)
                        acc.append(base + fo)

        walk(t, 0)
        return sorted(acc)

    def offset_to_path(self, t: CType, off: int) -> Optional[Tuple[str, ...]]:
        """Best-effort mapping of a canonical offset back to a field path.

        Returns ``None`` when ``off`` does not name the start of any
        declared field (e.g. padding, or mid-scalar offsets produced by
        byte-granularity resolve).  Used for human-readable reporting only —
        the analysis itself never needs this inverse.
        """
        path: List[str] = []
        cur = t
        cur_off = off
        while True:
            while isinstance(cur, ArrayType):
                cur = cur.elem
            if cur_off == 0 and not isinstance(cur, StructType):
                return tuple(path)
            if not (isinstance(cur, StructType) and cur.is_complete):
                return tuple(path) if cur_off == 0 else None
            lay = self._record_layout(cur)
            if cur_off == 0:
                return tuple(path)
            hit = None
            for f, fo in zip(cur.members(), lay.offsets):
                if f.bit_width is not None:
                    continue
                if fo <= cur_off < fo + self.sizeof(f.type):
                    hit = (f, fo)
            if hit is None:
                return None
            f, fo = hit
            path.append(f.name)
            cur = f.type
            cur_off -= fo
