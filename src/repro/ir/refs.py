"""References to (parts of) abstract memory objects.

Two reference forms appear in the system:

- :class:`FieldRef` — an object plus a (possibly empty) sequence of field
  names, the paper's ``t.β``.  Raw statement operands are always
  ``FieldRef``\\ s; the three *portable* strategies also use them as their
  normalized form.
- :class:`OffsetRef` — an object plus a byte offset, the paper's ``t.k̂``
  in the "Offsets" instance (§4.2.2), whose normalized references are
  offsets under one concrete layout.

Both are immutable-by-convention and hashable, so they can live in the
fact base.  Which of the two a given analysis run uses is decided
entirely by the strategy's ``normalize``; the engine never mixes the two
within one run.

These are hand-rolled ``__slots__`` classes rather than dataclasses:
refs are the single most-allocated type in an analysis run, and slots
drop the per-instance ``__dict__`` while still leaving room for the
lazily cached hash (``@dataclass(slots=True)`` cannot host an extra
cache slot on a frozen class).  Objects hash and compare by identity, so
both the hash and ``__eq__`` use ``id(obj)``/``is``.
"""

from __future__ import annotations

from typing import Tuple, Union

from ..ctype.types import ArrayType, CType, StructType
from .objects import AbstractObject

__all__ = ["FieldRef", "OffsetRef", "Ref", "ref_type"]


class FieldRef:
    """``obj.path`` — an object and a sequence of field names (maybe empty).

    The ``_fb``/``_id`` slot pair is an interning cache owned by
    :class:`repro.core.facts.FactBase`: the ID this instance interned to,
    valid only while ``_fb`` is that same fact base's token (refs
    canonicalized per strategy may outlive one engine run and meet
    another fact base; the token, unlike the fact base, keeps nothing
    alive).
    """

    __slots__ = ("obj", "path", "_hash", "_fb", "_id")

    def __init__(self, obj: AbstractObject, path: Tuple[str, ...] = ()) -> None:
        self.obj = obj
        self.path = path

    def extend(self, more: Tuple[str, ...]) -> "FieldRef":
        """The reference ``obj.path.more`` (paper's concatenation ``β.γ``)."""
        return FieldRef(self.obj, self.path + tuple(more))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not FieldRef:
            return NotImplemented
        return self.obj is other.obj and self.path == other.path

    def __hash__(self) -> int:
        # Refs are the keys of every fact-base and worklist index, so the
        # hash is cached on first use (the slot starts unset).
        try:
            return self._hash
        except AttributeError:
            h = hash((id(self.obj), self.path))
            self._hash = h
            return h

    def __repr__(self) -> str:
        if not self.path:
            return self.obj.name
        return self.obj.name + "." + ".".join(self.path)


class OffsetRef:
    """``obj.offset`` — an object and a byte offset into it."""

    __slots__ = ("obj", "offset", "_hash", "_fb", "_id")

    def __init__(self, obj: AbstractObject, offset: int = 0) -> None:
        self.obj = obj
        self.offset = offset

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not OffsetRef:
            return NotImplemented
        return self.obj is other.obj and self.offset == other.offset

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((id(self.obj), self.offset))
            self._hash = h
            return h

    def __repr__(self) -> str:
        return f"{self.obj.name}+{self.offset}"


Ref = Union[FieldRef, OffsetRef]


def ref_type(ref: FieldRef) -> CType:
    """The declared type of the location named by a :class:`FieldRef`.

    Walks the field path from the object's declared type, entering arrays
    at their representative element.  Only meaningful for field references
    whose path actually exists in the declared type (true for all raw
    statement operands produced by the front end).
    """
    t = ref.obj.type
    for name in ref.path:
        while isinstance(t, ArrayType):
            t = t.elem
        if not isinstance(t, StructType):
            raise TypeError(f"cannot select .{name} from {t!r} in {ref!r}")
        t = t.field_named(name).type
    return t
