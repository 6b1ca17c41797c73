"""The "Offsets" instance (paper §4.2.2).

The most precise instance, and the only non-portable one: it assumes a
specific layout strategy (an :class:`~repro.ctype.layout.ABI`), so its
results are safe only for that layout.  Locations are
``⟨outermost containing object, byte offset⟩`` pairs:

.. code-block:: text

    normalize(s.α)           = ⟨s, offsetof(τ_s, α)⟩        (0 if α empty)
    lookup(τ, α, t.k̂)        = { t.n̂ | n = k + offsetof(τ, α) }
    resolve(s.ĵ, t.k̂, τ)     = { ⟨s.m̂, t.n̂⟩ | m = j+i, n = k+i,
                                            i ∈ 0 .. sizeof(τ)-1 }

Because of Complications 2 and 3, resolve conceptually pairs *every byte*
of the copied window.  Materializing ``sizeof(τ)`` pairs eagerly would be
wasteful; instead :meth:`Offsets.resolve` returns a
:class:`~repro.core.strategy.Window`, which the engine matches lazily
against the facts that actually exist at source offsets — an exact
implementation of the same function (the fixpoint re-examines the window
whenever a new source fact appears).

Per the paper's footnotes 4 and 6, offsets landing inside arrays are folded
into the representative element (:meth:`Layout.canonical_offset`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..ctype.layout import LayoutError
from ..ctype.types import CType, StructType
from ..ir.objects import AbstractObject
from ..ir.refs import FieldRef, OffsetRef, Ref
from .strategy import CallInfo, ResolveResult, Strategy, Window

__all__ = ["Offsets"]


class Offsets(Strategy):
    """Byte-offset analysis under one concrete layout (non-portable)."""

    name = "Offsets"
    key = "offsets"
    portable = False

    def __init__(self, layout=None) -> None:
        super().__init__(layout)
        # canon_offset_ref is called once per (window, delta-batch) in the
        # engine's drain loop; memoize per (object, offset).  Values pin
        # the object because keys use id(obj).
        self._canon_cache: dict = self.memo_table("canon_offset")

    # ------------------------------------------------------------------
    def normalize(self, ref: FieldRef) -> Ref:
        try:
            off = self.layout.offsetof(ref.obj.type, ref.path)
        except (LayoutError, KeyError):
            off = 0
        return self.canon_ref(
            OffsetRef(ref.obj, self.layout.canonical_offset(ref.obj.type, off))
        )

    # ------------------------------------------------------------------
    def lookup(
        self, tau: CType, alpha: Sequence[str], target: Ref
    ) -> Tuple[List[Ref], CallInfo]:
        assert isinstance(target, OffsetRef)
        info = CallInfo(
            involved_struct=isinstance(tau, StructType)
            or isinstance(target.obj.type, StructType),
            mismatch=False,  # Offsets never tests types (paper §5).
        )
        try:
            n = target.offset + self.layout.offsetof(tau, alpha)
        except (LayoutError, KeyError):
            return [], info
        ref = self.canon_offset_ref(OffsetRef(target.obj, n))
        return ([ref] if ref is not None else []), info

    # ------------------------------------------------------------------
    def resolve(
        self, dst: Ref, src: Ref, tau: CType
    ) -> Tuple[ResolveResult, CallInfo]:
        assert isinstance(dst, OffsetRef) and isinstance(src, OffsetRef)
        info = CallInfo(
            involved_struct=isinstance(tau, StructType)
            or isinstance(dst.obj.type, StructType)
            or isinstance(src.obj.type, StructType),
            mismatch=False,
        )
        try:
            size = self.layout.sizeof(tau)
        except LayoutError:
            size = 1
        return Window(dst=dst, src=src, size=max(size, 1)), info

    # ------------------------------------------------------------------
    def canon_offset_ref(self, ref: OffsetRef) -> Optional[OffsetRef]:
        """Memoized canonicalization; see :meth:`_canon_offset_ref_uncached`."""
        key = (id(ref.obj), ref.offset)
        hit = self._canon_cache.get(key)
        if hit is None:
            hit = (ref.obj, self._canon_offset_ref_uncached(ref))
            self._canon_cache[key] = hit
        return hit[1]

    def _canon_offset_ref_uncached(self, ref: OffsetRef) -> Optional[OffsetRef]:
        """Canonicalize an offset reference; ``None`` when out of bounds.

        Folds array offsets to the representative element and drops
        references beyond the outermost object's storage (an access there
        is undefined behaviour, and — per the paper's model — offsets are
        always taken within the outermost containing object).

        Heap objects are *open-ended*: their declared type is only the
        best-known view of the block (e.g. the generic header a custom
        allocator returns), and the actual allocation may be larger — the
        ``p = (struct variant *)alloc_node(size)`` idiom.  Offsets beyond
        the view keep their raw value instead of being dropped.
        """
        t = ref.obj.type
        if ref.offset < 0:
            return None
        if not ref.obj.is_heap:
            try:
                limit = max(self.layout.sizeof(t), 1)
            except LayoutError:
                limit = None
            if limit is not None and ref.offset >= limit:
                return None
        return self.canon_ref(OffsetRef(ref.obj, self.layout.canonical_offset(t, ref.offset)))

    # ------------------------------------------------------------------
    def describe_call(self, call) -> str:
        base = super().describe_call(call)
        if call.kind == "lookup":
            why = (
                "byte-offset arithmetic n = k + offsetof(τ, α) under the "
                "configured layout; array offsets fold to the "
                "representative element (§4.2.2, non-portable)"
            )
        else:
            why = (
                "a sizeof(τ)-byte window pairing every byte of the copy, "
                "matched lazily against extant source facts (§4.2.2)"
            )
        return f"{base} — {why}"

    # ------------------------------------------------------------------
    def all_refs(self, obj: AbstractObject) -> List[Ref]:
        try:
            offs = self.layout.subfield_offsets(obj.type)
        except LayoutError:
            offs = [0]
        return [self.canon_ref(OffsetRef(obj, o)) for o in offs]
