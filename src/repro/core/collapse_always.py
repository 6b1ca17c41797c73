"""The "Collapse Always" instance (paper §4.3.1).

The most general and least precise portable strategy: every structure is a
single variable, so every read or write of a field is a read or write of
the whole object.  The paper's definitions:

.. code-block:: text

    normalize(s.α)          = s
    lookup(τ, α, t.β̂)       = { t }
    resolve(s.α̂, t.β̂, τ)    = { ⟨s, t⟩ }

A points-to fact ``pointsTo(s, t)`` is read as "any field of ``s`` may
point to any field of ``t``"; for the Figure 4 comparison the engine
expands such a fact to one fact per field of ``t`` via
:meth:`target_weight`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..ctype.types import CType, StructType
from ..ir.objects import AbstractObject
from ..ir.refs import FieldRef, Ref
from .fieldpaths import leaf_count
from .strategy import CallInfo, ResolveResult, Strategy

__all__ = ["CollapseAlways"]


class CollapseAlways(Strategy):
    """Collapse every structure into a single variable."""

    name = "Collapse Always"
    key = "collapse_always"
    portable = True

    def __init__(self, layout=None) -> None:
        super().__init__(layout)
        # Every ref of an object collapses to the same whole-object ref;
        # cache it per object (keys use id(obj), values pin the object).
        self._whole_cache: dict = self.memo_table("whole")

    def _whole(self, obj: AbstractObject) -> FieldRef:
        hit = self._whole_cache.get(id(obj))
        if hit is None:
            hit = (obj, self.canon_ref(FieldRef(obj, ())))
            self._whole_cache[id(obj)] = hit
        return hit[1]

    def normalize(self, ref: FieldRef) -> Ref:
        return self._whole(ref.obj)

    def lookup(
        self, tau: CType, alpha: Sequence[str], target: Ref
    ) -> Tuple[List[Ref], CallInfo]:
        info = CallInfo(
            involved_struct=isinstance(tau, StructType)
            or isinstance(target.obj.type, StructType),
            mismatch=False,  # Collapse Always never tests types (paper §5).
        )
        return [self._whole(target.obj)], info

    def resolve(
        self, dst: Ref, src: Ref, tau: CType
    ) -> Tuple[ResolveResult, CallInfo]:
        info = CallInfo(
            involved_struct=isinstance(tau, StructType)
            or isinstance(dst.obj.type, StructType)
            or isinstance(src.obj.type, StructType),
            mismatch=False,
        )
        pair = (self._whole(dst.obj), self._whole(src.obj))
        return [pair], info

    def all_refs(self, obj: AbstractObject) -> List[Ref]:
        return [self._whole(obj)]

    def describe_call(self, call) -> str:
        base = super().describe_call(call)
        if call.kind == "lookup":
            why = "every structure is one variable, so the dereference touches the whole target object (§4.3.1)"
        else:
            why = "a copy transfers between the whole collapsed objects (§4.3.1)"
        return f"{base} — {why}"

    def target_weight(self, ref: Ref) -> int:
        return leaf_count(ref.obj.type)
