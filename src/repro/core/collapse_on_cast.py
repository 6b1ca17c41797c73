"""The "Collapse on Cast" instance (paper §4.3.2).

Structures are collapsed *only* when accessed as a type different from
their declared type.  ``normalize`` maps every structure object to its
innermost first field; ``lookup`` answers precisely when the dereferenced
pointer's declared type matches the type of an enclosing sub-object, and
otherwise conservatively returns all fields of the target object from the
pointed-to position onward; ``resolve`` pairs fields through ``lookup``.

The paper's definitions (§4.3.2):

.. code-block:: text

    normalize(s.α) = if s.α is a structure object with first field s1
                     then normalize(s.α.s1) else s.α

    lookup(τ, α, t.β̂) =
        if ∃δ such that normalize(t.δ) = t.β̂ and τ_δ = τ
        then { normalize(t.δ.α) }
        else { normalize(t.γ) | γ = β̂ or γ ∈ followingFields(t, β̂) }

    resolve(s.α̂, t.β̂, τ) =
        { ⟨γ, γ'⟩ | δ is a field of τ,
                    γ  ∈ lookup(τ, δ, s.α̂),
                    γ' ∈ lookup(τ, δ, t.β̂) }

Per paper footnote 7, the ``lookup`` calls made from inside ``resolve`` are
not counted by the instrumentation; ``resolve`` therefore goes through the
private ``_lookup``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..ctype.compat import compatible
from ..ctype.types import ArrayType, CType, StructType
from ..ir.objects import AbstractObject
from ..ir.refs import FieldRef, Ref
from .fieldpaths import (
    normalize_path,
    normalized_positions,
    positions_at_or_after,
    prefix_candidates,
)
from .strategy import CallInfo, ResolveResult, Strategy

__all__ = ["CollapseOnCast"]


def _skip_arrays(t: CType) -> CType:
    while isinstance(t, ArrayType):
        t = t.elem
    return t


class CollapseOnCast(Strategy):
    """Collapse a structure only when it is accessed through a cast."""

    name = "Collapse on Cast"
    key = "collapse_on_cast"
    portable = True

    def __init__(self, layout=None) -> None:
        super().__init__(layout)
        # Memo for the private ``_lookup`` (the entry resolve() iterates
        # per field position, uncounted per footnote 7).  Values pin τ
        # because keys use id(τ).
        self._priv_lookup_cache: dict = self.memo_table("priv_lookup")

    # ------------------------------------------------------------------
    def normalize(self, ref: FieldRef) -> Ref:
        return self.canon_ref(FieldRef(ref.obj, normalize_path(ref.obj.type, ref.path)))

    # ------------------------------------------------------------------
    def lookup(
        self, tau: CType, alpha: Sequence[str], target: Ref
    ) -> Tuple[List[Ref], CallInfo]:
        refs, matched = self._lookup(tau, tuple(alpha), target)
        info = CallInfo(
            involved_struct=self._involves_struct(tau, target),
            mismatch=not matched,
        )
        return refs, info

    def _lookup(
        self, tau: CType, alpha: Tuple[str, ...], target: FieldRef
    ) -> Tuple[List[Ref], bool]:
        """Memoized core lookup; results depend only on the arguments
        (plus the fixed layout), never on analysis facts.  Callers must
        not mutate the returned list."""
        key = (id(tau), alpha, id(target))
        hit = self._priv_lookup_cache.get(key)
        if hit is None:
            hit = (tau, target, self._lookup_uncached(tau, alpha, target))
            self._priv_lookup_cache[key] = hit
        return hit[2]

    def _lookup_uncached(
        self, tau: CType, alpha: Tuple[str, ...], target: FieldRef
    ) -> Tuple[List[Ref], bool]:
        """Core lookup; returns (refs, type-matched?).

        The match test "τ_δ = τ" is implemented with ANSI *compatibility*
        rather than object identity, so that structurally identical types
        from different declarations (the cross-translation-unit case the
        paper's footnote 1 motivates) still match.
        """
        obj_type = target.obj.type
        for delta, delta_type in prefix_candidates(obj_type, target.path):
            if compatible(_skip_arrays(delta_type), tau):
                full = delta + alpha
                try:
                    return [
                        self.canon_ref(FieldRef(target.obj, normalize_path(obj_type, full)))
                    ], True
                except (KeyError, TypeError):
                    # α names fields τ has but the candidate lacks (possible
                    # only with exotic compatibility edge cases): fall back
                    # to the conservative branch.
                    break
        refs: List[Ref] = [
            self.canon_ref(FieldRef(target.obj, p))
            for p in positions_at_or_after(obj_type, target.path)
        ]
        return refs, False

    # ------------------------------------------------------------------
    def resolve(
        self, dst: Ref, src: Ref, tau: CType
    ) -> Tuple[ResolveResult, CallInfo]:
        pairs: List[Tuple[Ref, Ref]] = []
        seen = set()
        matched_all = True
        for delta in self._delta_positions(tau):
            dst_refs, dm = self._lookup(tau, delta, dst)
            src_refs, sm = self._lookup(tau, delta, src)
            matched_all = matched_all and dm and sm
            for d in dst_refs:
                for s in src_refs:
                    # _lookup returns canonical instances, so the dedup
                    # can key on identity (int hashes) instead of
                    # re-hashing both refs per pair.
                    key = (id(d), id(s))
                    if key not in seen:
                        seen.add(key)
                        pairs.append((d, s))
        info = CallInfo(
            involved_struct=self._involves_struct(tau, dst)
            or self._involves_struct(tau, src),
            mismatch=not matched_all,
        )
        return pairs, info

    @staticmethod
    def _delta_positions(tau: CType) -> List[Tuple[str, ...]]:
        """The paper's "δ is a field of τ", generalized to nested fields.

        δ ranges over every distinct normalized field position of τ so that
        sub-fields of nested structures are copied too; for scalar τ this
        is just the empty selector (one scalar copy).
        """
        return normalized_positions(tau)

    # ------------------------------------------------------------------
    def all_refs(self, obj: AbstractObject) -> List[Ref]:
        return [self.canon_ref(FieldRef(obj, p)) for p in normalized_positions(obj.type)]

    # ------------------------------------------------------------------
    def describe_call(self, call) -> str:
        base = super().describe_call(call)
        if call.kind == "lookup":
            if call.mismatch:
                why = (
                    "no enclosing sub-object has the declared type — the "
                    "access is through a cast, so the target collapses to "
                    "every field at or after the pointed-to position (§4.3.2)"
                )
            else:
                why = (
                    "the declared type τ matches an enclosing sub-object δ, "
                    "so the field is selected precisely (§4.3.2)"
                )
        else:
            why = (
                "fields are paired per position δ of τ through lookup on "
                "both sides (§4.3.2, footnote 7: inner lookups uncounted)"
            )
        return f"{base} — {why}"

    # ------------------------------------------------------------------
    @staticmethod
    def _involves_struct(tau: CType, ref: Ref) -> bool:
        if isinstance(tau, StructType):
            return True
        t = _skip_arrays(ref.obj.type)
        return isinstance(t, StructType) or bool(getattr(ref, "path", ()))
