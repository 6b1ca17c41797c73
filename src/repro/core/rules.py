"""Figure-2 rule installation: one function per paper inference rule.

The paper states pointer analysis as five inference rules over the
assignment forms (Figure 2), each parameterized by the tunable
``normalize`` / ``lookup`` / ``resolve``.  This module is the *semi-
naive compilation* of those rules: :func:`setup_stmt` is called once
per statement and installs the rule as persistent structure in the
:class:`~repro.core.graph.ConstraintGraph` —

- **Rule 1** (``s = (τ) &t.β``) fires immediately, seeding one fact.
- **Rule 3** (``s = (τ) t.β``) fires immediately: one ``resolve`` call
  whose result (pair list or window) is installed as copy edges.
- **Rules 2/4/5** have a ``pointsTo(p̂, …)`` premise, so they install a
  *subscription* on the pointer's normalized ref; the closure runs once
  per distinct pointee, performs the ``lookup``/``resolve``, and
  installs the consequences.  The drain loops in
  :mod:`repro.core.worklist` (traced and untraced alike) re-enter these
  same closures — the rule logic exists exactly once.  A closure
  receives the engine as its first argument from whichever drain
  delivers the pointee and never captures it: the graph holds the
  closures, so a captured engine would make a reference cycle that only
  the cyclic collector could free.  Each such
  subscription additionally carries a *descriptor* — a small tuple
  naming the rule case and its closure-fixed operands — that the
  specialized drains (:mod:`repro.core.codegen`, the numpy backend's
  fused rounds) use to dispatch the untraced fast path inline instead
  of through the closure.  Descriptor dispatch must stay behaviorally
  identical to the closure's ``eng.tracer is None`` branch; the traced
  branch never runs under a specialized drain (tracing forces the
  bigint backend, which always calls the closure).
- **Pointer arithmetic** implements Assumption 1 (§4.2.1): the result
  may point to any sub-field of the pointee's outermost object (or the
  ``Unknown`` value in pessimistic mode).
- **Calls** bind the context-insensitive interprocedural layer
  (parameter/return ``resolve`` copies, function pointers via a
  subscription on the callee, library summaries — §3 "implemented ...
  context-insensitively").

Each function takes the :class:`~repro.core.engine.Engine` because the
rules' side effects are exactly the engine's narrow services: the
instrumented strategy calls (``_lookup``/``_resolve`` — Figure-3
counters), fact/edge/window installation on the graph, and provenance
contexts when tracing.  The functions hold no state of their own —
given the same graph, strategy, and statement they install the same
structure, which is why traced/untraced and incremental/from-scratch
solves agree.
"""

from __future__ import annotations

from ..ir.objects import AbstractObject, ObjKind
from ..ir.refs import OffsetRef, Ref
from ..ir.stmts import (
    AddrOf,
    Call,
    Copy,
    FieldAddr,
    Load,
    PtrArith,
    Stmt,
    Store,
    declared_pointee,
)

__all__ = [
    "setup_stmt",
    "setup_addrof",
    "setup_fieldaddr",
    "setup_copy",
    "setup_load",
    "setup_store",
    "setup_ptr_arith",
    "setup_call",
    "bind_call",
    "is_object_start",
]


def setup_addrof(eng, st: AddrOf) -> None:
    """Rule 1: ``s = (τ) &t.β`` — seed ``pointsTo(ŝ, t.β̂)``."""
    eng.stats.rule1_firings += 1
    if eng.tracer is not None:
        eng._ctx = eng.tracer.new_ctx(1, st)
    eng.add_fact(eng.norm_obj(st.lhs), eng.norm_ref(st.target))
    eng._ctx = 0


def setup_fieldaddr(eng, st: FieldAddr) -> None:
    """Rule 2: ``s = (τ) &((*p).α)`` — ``lookup`` per pointee of p."""
    tau_p = declared_pointee(st.ptr)
    ptr_ref = eng.norm_obj(st.ptr)
    lhs_id = eng.facts.intern(eng.norm_obj(st.lhs))
    ptr_id = eng.facts.intern(ptr_ref)
    pkey = eng._fused_key("L", tau_p, st.path, None)

    def on_pointee(
        eng, tgt: Ref, tau_p=tau_p, path=st.path, lhs_id=lhs_id,
        ptr_id=ptr_id, pkey=pkey, st=st,
    ) -> None:
        eng.stats.rule2_firings += 1
        if eng.tracer is None:
            # Untraced: one fused memo probe covers the lookup and the
            # batched bitset union (identical facts and counters; see
            # Engine._lookup_add_bits).
            eng._lookup_add_bits(lhs_id, pkey, tau_p, path, tgt)
            return
        intern = eng.facts.intern
        add = eng._add_fact_ids
        eng._ctx = eng.tracer.new_ctx(
            2, st, ((ptr_id, intern(tgt)),)
        )
        for r in eng._lookup(tau_p, path, tgt):
            add(lhs_id, intern(r))
        eng._ctx = 0

    eng.subscribe(ptr_ref, on_pointee, (2, lhs_id, pkey, tau_p, st.path))


def setup_copy(eng, st: Copy) -> None:
    """Rule 3: ``s = (τ) t.β`` — sizeof(typeof(s)) bytes are copied."""
    eng.stats.rule3_firings += 1
    if eng.tracer is None:
        eng._resolve_install_once(
            eng.norm_obj(st.lhs), eng.norm_ref(st.rhs), st.lhs.type
        )
        return
    eng._ctx = eng.tracer.new_ctx(3, st)
    res = eng._resolve(eng.norm_obj(st.lhs), eng.norm_ref(st.rhs), st.lhs.type)
    eng.install_resolve_result(res)
    eng._ctx = 0


def setup_load(eng, st: Load) -> None:
    """Rule 4: ``s = (τ) *q`` — ``resolve`` per pointee of q."""
    lhs_ref = eng.norm_obj(st.lhs)
    lhs_type = st.lhs.type
    ptr_ref = eng.norm_obj(st.ptr)
    ptr_id = eng.facts.intern(ptr_ref)
    pkey = eng._fused_key("Rd", lhs_type, id(lhs_ref), lhs_ref)

    def on_pointee(
        eng, tgt: Ref, lhs_ref=lhs_ref, lhs_type=lhs_type,
        ptr_id=ptr_id, pkey=pkey, st=st,
    ) -> None:
        eng.stats.rule4_firings += 1
        if eng.tracer is None:
            eng._resolve_install(pkey, lhs_ref, tgt, lhs_type, tgt)
            return
        eng._ctx = eng.tracer.new_ctx(
            4, st, ((ptr_id, eng.facts.intern(tgt)),)
        )
        eng.install_resolve_result(eng._resolve(lhs_ref, tgt, lhs_type))
        eng._ctx = 0

    eng.subscribe(ptr_ref, on_pointee, (4, pkey, lhs_ref, lhs_type))


def setup_store(eng, st: Store) -> None:
    """Rule 5: ``*p = (τ_p) t`` — the type p is declared to point to
    determines how many bytes are copied (Complication 4)."""
    tau_p = declared_pointee(st.ptr)
    rhs_ref = eng.norm_obj(st.rhs)
    ptr_ref = eng.norm_obj(st.ptr)
    ptr_id = eng.facts.intern(ptr_ref)
    pkey = eng._fused_key("Rs", tau_p, id(rhs_ref), rhs_ref)

    def on_pointee(
        eng, tgt: Ref, tau_p=tau_p, rhs_ref=rhs_ref, ptr_id=ptr_id,
        pkey=pkey, st=st,
    ) -> None:
        eng.stats.rule5_firings += 1
        if eng.tracer is None:
            eng._resolve_install(pkey, tgt, rhs_ref, tau_p, tgt)
            return
        eng._ctx = eng.tracer.new_ctx(
            5, st, ((ptr_id, eng.facts.intern(tgt)),)
        )
        eng.install_resolve_result(eng._resolve(tgt, rhs_ref, tau_p))
        eng._ctx = 0

    eng.subscribe(ptr_ref, on_pointee, (5, pkey, rhs_ref, tau_p))


def setup_ptr_arith(eng, st: PtrArith) -> None:
    """Assumption 1 (§4.2.1): the result may point to any sub-field of
    the outermost object containing a pointee of any operand (or, for
    refining strategies, a narrower ``arith_refs`` set).  In pessimistic
    mode the result is the special ``Unknown`` value instead."""
    lhs_id = eng.facts.intern(eng.norm_obj(st.lhs))
    for op in st.operands:
        op_ref = eng.norm_obj(op)
        op_id = eng.facts.intern(op_ref)

        def on_pointee(
            eng, tgt: Ref, lhs_id=lhs_id, op_id=op_id, st=st,
        ) -> None:
            intern = eng.facts.intern
            add = eng._add_fact_ids
            if eng.tracer is not None:
                eng._ctx = eng.tracer.new_ctx(
                    0, st, ((op_id, intern(tgt)),),
                    label="assumption-1 (pointer arithmetic)",
                )
            if not eng.assume_valid_pointers:
                add(lhs_id, intern(eng.unknown_ref()))
                eng._ctx = 0
                return
            if eng.tracer is None:
                # arith_refs is memoized per outermost object — batched
                # bitset union, same facts and counters.
                eng._add_refs_bits(lhs_id, eng.strategy.arith_refs(tgt))
                return
            for r in eng.strategy.arith_refs(tgt):
                add(lhs_id, intern(r))
            eng._ctx = 0

        # Descriptor only in optimistic mode: the pessimistic branch
        # (Unknown) is rare and stays a closure call.
        eng.subscribe(
            op_ref, on_pointee,
            (6, lhs_id) if eng.assume_valid_pointers else None,
        )


def setup_call(eng, st: Call) -> None:
    """Calls: direct binding, or a subscription on the function pointer
    that binds each function object it may point to (at offset 0)."""
    if st.indirect:
        def on_pointee(eng, tgt: Ref, st=st) -> None:
            if tgt.obj.kind is ObjKind.FUNCTION and is_object_start(tgt):
                bind_call(eng, st, tgt.obj)

        eng.subscribe(eng.norm_obj(st.callee), on_pointee)
    else:
        bind_call(eng, st, st.callee)


def is_object_start(ref: Ref) -> bool:
    """Does ``ref`` name the start of its object (a callable address)?"""
    if isinstance(ref, OffsetRef):
        return ref.offset == 0
    return ref.path == ()


def bind_call(eng, call: Call, fobj: AbstractObject) -> None:
    """Context-insensitive call binding: parameter/return copies as
    rule-3 ``resolve`` calls, a vararg sink, or a library summary for
    functions without a body.  Each (call site, callee) pair binds once."""
    key = (id(call), fobj)
    if key in eng._bound:
        return
    eng._bound.add(key)
    eng.stats.calls_bound += 1
    tracer = eng.tracer
    info = eng.program.function_for_object(fobj)
    if info is None:
        if tracer is not None:
            eng._ctx = tracer.new_ctx(
                0, call, label=f"summary:{fobj.name}"
            )
        eng.summaries.apply(eng, call, fobj.name)
        eng._ctx = 0
        return
    for i, arg in enumerate(call.args):
        if i < len(info.params):
            param = info.params[i]
            if tracer is None:
                eng._resolve_install_once(
                    eng.norm_obj(param), eng.norm_obj(arg), param.type
                )
                continue
            eng._ctx = tracer.new_ctx(
                0, call, label=f"rule 3 (parameter copy: {param.name})"
            )
            res = eng._resolve(eng.norm_obj(param), eng.norm_obj(arg), param.type)
            eng.install_resolve_result(res)
        elif info.vararg is not None:
            if tracer is not None:
                eng._ctx = tracer.new_ctx(
                    0, call, label="rule 3 (vararg sink copy)"
                )
            eng.install_copy_edge(eng.norm_obj(arg), eng.norm_obj(info.vararg))
    if call.lhs is not None and info.retval is not None:
        if tracer is None:
            eng._resolve_install_once(
                eng.norm_obj(call.lhs), eng.norm_obj(info.retval),
                call.lhs.type,
            )
        else:
            eng._ctx = tracer.new_ctx(
                0, call, label="rule 3 (return copy)"
            )
            res = eng._resolve(
                eng.norm_obj(call.lhs), eng.norm_obj(info.retval),
                call.lhs.type,
            )
            eng.install_resolve_result(res)
    eng._ctx = 0


#: Statement class -> rule installer.  ``setup_stmt`` dispatches through
#: this table; exact-type dispatch is safe because the IR statement
#: classes are final (``dataclass(slots=True)``, never subclassed).
_DISPATCH = {
    AddrOf: setup_addrof,
    FieldAddr: setup_fieldaddr,
    Copy: setup_copy,
    Load: setup_load,
    Store: setup_store,
    PtrArith: setup_ptr_arith,
    Call: setup_call,
}


def setup_stmt(eng, st: Stmt) -> None:
    """Install one statement's rule (dispatch on the assignment form)."""
    handler = _DISPATCH.get(type(st))
    if handler is None:  # pragma: no cover - defensive
        raise TypeError(f"unknown statement {st!r}")
    handler(eng, st)
