"""Content-addressed on-disk result store.

:class:`ResultStore` persists solved points-to fixpoints under a key
that is a SHA-256 hash of everything that determines the fixpoint —
and *nothing* that does not:

- the normalized program: the object table (names, kinds, and
  structurally expanded types — struct/union member lists are rendered
  explicitly because ``repr(StructType)`` is deliberately field-blind
  for cycle safety), the interprocedural wiring of every defined
  function, and every normalized statement repr;
- the field-sensitivity strategy (registry key);
- the ABI (``strategy.layout.abi.name`` — field offsets differ);
- strict vs. lenient front-end mode (lenient runs may add havoc
  objects and statements — already visible in the program text, but
  the flag also selects degraded-construct semantics);
- Assumption 1 (``assume_valid_pointers`` — pessimistic mode derives
  extra ``<unknown>`` facts).

The propagation **backend** and **worklist policy** are deliberately
excluded from the key: every backend reaches the identical least
fixpoint (the backends CI matrix gates this byte-for-byte), so a result
solved under one backend is the correct answer under all of them.

Robustness contract: loading never raises on bad *data*.  Any
unreadable, truncated, version-skewed, schema-broken, or
program-mismatched entry degrades to a miss plus a WARNING diagnostic
(kind ``store-corrupt``); the caller re-solves and overwrites the entry.
Only the data errors such an entry can provoke are caught
(:data:`_CORRUPT`) — a programming error in the load path propagates
instead of masquerading as corruption.  ``put`` likewise warns
(kind ``store-write-failed``) instead of raising on I/O errors — the
store is a cache, never a correctness dependency.

Facts are serialized as a table of distinct ref specs —
``("F", object-name, field-path)`` / ``("O", object-name, byte-offset)``
— plus index-pair edges over that table, so an entry written by one
process rebuilds on a *fresh parse* of the same source in another
process: object names are the join key, identity is re-established through
``program.objects.lookup``, and each distinct ref is resolved exactly
once regardless of how many edges mention it.  Stored refs are the
strategy's own canonical refs, so a load only re-interns them
(:meth:`~repro.core.strategy.Strategy.canon_ref`); it never
re-normalizes them.

Results containing engine-invented objects that live outside the
program's object table (the pessimistic ``<unknown>`` sink) cannot be
rebuilt by name and are declined at ``put`` time — never stored, so
never wrongly replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.facts import FactBase
from ..core.result import Result
from ..core.stats import EngineStats
from ..core.strategy import Strategy
from ..ctype.types import ArrayType, FunctionType, PointerType, StructType
from ..diag import Diagnostic, DiagnosticSink, Severity
from ..ir.program import Program
from ..ir.refs import FieldRef, OffsetRef, Ref

__all__ = ["ResultStore", "StoredResult", "store_key"]

#: Bump whenever the payload schema or the key text changes shape; a
#: version-skewed entry is a miss, never a parse attempt.
STORE_VERSION = 1

#: What a corrupt entry can raise while being read and rebuilt (JSON and
#: UTF-8 decoding errors are ``ValueError`` subclasses).  Anything else
#: out of :meth:`ResultStore.load` is a bug and propagates.
_CORRUPT = (OSError, ValueError, KeyError, TypeError, IndexError)


# ----------------------------------------------------------------------
# Canonical type rendering.
#
# ``repr`` on struct/union types prints only ``struct tag`` (field-blind
# by design: reprs must not recurse through self-referential members).
# The store key must distinguish same-tag structs with different member
# lists, so structs are expanded structurally here, with an id-based
# guard that renders back-references as the bare tag.
# ----------------------------------------------------------------------
def _type_text(t, seen: Tuple[int, ...] = ()) -> str:
    if isinstance(t, StructType):  # covers UnionType
        if id(t) in seen:
            return repr(t)
        if t.fields is None:
            return f"{t!r}<incomplete>"
        seen = seen + (id(t),)
        members = ";".join(
            f"{f.name}:{_type_text(f.type, seen)}"
            + (f":{f.bit_width}" if f.bit_width is not None else "")
            for f in t.fields
        )
        return f"{t!r}{{{members}}}"
    if isinstance(t, PointerType):
        return f"{_type_text(t.pointee, seen)}*"
    if isinstance(t, ArrayType):
        return f"{_type_text(t.elem, seen)}[{t.length}]"
    if isinstance(t, FunctionType):
        ps = ", ".join(_type_text(p, seen) for p in t.params)
        if t.varargs:
            ps = f"{ps}, ..." if ps else "..."
        return f"{_type_text(t.ret, seen)}({ps})"
    return repr(t)


def _program_text(
    program: Program,
    strategy: Strategy,
    *,
    strict: bool,
    assume_valid_pointers: bool,
) -> str:
    """The canonical text whose SHA-256 is the store key."""
    lines = [
        f"repro-store {STORE_VERSION}",
        f"strategy {strategy.key}",
        f"abi {strategy.layout.abi.name}",
        f"strict {int(strict)}",
        f"assume_valid_pointers {int(assume_valid_pointers)}",
    ]
    # Hundreds of objects share a handful of type instances; render each
    # once (the expansion is deterministic, so the memo cannot drift).
    type_text: Dict[int, str] = {}
    for obj in sorted(program.objects.all_objects(), key=lambda o: o.name):
        tt = type_text.get(id(obj.type))
        if tt is None:
            tt = type_text[id(obj.type)] = _type_text(obj.type)
        lines.append(f"object {obj.name} {obj.kind.value} {tt}")
    for name in sorted(program.functions):
        info = program.functions[name]
        params = ",".join(p.name for p in info.params)
        retval = info.retval.name if info.retval is not None else "-"
        vararg = info.vararg.name if info.vararg is not None else "-"
        lines.append(f"function {name} params={params} ret={retval} va={vararg}")
    for st in program.global_stmts:
        lines.append(f"global {st!r}")
    for name in sorted(program.functions):
        for st in program.functions[name].stmts:
            lines.append(f"stmt {name} {st!r}")
    return "\n".join(lines) + "\n"


def store_key(
    program: Program,
    strategy: Strategy,
    *,
    strict: bool = True,
    assume_valid_pointers: bool = True,
) -> str:
    """Content hash of (program, strategy, ABI, strict, Assumption 1)."""
    text = _program_text(
        program, strategy, strict=strict,
        assume_valid_pointers=assume_valid_pointers,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Fact (de)serialization — ref specs, JSON-shaped.
# ----------------------------------------------------------------------
def _spec_of(ref: Ref) -> Optional[List]:
    if isinstance(ref, FieldRef):
        return ["F", ref.obj.name, list(ref.path)]
    if isinstance(ref, OffsetRef):
        return ["O", ref.obj.name, ref.offset]
    return None


def _ref_of_spec(spec, program: Program) -> Optional[Ref]:
    kind, name, extra = spec
    obj = program.objects.lookup(name)
    if obj is None:
        return None
    if kind == "F" and isinstance(extra, list):
        return FieldRef(obj, tuple(extra))
    if kind == "O" and type(extra) is int:
        return OffsetRef(obj, extra)
    return None


def _stats_of(raw) -> EngineStats:
    if not isinstance(raw, dict):
        raise ValueError("stats is not an object")
    stats = EngineStats.from_dict(raw)
    for name, value in stats.as_dict().items():
        if name == "backend":
            if not isinstance(value, str):
                raise ValueError(f"stats.backend is not a string: {value!r}")
        elif type(value) not in (int, float):
            raise ValueError(f"stats.{name} is not a number: {value!r}")
    return stats


class StoredResult:
    """A warm-started :class:`~repro.core.result.Result` and its key."""

    def __init__(self, key: str, result: Result) -> None:
        self.key = key
        self.result = result


class ResultStore:
    """On-disk content-addressed store of solved fixpoints.

    One JSON file per key under ``root``; writes are atomic
    (temp file + ``os.replace``), loads are corruption-safe.
    ``hits``/``misses`` count this store object's lookups; the session
    mirrors them into :class:`~repro.core.stats.EngineStats`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        diagnostics: Optional[DiagnosticSink] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.diagnostics = diagnostics
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _warn(self, kind: str, message: str,
              diagnostics: Optional[DiagnosticSink]) -> None:
        # NOT `diagnostics or ...`: an empty DiagnosticSink is falsy.
        sink = diagnostics if diagnostics is not None else self.diagnostics
        if sink is not None:
            sink.emit(Diagnostic(
                kind=kind, message=message,
                severity=Severity.WARNING, phase="analyze",
            ))

    # ------------------------------------------------------------------
    def put(
        self,
        program: Program,
        result: Result,
        *,
        strict: bool = True,
        assume_valid_pointers: bool = True,
        diagnostics: Optional[DiagnosticSink] = None,
        key: Optional[str] = None,
    ) -> Optional[str]:
        """Persist ``result``; returns the key, or ``None`` if declined.

        ``key``, when given, must be :func:`store_key` of the same
        arguments — a caller that already hashed this program version
        (the session does, once per strategy) passes it to skip the
        rehash.

        Declines (without warning — it is expected, not an error) when
        the fact set references objects outside the program's object
        table (the pessimistic ``<unknown>`` sink): those cannot be
        rebuilt by name in another process.  Warns (kind
        ``store-write-failed``) and returns ``None`` on I/O failure.
        """
        # Facts are stored as a table of distinct ref specs plus index
        # pairs: each distinct ref is resolved exactly once on load, so
        # rebuild cost tracks distinct refs, not edges.
        refs: List[List] = []
        index: Dict[Ref, int] = {}

        def _index_of(ref: Ref) -> Optional[int]:
            i = index.get(ref)
            if i is None:
                spec = _spec_of(ref)
                if spec is None:
                    return None
                if program.objects.lookup(spec[1]) is not ref.obj:
                    return None
                i = index[ref] = len(refs)
                refs.append(spec)
            return i

        grouped: Dict[int, List[int]] = {}
        for src, dst in result.facts.all_facts():
            s, d = _index_of(src), _index_of(dst)
            if s is None or d is None:
                return None
            grouped.setdefault(s, []).append(d)
        adjacency = [[s, sorted(ds)] for s, ds in sorted(grouped.items())]
        if key is None:
            key = store_key(
                program, result.strategy, strict=strict,
                assume_valid_pointers=assume_valid_pointers,
            )
        payload = {
            "version": STORE_VERSION,
            "key": key,
            "program": program.name,
            "strategy": result.strategy.key,
            "abi": result.strategy.layout.abi.name,
            "strict": bool(strict),
            "assume_valid_pointers": bool(assume_valid_pointers),
            "refs": refs,
            "adjacency": adjacency,
            "stats": result.stats.as_dict(),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as err:
            self._warn("store-write-failed",
                       f"could not persist result {key[:12]}…: {err}",
                       diagnostics)
            return None
        return key

    # ------------------------------------------------------------------
    def load(
        self,
        program: Program,
        strategy: Strategy,
        *,
        strict: bool = True,
        assume_valid_pointers: bool = True,
        diagnostics: Optional[DiagnosticSink] = None,
        key: Optional[str] = None,
    ) -> Optional[StoredResult]:
        """Look up the fixpoint for (program, strategy, …); ``None`` on miss.

        Corrupted or truncated entries degrade to a miss with a WARNING
        diagnostic (kind ``store-corrupt``).  ``key`` is a precomputed
        :func:`store_key`, as for :meth:`put`.
        """
        if key is None:
            key = store_key(
                program, strategy, strict=strict,
                assume_valid_pointers=assume_valid_pointers,
            )
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            if payload.get("version") != STORE_VERSION:
                raise ValueError(f"version skew: {payload.get('version')!r}")
            for field, want in (
                ("key", key), ("strategy", strategy.key),
                ("abi", strategy.layout.abi.name), ("strict", bool(strict)),
                ("assume_valid_pointers", bool(assume_valid_pointers)),
            ):
                if payload.get(field) != want:
                    raise ValueError(
                        f"{field} mismatch: {payload.get(field)!r} != {want!r}")
            facts = FactBase()
            # Rebuild the distinct-ref table once, then replay per-source
            # adjacency with whole-bitset unions: rebuild cost tracks
            # distinct refs plus one byte op per edge, not one interning
            # round-trip per edge — the difference between a warm start
            # beating the solve and losing to it on dense programs.
            refs: List[Ref] = []
            for spec in payload["refs"]:
                ref = _ref_of_spec(spec, program)
                if ref is None:
                    raise ValueError(f"unresolvable ref spec {spec!r}")
                refs.append(strategy.canon_ref(ref))
            n = len(refs)
            ids = [facts.intern(r) for r in refs]
            # On a fresh fact base of distinct refs the interned IDs are
            # dense table indices, so a destination list becomes a
            # bitset directly; a tampered entry with duplicate refs falls
            # back to per-edge adds.
            dense = ids == list(range(n))
            for entry in payload["adjacency"]:
                src_i, dsts = entry
                if not 0 <= src_i < n:
                    raise ValueError(f"source index out of range: {src_i!r}")
                if dense:
                    bits = bytearray((n + 7) // 8)
                    for d in dsts:
                        if not 0 <= d < n:
                            raise ValueError(
                                f"target index out of range: {d!r}")
                        bits[d >> 3] |= 1 << (d & 7)
                    facts.add_bits(ids[src_i], int.from_bytes(bits, "little"))
                else:
                    for d in dsts:
                        if not 0 <= d < n:
                            raise ValueError(
                                f"target index out of range: {d!r}")
                        facts.add_id(ids[src_i], ids[d])
            stats = _stats_of(payload["stats"])
            stats.store_hits = 1
            stats.store_misses = 0
        except _CORRUPT as err:
            self.misses += 1
            self._warn("store-corrupt",
                       f"store entry {path.name} unreadable "
                       f"({type(err).__name__}: {err}); treating as a miss",
                       diagnostics)
            return None
        self.hits += 1
        result = Result(program=program, strategy=strategy,
                        facts=facts, stats=stats)
        return StoredResult(key, result)
