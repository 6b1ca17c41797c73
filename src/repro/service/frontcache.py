"""The server's front-end cache: each source text is parsed once.

A session's program — the normalized statements of §4.2 — depends only
on the create request's source text (or ordered translation units), its
``name`` and its front-end mode, never on the strategy.  The
:class:`FrontendCache` of one :class:`~repro.service.app.ServiceApp`
keeps, per SHA-256 of exactly those inputs, the pickled and
zlib-compressed ``(Program, DiagnosticSink)`` pair of the first front-end
run; a later create of the same input unpickles a private copy instead of
running pycparser and the normalizer again.  Compression (level 1) keeps
about a fifth of the pickled bytes and costs about a tenth of an
unpickle.

Properties the service relies on:

- **private copies** — the cache holds ``bytes`` only, never a live
  ``Program``: every hit unpickles a fresh object graph, so a delta on
  one session reaches neither its siblings nor the cache, and a deleted
  session's program dies by reference counting;
- **bounded** — least-recently-used entries are evicted once the stored
  (compressed) bytes exceed ``max_bytes`` (the app passes
  ``byte_budget // 8``); one entry larger than the bound is not kept;
- **in memory only** — the cache reads back only what this process
  pickled.  Loading pickles from a directory would let anyone who can
  write to that directory run code in the server, so nothing here is
  written to or read from disk, and nothing comes from request data.

Inputs the front end rejects (a ``FrontendError`` or a fatal diagnostic)
are never stored: the caller stores a program only after those checks.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import pickle
import threading
import zlib
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from ..diag import DiagnosticSink
from ..ir.program import Program
from ..ir.refs import FieldRef, OffsetRef

__all__ = ["FrontendCache", "frontend_key"]


def frontend_key(
    name: str,
    strict: bool,
    source: Optional[str] = None,
    files: Optional[Sequence[Tuple[str, str]]] = None,
) -> bytes:
    """SHA-256 over everything that decides the front end's output.

    A ``source`` create and a ``files`` create never share a key (a
    one-file ``files`` create names its program after the file, not
    ``name``).  JSON with escaped non-ASCII keeps the encoding
    unambiguous and total, lone surrogates included.
    """
    if files is not None:
        doc = ["files", name, strict, list(files)]
    else:
        doc = ["source", name, strict, source]
    return hashlib.sha256(json.dumps(doc).encode("ascii")).digest()


class _Pickler(pickle.Pickler):
    """Pickles refs by ``(obj, path|offset)`` alone.

    A ref caches its hash, computed from ``id(obj)``, and its fact-base
    interning slots; carried into a copy whose objects live at other
    addresses, the cached hash would stop matching a freshly built equal
    ref.  Leaving the caches out makes each copy compute its own.
    """

    dispatch_table = copyreg.dispatch_table.copy()
    dispatch_table[FieldRef] = lambda r: (FieldRef, (r.obj, r.path))
    dispatch_table[OffsetRef] = lambda r: (OffsetRef, (r.obj, r.offset))


class FrontendCache:
    """An LRU of compressed pickles of ``(Program, DiagnosticSink)``
    pairs, bounded in bytes; safe to share between request threads."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: bytes) -> Optional[Tuple[Program, DiagnosticSink]]:
        """A private copy of the pair stored under ``key``, or ``None``
        (counted as a miss: the caller runs the front end)."""
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return pickle.loads(zlib.decompress(data))

    def put(self, key: bytes, program: Program, sink: DiagnosticSink) -> None:
        """Store a fresh front-end run, before anything mutates it.

        The pair is pickled together so that ``program.diagnostics``
        stays the sink's own record list in every copy.
        """
        buf = io.BytesIO()
        _Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump((program, sink))
        data = zlib.compress(buf.getbuffer(), 1)
        if len(data) > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:         # a concurrent miss stored it first
                self._bytes -= len(old)
            self._entries[key] = data
            self._bytes += len(data)
            while self._bytes > self.max_bytes:
                _, dropped = self._entries.popitem(last=False)
                self._bytes -= len(dropped)
                self.evictions += 1

    def counters(self) -> Dict[str, int]:
        """The ``server.frontend_cache`` record of ``GET /metrics``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "evictions": self.evictions,
            }
