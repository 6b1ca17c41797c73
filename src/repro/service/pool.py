"""Multi-tenant session pool: LRU + byte budget + per-session locks.

The server's unit of work is a *cached session* (ROADMAP: most clients
ask a handful of queries against an already-solved program), so the pool
is the heart of the service.  It bounds two resources independently:

- **slots** (``capacity``) — how many live sessions exist at once; and
- **bytes** (``byte_budget``) — the sum of every session's estimated
  footprint (:meth:`repro.session.AnalysisSession.estimated_bytes`),
  re-measured after each solve/delta because solved engines dominate a
  session's weight.

Either limit overflowing evicts least-recently-used sessions (never the
entry that triggered the enforcement) until both hold again, or only the
triggering entry remains — one giant session may legitimately exceed the
byte budget on its own; evicting it for being alone would make the
server useless for that workload.

Concurrency model: the pool's own dict is guarded by one short-lived
mutex; each entry carries an :class:`threading.RLock` that request
handlers hold for the *duration of the work* on that session.  Queries
against one session therefore serialize (an ``AnalysisSession`` mutates
its caches while solving) while distinct sessions proceed in parallel
across the threading server's handler threads.  An evicted entry is only
unlinked from the pool — a handler still holding its lock finishes its
in-flight request safely; later requests get a structured 404.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict
from typing import Dict, List, Optional

from ..ctype.layout import ILP32, LP64, Layout
from ..session import AnalysisSession
from .errors import ServiceError

__all__ = ["PooledSession", "SessionPool"]


class PooledSession:
    """One tenant: a session plus its lock, config echo, and accounting."""

    def __init__(
        self,
        session: AnalysisSession,
        name: str,
        strategy_key: str,
        abi: str,
        strict: bool,
        backend: Optional[str],
    ) -> None:
        self.id = uuid.uuid4().hex[:16]
        self.session = session
        self.name = name
        self.strategy_key = strategy_key
        self.abi = abi
        self.strict = strict
        self.backend = backend
        self.lock = threading.RLock()
        self.created_at = time.time()
        self.bytes_estimate = session.estimated_bytes()
        #: The entry's strategy instances by key (built on first use by
        #: the app), all over ``layout``.  Their memo tables stay warm
        #: across queries and are freed with the entry.
        self.strategies: Dict[str, object] = {}
        self.layout = Layout(LP64 if abi == "lp64" else ILP32)
        self.queries = 0
        self.deltas = 0

    def describe(self) -> Dict[str, object]:
        """The session document the API returns (sans points-to data)."""
        doc = self.session.describe()
        doc.update(
            id=self.id,
            name=self.name,
            strategy=self.strategy_key,
            abi=self.abi,
            strict=self.strict,
            backend=self.backend,
            bytes_estimate=self.bytes_estimate,
            queries=self.queries,
            deltas=self.deltas,
        )
        return doc


class SessionPool:
    """LRU-evicting, byte-budgeted, lock-per-entry session registry."""

    def __init__(self, capacity: int = 8,
                 byte_budget: int = 256 * 1024 * 1024) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.byte_budget = byte_budget
        self._entries: "OrderedDict[str, PooledSession]" = OrderedDict()
        self._lock = threading.Lock()
        self._use_counter = itertools.count()
        # Counters surfaced by /metrics (monotonic over the server's life).
        self.sessions_created = 0
        self.evictions = 0
        self.checkouts = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def sessions_live(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_live(self) -> int:
        with self._lock:
            return sum(e.bytes_estimate for e in self._entries.values())

    # ------------------------------------------------------------------
    def add(self, entry: PooledSession) -> List[PooledSession]:
        """Register a new session; returns the entries evicted to fit it."""
        with self._lock:
            self._entries[entry.id] = entry
            self.sessions_created += 1
            return self._enforce_locked(keep=entry.id)

    def checkout(self, session_id: str) -> PooledSession:
        """Fetch an entry and mark it most-recently-used; 404 if absent.

        The caller must hold ``entry.lock`` while working on the session.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                self.misses += 1
                raise ServiceError(
                    404, "unknown-session",
                    f"no session {session_id!r} (expired, evicted, or never "
                    "created)",
                )
            self._entries.move_to_end(session_id)
            self.checkouts += 1
            return entry

    def remove(self, session_id: str) -> PooledSession:
        """Explicit DELETE; 404 if absent.  Not counted as an eviction."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
        if entry is None:
            raise ServiceError(404, "unknown-session",
                               f"no session {session_id!r}")
        return entry

    # ------------------------------------------------------------------
    def remeasure(self, entry: PooledSession) -> List[PooledSession]:
        """Refresh one entry's byte estimate and re-enforce the budget.

        Called after any operation that can grow a session (a solve, an
        incremental delta).  Returns newly evicted entries.
        """
        entry.bytes_estimate = entry.session.estimated_bytes()
        with self._lock:
            if entry.id not in self._entries:
                return []          # already evicted by a concurrent create
            return self._enforce_locked(keep=entry.id)

    def _enforce_locked(self, keep: Optional[str] = None) -> List[PooledSession]:
        evicted: List[PooledSession] = []
        while True:
            over_slots = len(self._entries) > self.capacity
            over_bytes = (
                sum(e.bytes_estimate for e in self._entries.values())
                > self.byte_budget
            )
            if not (over_slots or over_bytes):
                break
            victim_id = next(
                (sid for sid in self._entries if sid != keep), None
            )
            if victim_id is None:
                break              # only the protected entry remains
            evicted.append(self._entries.pop(victim_id))
            self.evictions += 1
        return evicted

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sessions_live": len(self._entries),
                "sessions_created": self.sessions_created,
                "evictions": self.evictions,
                "checkouts": self.checkouts,
                "misses": self.misses,
                "bytes_live": sum(
                    e.bytes_estimate for e in self._entries.values()
                ),
                "pool_capacity": self.capacity,
                "byte_budget": self.byte_budget,
            }

    def entries(self) -> List[PooledSession]:
        """A snapshot of live entries, LRU-first (for /metrics)."""
        with self._lock:
            return list(self._entries.values())
