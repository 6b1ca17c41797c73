"""Analysis-as-a-service: the pooled HTTP session server.

The ROADMAP's "heavy traffic" story: wrap
:class:`~repro.session.AnalysisSession` in a long-lived, stdlib-only
HTTP/JSON server so clients create sessions (one parsed translation
unit each), grow them incrementally, and run alias / points-to /
MOD-REF / call-graph queries against cached solved engines.  Layering:

- :mod:`repro.service.app` — endpoint handlers over the pool
  (HTTP-free, unit-testable);
- :mod:`repro.service.pool` — multi-tenant LRU + byte-budget session
  pool with per-session locks;
- :mod:`repro.service.frontcache` — the per-server cache of pickled
  normalized programs, so each source text is parsed once;
- :mod:`repro.service.codec` — the JSON wire format for incremental
  statement deltas and query targets;
- :mod:`repro.service.errors` — the structured error model (every
  hostile input is a 4xx JSON diagnostic, never a 500);
- :mod:`repro.service.http` — the ``ThreadingHTTPServer`` adapter and
  the :func:`start_server` background helper;
- :mod:`repro.service.client` — a stdlib client used by tests,
  examples, docs, and the CI smoke job;
- :mod:`repro.service.cli` — ``python -m repro serve``.

Quickstart (the executable version lives in ``docs/service.md``)::

    from repro.service import ServiceConfig, start_server
    from repro.service.client import ServiceClient

    with start_server(ServiceConfig(port=0)) as handle:
        client = ServiceClient(handle.url)
        doc = client.create_session("int x, *p; void main(void){ p = &x; }")
        sid = doc["session"]["id"]
        assert client.points_to(sid, "p")["names"] == ["x"]
"""

from .app import QUERY_KINDS, ServiceApp, ServiceConfig
from .client import ServiceClient, ServiceClientError
from .errors import ServiceError
from .http import ServerHandle, ServiceServer, make_server, start_server
from .pool import PooledSession, SessionPool

__all__ = [
    "QUERY_KINDS",
    "PooledSession",
    "ServerHandle",
    "ServiceApp",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "SessionPool",
    "make_server",
    "start_server",
]
