"""HTTP plumbing: a threading stdlib server over :class:`ServiceApp`.

Stack: ``http.server.ThreadingHTTPServer`` (``socketserver.ThreadingMixIn``
over ``HTTPServer``) with daemon handler threads — one thread per
in-flight request, which is exactly the concurrency grain the pool's
per-session locks are designed for: requests against *distinct* sessions
run in parallel, requests against *one* session serialize on its lock.

This module owns only the wire concerns:

- request bodies are size-capped (413 past ``max_request_bytes``) and
  must be valid JSON objects (400 otherwise);
- sockets carry a read timeout (``request_timeout``) so a stalled client
  cannot pin a handler thread forever;
- every response — success or failure — is one JSON document with
  ``Content-Type: application/json``; the app's
  :meth:`~repro.service.app.ServiceApp.handle` guarantees the payload
  exists for every outcome.  ``PUT`` and ``PATCH`` go through the app
  too, so they get its 405 envelope rather than the stdlib's HTML 501
  page;
- every response leaves in exactly **one write**: status line, headers,
  blank line and body are joined into one buffer before the socket sees
  any of it.  Split across two ``send()`` calls, the small second
  segment waits behind Nagle's algorithm for the client's delayed ACK —
  about 40 ms on Linux — on every keep-alive request after the first.
  A buffered writer (``wbufsize = -1``) is not a fix: it flushes bodies
  larger than its 8 KiB buffer in a second write, and answers such as a
  mod/ref table for a suite program are tens of KB.  With one write,
  ``TCP_NODELAY`` changes nothing, so the socket is left at its
  defaults;
- a failure while reading the request (a socket error, a malformed
  header value) is a 400 ``bad-request``; any other exception there is
  a server bug and becomes the app's 500 ``internal-error`` envelope,
  counted in ``internal_errors``.

:func:`start_server` runs the server on a background thread and returns
a handle with the bound URL — the form tests, docs, and examples use
(`port=0` binds an ephemeral port).  ``serve_forever`` is the foreground
form behind ``python -m repro serve``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from .app import ServiceApp, ServiceConfig
from .errors import ServiceError, error_payload

__all__ = ["ServiceServer", "ServerHandle", "make_server", "start_server"]


class _Handler(BaseHTTPRequestHandler):
    """Per-request adapter; all logic lives in the :class:`ServiceApp`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # Quiet by default: one line per request is the access log's job,
    # and the tests/CI smoke boot dozens of servers.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _read_body(self) -> Optional[dict]:
        length = self.headers.get("Content-Length")
        if length is None:
            return None
        try:
            length = int(length)
        except ValueError:
            raise ServiceError(400, "bad-request",
                               "malformed Content-Length header") from None
        app: ServiceApp = self.server.app
        if length > app.config.max_request_bytes:
            raise ServiceError(
                413, "request-too-large",
                f"request body of {length} bytes exceeds the server limit "
                f"of {app.config.max_request_bytes} bytes",
            )
        raw = self.rfile.read(length)
        if not raw:
            return None
        try:
            body = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            raise ServiceError(400, "bad-request",
                               "request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ServiceError(400, "bad-request",
                               "request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        try:
            parts = urlsplit(self.path)
            query = dict(parse_qsl(parts.query))
            body = self._read_body()
        except ServiceError as err:
            self._respond(err.status, err.payload())
            return
        except (OSError, ValueError):    # socket errors mid-read
            self._respond(400, error_payload(
                400, "bad-request", "could not read the request body"))
            return
        except Exception as exc:  # noqa: BLE001 - a bug, rendered as a 500
            self._respond(*self.server.app.internal_error(
                exc, f"{method} (reading the request)"))
            return
        app = self.server.app
        with app.releasing_after():
            status, payload = app.handle(method, parts.path, query, body)
            self._respond(status, payload)

    def _respond(self, status: int, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True, default=str).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            # One write for head and body (see the module docstring):
            # what ``end_headers()`` would do, with the body appended
            # before the flush.  An HTTP/0.9 request has no head.
            self._headers_buffer = getattr(self, "_headers_buffer", [])
            if self.request_version != "HTTP/0.9":
                self._headers_buffer.append(b"\r\n")
            self._headers_buffer.append(data)
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            pass                    # client went away; nothing to salvage

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_PATCH(self) -> None:  # noqa: N802
        self._dispatch("PATCH")


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`ServiceApp`."""

    daemon_threads = True

    def __init__(self, app: ServiceApp, verbose: bool = False) -> None:
        self.app = app
        self.verbose = verbose
        super().__init__((app.config.host, app.config.port), _Handler)
        # Per-connection read timeout: a stalled or byte-dripping client
        # trips a socket timeout instead of pinning a handler thread.
        self.timeout = app.config.request_timeout

    def finish_request(self, request, client_address):
        request.settimeout(self.app.config.request_timeout)
        super().finish_request(request, client_address)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(config: Optional[ServiceConfig] = None,
                verbose: bool = False) -> ServiceServer:
    """Bind a server (without serving).  ``port=0`` picks a free port."""
    return ServiceServer(ServiceApp(config), verbose=verbose)


class ServerHandle:
    """A running background server: ``url``, ``app``, and ``close()``."""

    def __init__(self, server: ServiceServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread
        self.url = server.url
        self.app = server.app

    def close(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server(config: Optional[ServiceConfig] = None,
                 verbose: bool = False) -> ServerHandle:
    """Serve on a background daemon thread; returns a closable handle.

    The default config binds ``127.0.0.1`` — combined with ``port=0``
    (an OS-assigned ephemeral port) this is the embedding tests, docs
    snippets, and examples use::

        from repro.service import ServiceConfig, start_server
        with start_server(ServiceConfig(port=0)) as handle:
            ...  # handle.url is http://127.0.0.1:<ephemeral>
    """
    server = make_server(config, verbose=verbose)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-service", daemon=True)
    thread.start()
    return ServerHandle(server, thread)
