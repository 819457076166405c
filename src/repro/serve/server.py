"""The concurrent query service: one shared engine, many HTTP clients.

:class:`ProteusServer` mounts ONE shared
:class:`~repro.core.engine.ProteusEngine` behind a dependency-free threaded
HTTP server (stdlib ``http.server`` + ``socketserver.ThreadingMixIn`` — one
handler thread per connection, named ``proteus-http-*`` so thread-leak
checks can find them).  The engine already is the concurrency story —
thread-safe prepare/plan caches, admission control as the front door,
per-query deadlines and cancellation, cross-query scan coalescing — so the
server stays a thin translation layer:

========================  =================================================
``POST /v1/query``        one-shot execution through the engine's per-text
                          prepared cache (``timeout_ms`` → ``timeout=``,
                          ``query_id`` → a registered cancel token)
``POST /v1/prepare``      server-side statement handle (``stmt-N``)
``POST /v1/execute``      execute a handle with positional/named params
``DELETE /v1/query/<id>`` trip the cancellation token of an in-flight
                          execution registered under ``query_id``
``DELETE /v1/statement/<handle>``  close a statement handle
``GET /metrics``          Prometheus exposition of the engine registry
                          (exact v0.0.4 content type)
``GET /healthz``          liveness probe
========================  =================================================

Error translation is table-driven (:mod:`repro.serve.mapping`,
:data:`repro.errors.HTTP_STATUS_BY_CODE`): admission rejections surface as
429/503, deadline/cancellation as 408/499 with partial progress, analysis
rejections as 400 — the body always carries the engine's own error code.

Connections are ``HTTP/1.0`` (one request per connection, no keep-alive):
handler threads exit as soon as the response is written, and a socket
timeout (:data:`IDLE_TIMEOUT_SECONDS`) ends the thread of a client that
stalls mid-request, which keeps ``stop()`` — ``shutdown()`` +
``server_close()`` with ``block_on_close`` — a bounded join of everything
the server ever spawned.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import TYPE_CHECKING, Any

from repro.core.concurrency import make_lock
from repro.errors import ProteusError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.serve.mapping import engine_error_response, protocol_error_response
from repro.serve.protocol import (
    BadRequestError,
    QueryRequest,
    encode_result,
    json_default,
    parse_body,
    parse_query_request,
)
from repro.serve.registry import (
    ActiveQueryRegistry,
    DuplicateQueryIdError,
    StatementRegistry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import PreparedQuery, ProteusEngine

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Seconds a connection may sit in one socket read or write before its
#: handler thread gives up on it.  This bounds how long ``stop()`` waits for
#: a client that connects and then sends nothing.
IDLE_TIMEOUT_SECONDS = 10.0


class _ProteusHTTPServer(ThreadingMixIn, HTTPServer):
    """Threaded listener; joins every handler thread on ``server_close``."""

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    #: Back-reference installed by :class:`ProteusServer` right after
    #: construction, before the listener thread starts.
    proteus: "ProteusServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "proteus-serve/1.0"
    protocol_version = "HTTP/1.0"

    # -- plumbing ----------------------------------------------------------

    def setup(self) -> None:
        # Read per connection, so the module constant stays the one knob.
        self.timeout = IDLE_TIMEOUT_SECONDS
        super().setup()

    def handle(self) -> None:
        # Name the per-connection thread so shutdown leak checks (and the
        # sanitizer's held-lock dumps) can attribute it to the server.
        thread = threading.current_thread()
        if thread is not threading.main_thread():
            thread.name = f"proteus-http-{thread.ident}"
        super().handle()

    def log_message(self, format: str, *args: Any) -> None:
        # Request accounting lives in the metrics registry
        # (proteus_http_requests_total), not on stderr.
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, endpoint: str, status: int, payload: dict) -> None:
        body = json.dumps(payload, default=json_default).encode("utf-8")
        # Count before writing: once the client has the response bytes it
        # must be able to observe its own request in a /metrics scrape.
        self.server.proteus.record_request(endpoint, status)
        self._send(status, body, JSON_CONTENT_TYPE)

    def _read_json(self) -> dict:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise BadRequestError("request requires a Content-Length header")
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            return parse_body(json.loads(raw.decode("utf-8") or "null"))
        except (ValueError, UnicodeDecodeError):
            raise BadRequestError("request body is not valid JSON")

    # -- routing -----------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json("/healthz", 200, {"status": "ok"})
        elif self.path == "/metrics":
            self.server.proteus.record_request("/metrics", 200)
            body = self.server.proteus.engine.metrics.render_prometheus()
            self._send(200, body.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        else:
            status, payload = protocol_error_response(
                404, "SRV002", f"unknown endpoint {self.path!r}"
            )
            self._send_json(self.path, status, payload)

    def do_POST(self) -> None:
        route = {
            "/v1/query": self._post_query,
            "/v1/prepare": self._post_prepare,
            "/v1/execute": self._post_execute,
        }.get(self.path)
        if route is None:
            status, payload = protocol_error_response(
                404, "SRV002", f"unknown endpoint {self.path!r}"
            )
            self._send_json(self.path, status, payload)
            return
        try:
            status, payload = route(self._read_json())
        except BadRequestError as exc:
            status, payload = protocol_error_response(400, "SRV001", str(exc))
        except DuplicateQueryIdError as exc:
            status, payload = protocol_error_response(409, "SRV004", str(exc))
        except ProteusError as exc:
            status, payload = engine_error_response(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload = protocol_error_response(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )
        self._send_json(self.path, status, payload)

    def do_DELETE(self) -> None:
        proteus = self.server.proteus
        if self.path.startswith("/v1/query/"):
            query_id = self.path[len("/v1/query/"):]
            if proteus.queries.cancel(query_id):
                self._send_json("/v1/query/<id>", 200, {"cancelled": True})
            else:
                status, payload = protocol_error_response(
                    404, "SRV002", f"no in-flight query with id {query_id!r}"
                )
                self._send_json("/v1/query/<id>", status, payload)
        elif self.path.startswith("/v1/statement/"):
            handle = self.path[len("/v1/statement/"):]
            if proteus.statements.close(handle):
                self._send_json("/v1/statement/<handle>", 200, {"closed": True})
            else:
                status, payload = protocol_error_response(
                    404, "SRV003", f"unknown statement handle {handle!r}"
                )
                self._send_json("/v1/statement/<handle>", status, payload)
        else:
            status, payload = protocol_error_response(
                404, "SRV002", f"unknown endpoint {self.path!r}"
            )
            self._send_json(self.path, status, payload)

    # -- endpoints ---------------------------------------------------------

    def _post_query(self, body: dict) -> tuple[int, dict]:
        request = parse_query_request(body, require="query")
        # The per-text prepared cache: repeated texts share one PreparedQuery
        # (and its compiled program) across every client.
        prepared = self.server.proteus.engine._prepare_cached(request.query)
        return self._run(prepared, request)

    def _post_prepare(self, body: dict) -> tuple[int, dict]:
        request = parse_query_request(body, require="query")
        proteus = self.server.proteus
        prepared = proteus.engine.prepare(request.query)
        handle = proteus.statements.create(prepared)
        return 200, {"handle": handle, "parameters": prepared.parameters}

    def _post_execute(self, body: dict) -> tuple[int, dict]:
        request = parse_query_request(body, require="handle")
        proteus = self.server.proteus
        prepared = proteus.statements.get(request.handle)
        if prepared is None:
            return protocol_error_response(
                404, "SRV003", f"unknown statement handle {request.handle!r}"
            )
        return self._run(prepared, request)

    def _run(
        self, prepared: "PreparedQuery", request: QueryRequest
    ) -> tuple[int, dict]:
        proteus = self.server.proteus
        token = None
        try:
            if request.query_id is not None:
                token = proteus.queries.register(request.query_id)
            result = prepared.execute(
                *request.args,
                timeout=request.timeout_seconds,
                cancel=token,
                **request.params,
            )
            return 200, encode_result(result)
        finally:
            if token is not None:
                proteus.queries.release(request.query_id, token)


class ProteusServer:
    """Threaded HTTP front end over one shared :class:`ProteusEngine`.

    Usage::

        server = ProteusServer(engine)          # port=0 -> ephemeral port
        server.start()
        ... urllib / any HTTP client against server.url ...
        server.stop()                           # bounded: joins all threads

    Also usable as a context manager.  The server is single-use: once
    stopped, the listening socket is closed and ``start()`` raises.
    """

    def __init__(
        self, engine: "ProteusEngine", host: str = "127.0.0.1", port: int = 0
    ):
        self.engine = engine
        self.statements = StatementRegistry()
        self.queries = ActiveQueryRegistry()
        self._lock = make_lock("ProteusServer._lock")
        self._thread: threading.Thread | None = None
        self._httpd = _ProteusHTTPServer((host, port), _Handler)
        self._httpd.proteus = self
        self._requests = engine.metrics.counter(
            "proteus_http_requests_total",
            "HTTP requests served, labeled by endpoint and status.",
        )
        self._register_gauges()

    # -- metrics -----------------------------------------------------------

    def _register_gauges(self) -> None:
        metrics = self.engine.metrics
        if not metrics.enabled:
            return
        statements = self.statements
        queries = self.queries
        metrics.gauge_callback(
            "proteus_server_statements",
            lambda: float(statements.count()),
            "Open server-side prepared-statement handles.",
        )
        metrics.gauge_callback(
            "proteus_server_active_queries",
            lambda: float(queries.count()),
            "In-flight HTTP executions holding a cancellation token.",
        )

    def record_request(self, endpoint: str, status: int) -> None:
        if self.engine.metrics.enabled:
            self._requests.inc(endpoint=endpoint, status=str(status))

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ProteusServer":
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("server is already running")
            thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name=f"proteus-http-serve-{self.port}",
                daemon=False,
            )
            self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()  # block_on_close: joins handler threads
        thread.join()

    def __enter__(self) -> "ProteusServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
