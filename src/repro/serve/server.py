"""JSON-over-HTTP serving front end (stdlib only, in-process transport).

A :class:`TimingServer` exposes the sessions over a
``ThreadingHTTPServer``:

====================  ======================================================
``GET  /health``      liveness + model/designs summary
``GET  /designs``     per-session state (endpoints, revision, ...)
``GET  /metrics``     live metrics snapshot incl. request-latency
                      percentiles (p50/p95) from ``repro.obs``
``POST /predict``     ``{"design", "endpoints"?}`` → batched predictions
``POST /whatif``      ``{"design", "edits": [...], "commit"?}`` →
                      edit → incremental re-featurize → re-predict
``DELETE /designs/<id>``  evict the session: release its plan-cache
                      entries and inference arenas
====================  ======================================================

This class is the **transport** layer only — request routing, slot
accounting, deadlines and structured errors live in the shared
:class:`~repro.serve.dispatch.RequestDispatcher` (the same dispatcher a
fleet worker runs, which is what keeps ``repro serve --workers 0`` and
the multi-process fleet bit-identical).

Operational guarantees:

* **Bounded concurrency** — a semaphore of ``max_workers`` slots; excess
  requests queue for their remaining deadline budget, then get a
  structured 503.
* **Per-request deadline** — ``deadline_s`` (config default, overridable
  per request body); exceeding it returns a structured 504.  Time spent
  waiting inside the micro-batcher counts against the deadline.
* **Structured errors** — every failure is
  ``{"error": {"code", "message"}}`` with a matching HTTP status.
* **Observability** — every request runs inside a ``serve.request``
  span and lands in per-route latency histograms, so ``/metrics``
  reports live percentiles from the same ``repro.obs`` registry the
  rest of the system uses.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs import get_metrics, get_tracer
from repro.serve.api import content_length
from repro.serve.dispatch import API_VERSION, ApiError, RequestDispatcher
from repro.serve.session import DesignSession
from repro.utils import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.batcher import MicroBatcher

logger = get_logger("serve.server")

__all__ = ["API_VERSION", "ApiError", "ServerConfig", "TimingServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs."""

    host: str = "127.0.0.1"
    port: int = 8787
    max_workers: int = 4     # concurrently *executing* requests
    deadline_s: float = 30.0  # per-request budget (queue wait included)
    microbatch: int = 8       # max designs coalesced per packed forward
    microbatch_wait_ms: float = 2.0  # batch-formation window
    #: Evict sessions idle longer than this many seconds (None = never).
    session_ttl_s: Optional[float] = None


class TimingServer:
    """Owns the sessions and the HTTP front end."""

    def __init__(self, sessions: Dict[str, DesignSession],
                 config: Optional[ServerConfig] = None,
                 model_info: Optional[Dict[str, Any]] = None,
                 batcher: Optional["MicroBatcher"] = None) -> None:
        self.config = config or ServerConfig()
        self.dispatcher = RequestDispatcher(
            sessions,
            max_concurrent=self.config.max_workers,
            deadline_s=self.config.deadline_s,
            model_info=model_info,
            batcher=batcher,
            session_ttl_s=self.config.session_ttl_s)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # Back-compat conveniences: the server used to own these directly.
    @property
    def sessions(self) -> Dict[str, DesignSession]:
        return self.dispatcher.sessions

    @property
    def model_info(self) -> Dict[str, Any]:
        return self.dispatcher.model_info

    @property
    def batcher(self) -> Optional["MicroBatcher"]:
        return self.dispatcher.batcher

    @property
    def started_at(self) -> float:
        return self.dispatcher.started_at

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self) -> tuple:
        """Bind the listening socket now; returns (host, port).

        Idempotent.  Lets a caller learn the resolved port (``port=0``)
        before the serving loop starts.
        """
        if self._httpd is None:
            self._httpd = _make_httpd(self)
        return self.address

    def start(self) -> "TimingServer":
        """Bind and serve on a background thread (tests, embedding)."""
        self.bind()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve",
            daemon=True)
        self._thread.start()
        logger.info("serving %d design(s) on http://%s:%d",
                    len(self.sessions), *self.address)
        return self

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (CLI)."""
        self.bind()
        logger.info("serving %d design(s) on http://%s:%d",
                    len(self.sessions), *self.address)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._httpd.server_close()

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.batcher is not None:
            self.batcher.stop()

    @property
    def address(self) -> tuple:
        """(host, actual port) — port resolves 0 to the bound port."""
        if self._httpd is not None:
            return self._httpd.server_address[:2]
        return (self.config.host, self.config.port)

    # ------------------------------------------------------------------
    def handle(self, method: str, path: str,
               body: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Dispatch one request (kept for embedding/tests)."""
        return self.dispatcher.handle(method, path, body)


# ----------------------------------------------------------------------
# stdlib HTTP plumbing
# ----------------------------------------------------------------------
def _make_httpd(app: TimingServer) -> ThreadingHTTPServer:
    httpd = ThreadingHTTPServer((app.config.host, app.config.port),
                                _Handler)
    httpd.daemon_threads = True
    httpd.app = app  # type: ignore[attr-defined]
    return httpd


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # Route HTTP-server chatter through our logger instead of stderr.
    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)

    def do_GET(self) -> None:  # noqa: N802 (stdlib API)
        self._dispatch("GET", body=None)

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib API)
        self._dispatch("DELETE", body=None)

    def do_POST(self) -> None:  # noqa: N802 (stdlib API)
        try:
            length = content_length(self.headers.get("Content-Length"))
        except ApiError as exc:
            # The body has no known end: answer, then close.
            self.close_connection = True
            self._send(exc.status, exc.to_wire())
            return
        try:
            raw = self.rfile.read(length) if length else b"{}"
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._send(400, {"error": {"code": "bad_json",
                                       "message": str(exc)}})
            return
        self._dispatch("POST", body=body)

    # ------------------------------------------------------------------
    def _dispatch(self, method: str, body: Optional[Dict[str, Any]]
                  ) -> None:
        app: TimingServer = self.server.app  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route_label = f"{method} {path}"
        metrics = get_metrics()
        sp = get_tracer().span("serve.request", route=route_label,
                               design=(body or {}).get("design"))
        status = 500
        try:
            with sp:
                status, payload = app.dispatcher.handle_to_wire(
                    method, path, body)
                sp.set(status=status)
            self._send(status, payload)
        finally:
            ms = sp.duration * 1e3
            metrics.counter("serve.requests").inc()
            metrics.histogram("serve.latency_ms").observe(ms)
            metrics.histogram(f"serve.latency_ms.{method} {path}"
                              ).observe(ms)
            if status >= 400:
                metrics.counter("serve.errors").inc()
                metrics.counter(f"serve.errors.{status}").inc()

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
