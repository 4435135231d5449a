"""A tiny stdlib HTTP endpoint exposing the live registry.

:class:`MetricsServer` wraps :class:`http.server.ThreadingHTTPServer`
in a daemon thread so the serve tier (or any long-running process) can
expose its :class:`~repro.obs.registry.MetricsRegistry` without adding
a web framework:

* ``GET /metrics`` — OpenMetrics text (with bucket exemplars) via
  :func:`repro.obs.prom.render_openmetrics`; SLO burn-rate gauges are
  refreshed at scrape time when a tracker is attached, and fleet
  gauges (``registry.fleet``, a
  :class:`~repro.serve.shard.FleetStatus`) likewise, so the scraped
  windows and heartbeat ages are current, not answer-time stale.
* ``GET /healthz`` — JSON liveness with a stable schema:
  ``{"status": "ok"|"degraded"|"unhealthy", "shards": {...},
  "uptime_seconds": ...}`` plus ``spans`` and whatever the optional
  ``health`` callback adds.  The per-shard breakdown comes from the
  attached fleet watchdog; unsharded processes report ``"ok"`` with
  an empty shard map.
* ``GET /traces/<trace_id>`` — JSON timeline of every span in the
  registry's trace with that ``trace_id``, sorted by start offset —
  what an exemplar points at, and what ``python -m repro traceview``
  renders.

Reads are snapshot-consistent enough for monitoring (the GIL makes the
list/dict reads atomic; the registry is append-only), so no locking is
imposed on the hot recording paths.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .prom import render_openmetrics
from .registry import MetricsRegistry

#: The content type Prometheus negotiates for OpenMetrics scrapes.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: How often ``serve_forever`` checks for shutdown, which bounds how
#: long ``stop()`` blocks (the stdlib default is 0.5 s).
_POLL_INTERVAL_SECONDS = 0.05


def trace_timeline(
    registry: MetricsRegistry, trace_id: str
) -> dict[str, object]:
    """The JSON-ready timeline of one trace id in ``registry``.

    Spans sort by their monotonic ``start`` offset and are re-based so
    the earliest span starts at offset 0 — the same normalization the
    traceview waterfall applies.
    """
    spans = [
        asdict(record)
        for record in registry.trace
        if record.trace_id == trace_id
    ]
    spans.sort(key=lambda span: span["start"])
    base = spans[0]["start"] if spans else 0.0
    for span in spans:
        span["offset"] = span["start"] - base
    return {
        "trace_id": trace_id,
        "spans": spans,
        "span_count": len(spans),
    }


class _Handler(BaseHTTPRequestHandler):
    # The server instance injects these via the class-factory below.
    registry: MetricsRegistry
    health: Callable[[], dict] | None
    started: float

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # monitoring endpoints must not spam the service's stdout

    def _send(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                slo = getattr(self.registry, "slo", None)
                if slo is not None:
                    slo.publish(self.registry, force=True)
                fleet = getattr(self.registry, "fleet", None)
                if fleet is not None:
                    # Heartbeat ages are measured at scrape time, not
                    # frozen at the last heartbeat's arrival.
                    fleet.refresh(self.registry)
                text = render_openmetrics(self.registry)
                self._send(
                    200,
                    text.encode("utf-8"),
                    OPENMETRICS_CONTENT_TYPE,
                )
            elif path == "/healthz":
                # Stable schema: status, shards, uptime_seconds (plus
                # spans and any health-callback extras).  A sharded
                # fleet's watchdog overrides status/shards; everyone
                # else reports ok with an empty shard map.
                payload = {
                    "status": "ok",
                    "shards": {},
                    "uptime_seconds": time.time() - self.started,
                    "spans": len(self.registry.trace),
                }
                fleet = getattr(self.registry, "fleet", None)
                if fleet is not None:
                    payload.update(fleet.health())
                if self.health is not None:
                    payload.update(self.health())
                self._send_json(200, payload)
            elif path.startswith("/traces/"):
                trace_id = path[len("/traces/"):]
                timeline = trace_timeline(self.registry, trace_id)
                if timeline["span_count"] == 0:
                    self._send_json(
                        404,
                        {
                            "error": "trace not found",
                            "trace_id": trace_id,
                        },
                    )
                else:
                    self._send_json(200, timeline)
            else:
                self._send_json(404, {"error": f"no route {path!r}"})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # pragma: no cover - defensive
            try:
                self._send_json(500, {"error": str(exc)})
            except Exception:
                pass


class MetricsServer:
    """Serve ``/metrics``, ``/healthz``, ``/traces/<id>`` for a registry.

    Parameters
    ----------
    registry:
        The live registry to expose.
    port:
        TCP port; ``0`` binds an ephemeral port (read :attr:`port`
        after :meth:`start` — what the tests do).
    host:
        Bind address (default loopback: a monitoring endpoint should
        not be world-reachable by accident).
    health:
        Optional zero-arg callable returning extra ``/healthz`` fields
        (the serve tier reports queue depth and in-flight counts).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        health: Callable[[], dict] | None = None,
    ):
        self.registry = registry
        self.host = host
        self.requested_port = port
        self.health = health
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self.requested_port

    @property
    def url(self) -> str:
        """Base URL of the running endpoint."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        """Bind and serve in a daemon thread; returns ``self``."""
        if self._server is not None:
            return self
        handler = type(
            "BoundHandler",
            (_Handler,),
            {
                "registry": self.registry,
                "health": staticmethod(self.health)
                if self.health
                else None,
                "started": time.time(),
            },
        )
        self._server = ThreadingHTTPServer(
            (self.host, self.requested_port), handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(_POLL_INTERVAL_SECONDS,),
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
