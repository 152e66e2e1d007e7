"""HTTP exposition endpoint for a running service.

:class:`ObsHTTPServer` serves the live obs state over a background
thread so ``repro serve --http`` (and library users, see
``examples/open_system_service.py``) can be scraped while a workload
runs:

* ``GET /metrics`` — Prometheus text exposition of the latest sample;
* ``GET /metrics.json`` — that sample's JSON registry snapshot;
* ``GET /health`` — the health findings published with the latest
  sample (HTTP 200 when healthy/degraded, 503 when critical);
* ``GET /timeseries`` — one copy of the sampler's retained series
  (``?wall=1`` includes wall timestamps);
* ``GET /`` — a small index of the routes.

The server thread only reads what the workload thread published: the
sampler's samples, each carrying the findings the writer evaluated
for it.  It never samples, evaluates or reads the flight recorder
itself, so a scrape cannot change the run it watches, and what it
sees is at most one sample interval old.  The server binds
``127.0.0.1`` by default and supports ``port=0`` (ephemeral) for
tests and examples.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.obs.exposition import render_text
from repro.obs.health import HealthEngine


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def _send(
        self, code: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, doc: Any) -> None:
        body = json.dumps(doc, indent=2, sort_keys=True).encode()
        self._send(code, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        owner: "ObsHTTPServer" = self.server.obs_owner  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                snapshot = owner.snapshot()
                self._send(
                    200,
                    render_text(snapshot).encode(),
                    "text/plain; version=0.0.4",
                )
            elif route == "/metrics.json":
                self._send_json(200, owner.snapshot())
            elif route == "/health":
                doc = owner.health_doc()
                code = 503 if doc["status"] == "critical" else 200
                self._send_json(code, doc)
            elif route == "/timeseries":
                include_wall = "wall=1" in (parsed.query or "")
                self._send_json(
                    200, owner.timeseries_doc(include_wall=include_wall)
                )
            elif route == "/":
                self._send_json(
                    200,
                    {
                        "routes": [
                            "/metrics",
                            "/metrics.json",
                            "/health",
                            "/timeseries",
                        ]
                    },
                )
            else:
                self._send_json(404, {"error": "unknown route", "path": route})
        except BrokenPipeError:
            pass

    def log_message(self, format: str, *args: Any) -> None:
        # Scrapes shouldn't spam the CLI's stdout.
        pass


class ObsHTTPServer:
    """Serve what a :class:`~repro.obs.timeseries.TimeSeriesSampler`
    publishes over HTTP.  Constructed on the workload's thread, which
    it asks to evaluate health findings with every sample."""

    def __init__(
        self,
        sampler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.sampler = sampler
        sampler.health = HealthEngine()
        self._requested = (host, port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- document builders (also used by tests directly) ---------------

    def snapshot(self) -> Dict[str, Any]:
        return self.sampler.latest.metrics

    def health_doc(self) -> Dict[str, Any]:
        findings = self.sampler.latest.findings
        return {
            "status": HealthEngine.status(findings),
            "findings": [finding.to_dict() for finding in findings],
        }

    def timeseries_doc(self, include_wall: bool = False) -> Dict[str, Any]:
        return self.sampler.export(include_wall=include_wall)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ObsHTTPServer":
        """Serve from a background thread.  Called on the workload's
        thread, which publishes one sample first if it has none, so an
        early scrape is never empty."""
        if self.sampler.latest is None:
            self.sampler.sample()
        host, port = self._requested
        server = ThreadingHTTPServer((host, port), _Handler)
        server.daemon_threads = True
        server.obs_owner = self  # type: ignore[attr-defined]
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-obs-http",
            daemon=True,
        )
        thread.start()
        self._server = server
        self._thread = thread
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        if self._server is None:
            return None
        return self._server.server_address[:2]

    @property
    def url(self) -> Optional[str]:
        address = self.address
        if address is None:
            return None
        return f"http://{address[0]}:{address[1]}"

    def __enter__(self) -> "ObsHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
