"""Tests for the live scrape endpoint (``/metrics``, ``/healthz``,
``/traces/<id>``)."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    SloTracker,
    parse_openmetrics,
)
from repro.obs.http import trace_timeline
from repro.obs.tracectx import TraceContext, use_trace_context


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("sim.rounds").inc(7)
    registry.histogram("serve.request.latency_seconds").observe(
        0.02, trace_id="cafe" * 8
    )
    return registry


@pytest.fixture()
def server(registry):
    with MetricsServer(registry, port=0) as server:
        yield server


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


class TestMetricsRoute:
    def test_scrape_parses_as_openmetrics(self, server):
        status, headers, text = _get(server, "/metrics")
        assert status == 200
        assert "application/openmetrics-text" in headers["Content-Type"]
        samples, _ = parse_openmetrics(text)
        assert samples["repro_sim_rounds_total"] == 7

    def test_scrape_carries_exemplars(self, server):
        _, _, text = _get(server, "/metrics")
        assert f'# {{trace_id="{"cafe" * 8}"}}' in text

    def test_scrape_force_publishes_slo_gauges(self, registry):
        tracker = SloTracker()
        registry.attach_diagnostics(slo=tracker)
        tracker.record(True)
        tracker.record(False)
        with MetricsServer(registry, port=0) as server:
            _, _, text = _get(server, "/metrics")
        samples, _ = parse_openmetrics(text)
        # The scrape republished with force=True: the window totals
        # visible in the text are current, not record-time stale.
        assert samples["repro_serve_slo_good_fast"] == 1
        assert samples["repro_serve_slo_bad_fast"] == 1


class TestHealthz:
    def test_reports_liveness_and_span_count(self, server, registry):
        with use_trace_context(TraceContext.root()):
            with registry.span("work"):
                pass
        status, _, text = _get(server, "/healthz")
        payload = json.loads(text)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0.0
        assert payload["spans"] == 1

    def test_health_callback_extends_payload(self, registry):
        server = MetricsServer(
            registry, port=0, health=lambda: {"queue_depth": 3}
        )
        with server:
            _, _, text = _get(server, "/healthz")
        assert json.loads(text)["queue_depth"] == 3

    def test_stable_schema_has_empty_shard_map_unsharded(
        self, server
    ):
        _, _, text = _get(server, "/healthz")
        payload = json.loads(text)
        # The documented stable schema, present on every process.
        assert set(payload) >= {"status", "shards", "uptime_seconds"}
        assert payload["shards"] == {}

    def test_attached_fleet_drives_status_and_shards(self, registry):
        class FakeFleet:
            def health(self):
                return {
                    "status": "degraded",
                    "shards": {
                        "0": {"status": "ok"},
                        "1": {"status": "dead"},
                    },
                }

            def refresh(self, registry):
                registry.gauge(
                    "serve.shard.1.heartbeat_age_seconds"
                ).set(9.5)

        registry.attach_diagnostics(fleet=FakeFleet())
        with MetricsServer(registry, port=0) as server:
            _, _, text = _get(server, "/healthz")
            payload = json.loads(text)
            assert payload["status"] == "degraded"
            assert payload["shards"]["1"]["status"] == "dead"
            # /metrics refreshes the fleet gauges at scrape time.
            _, _, metrics_text = _get(server, "/metrics")
        samples, _ = parse_openmetrics(metrics_text)
        assert (
            samples["repro_serve_shard_1_heartbeat_age_seconds"]
            == 9.5
        )


class TestTracesRoute:
    def test_timeline_of_a_recorded_trace(self, registry, server):
        ctx = TraceContext.root()
        with use_trace_context(ctx):
            with registry.span("outer"):
                with registry.span("inner"):
                    pass
        status, _, text = _get(server, f"/traces/{ctx.trace_id}")
        payload = json.loads(text)
        assert status == 200
        assert payload["trace_id"] == ctx.trace_id
        assert payload["span_count"] == 2
        names = [span["name"] for span in payload["spans"]]
        assert set(names) == {"outer", "inner"}
        # Spans come back sorted and re-based to offset 0.
        offsets = [span["offset"] for span in payload["spans"]]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0.0

    def test_unknown_trace_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/traces/" + "0" * 32)
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"] == "trace not found"

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_trace_timeline_empty_for_unknown_id(self, registry):
        timeline = trace_timeline(registry, "f" * 32)
        assert timeline["span_count"] == 0
        assert timeline["spans"] == []


class TestLifecycle:
    def test_port_zero_binds_ephemeral(self, registry):
        server = MetricsServer(registry, port=0).start()
        try:
            assert server.port != 0
            assert server.url.endswith(str(server.port))
        finally:
            server.stop()

    def test_stop_is_idempotent(self, registry):
        server = MetricsServer(registry, port=0).start()
        server.stop()
        server.stop()

    def test_stop_returns_promptly(self, registry):
        server = MetricsServer(registry, port=0).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.2

    def test_endpoint_unreachable_after_stop(self, registry):
        server = MetricsServer(registry, port=0).start()
        url = server.url
        server.stop()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=1)
