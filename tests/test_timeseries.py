"""Tests for the telemetry time-series sampler (repro.obs.timeseries)."""

import json

import pytest

from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.obs.timeseries import (
    TimeSeriesSampler,
    install_sampler,
)
from repro.sim.clock import VirtualClock
from repro.topology import TopologyConfig


def make_sampler(**kwargs):
    instr = Instrumentation()
    clock = VirtualClock()
    kwargs.setdefault("clock", clock)
    sampler = install_sampler(instr, **kwargs)
    return instr, clock, sampler


class TestRing:
    def test_capacity_bound_and_dropped(self):
        instr, clock, sampler = make_sampler(capacity=3)
        for _ in range(5):
            sampler.sample()
        assert len(sampler.samples()) == 3
        assert sampler.dropped == 2
        assert sampler.total == 5
        # Oldest first; newest retained.
        assert [s.index for s in sampler.samples()] == [2, 3, 4]
        assert sampler.latest.index == 4

    def test_capacity_must_be_positive(self):
        instr = Instrumentation()
        with pytest.raises(ValueError):
            TimeSeriesSampler(instr, capacity=0)

    def test_install_hangs_sampler_on_facade(self):
        instr, clock, sampler = make_sampler()
        assert instr.sampler is sampler
        assert sampler.obs is instr


class TestTickGating:
    def test_sim_interval_gates_sampling(self):
        instr, clock, sampler = make_sampler(sim_interval=30.0)
        # First call always samples (no previous sample).
        assert sampler.maybe_sample() is not None
        # Not due: clock hasn't advanced a full interval.
        clock.advance(10.0)
        assert sampler.maybe_sample() is None
        clock.advance(19.9)
        assert sampler.maybe_sample() is None
        # Due at exactly one interval since the last sample.
        clock.advance(0.1)
        assert sampler.maybe_sample() is not None
        assert sampler.total == 2

    def test_disabled_ticks_never_sample(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        clock.advance(1000.0)
        assert sampler.maybe_sample() is None
        assert sampler.total == 0
        # Explicit capture still works.
        assert sampler.sample() is not None

    def test_clock_adopted_from_event_log(self):
        # Scenario late-binds the virtual clock onto the event log; the
        # sampler adopts it on first use instead of requiring wiring.
        instr = Instrumentation()
        clock = VirtualClock()
        instr.events.clock = clock
        sampler = install_sampler(instr, sim_interval=5.0)
        clock.advance(42.0)
        record = sampler.sample()
        assert record.sim == pytest.approx(42.0)
        assert sampler.clock is clock


class TestWindowQueries:
    def _sampled_counter_run(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        for tick in range(5):
            instr.inc("service_requests_total", n=2, status="complete")
            instr.inc("service_requests_total", n=1, status="failed")
            sampler.sample()
            clock.advance(10.0)
        return instr, clock, sampler

    def test_delta_and_rate(self):
        instr, clock, sampler = self._sampled_counter_run()
        # 5 samples spanning sim 0..40; counter grows 3/sample.
        assert sampler.delta("service_requests_total") == pytest.approx(12.0)
        assert sampler.delta(
            "service_requests_total", labels={"status": "complete"}
        ) == pytest.approx(8.0)
        assert sampler.rate("service_requests_total") == pytest.approx(
            12.0 / 40.0
        )

    def test_window_keeps_one_pre_window_base_sample(self):
        instr, clock, sampler = self._sampled_counter_run()
        # Trailing 15s window over samples at sim 0/10/20/30/40 keeps
        # 30 and 40 plus 20 as the delta base.
        window = sampler.window(15.0)
        assert [s.sim for s in window] == [20.0, 30.0, 40.0]
        assert sampler.delta(
            "service_requests_total", window=15.0
        ) == pytest.approx(6.0)

    def test_rate_needs_two_samples_and_positive_span(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        assert sampler.rate("service_requests_total") is None
        sampler.sample()
        assert sampler.rate("service_requests_total") is None
        sampler.sample()  # same sim timestamp -> zero span
        assert sampler.rate("service_requests_total") is None

    def test_series_and_gauge_reader(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        for depth in (1.0, 4.0, 2.0):
            instr.set_gauge("service_queue_depth", depth, user="u")
            sampler.sample()
            clock.advance(5.0)
        points = sampler.series(
            "service_queue_depth", kind="gauge"
        )
        assert [value for _, value in points] == [1.0, 4.0, 2.0]


class TestExport:
    def test_export_shape_and_wall_exclusion(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        instr.inc("service_requests_total", status="complete")
        sampler.sample()
        doc = sampler.export()
        assert doc["schema_version"] == 1
        assert doc["summary"]["samples"] == 1
        assert "wall" not in doc["samples"][0]
        assert "metrics" in doc["samples"][0]
        with_wall = sampler.export(include_wall=True)
        assert "wall" in with_wall["samples"][0]
        json.dumps(doc)  # JSON-able throughout

    def test_summary_span(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        assert sampler.summary()["span_sim"] is None
        sampler.sample()
        clock.advance(25.0)
        sampler.sample()
        assert sampler.summary()["span_sim"] == [0.0, 25.0]


def run_workload(sample: bool, measurements: int = 4):
    """A seeded tiny-scale run; returns (statuses, export_json or None)."""
    instr = Instrumentation()
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=3),
        seed=3,
        atlas_size=20,
        instrumentation=instr,
    )
    sampler = None
    if sample:
        sampler = install_sampler(instr, sim_interval=5.0)
    source = scenario.sources()[0]
    engine = scenario.engine(source, "revtr2.0")
    statuses = []
    for dst in scenario.responsive_destinations(
        measurements, options_only=True
    ):
        result = engine.measure(dst)
        statuses.append((str(dst), result.status.value, len(result.hops)))
        if sampler is not None:
            sampler.maybe_sample()
    exported = sampler.export_json() if sampler is not None else None
    return statuses, exported


class TestDeterminism:
    def test_sim_driven_series_is_byte_identical_across_runs(self):
        _, first = run_workload(sample=True)
        _, second = run_workload(sample=True)
        assert first == second
        doc = json.loads(first)
        assert doc["summary"]["samples"] >= 1

    def test_measurements_unchanged_by_sampler(self):
        with_sampler, _ = run_workload(sample=True)
        without_sampler, _ = run_workload(sample=False)
        assert with_sampler == without_sampler


class TestHttpEndpoint:
    def test_routes_and_health_status(self):
        import urllib.error
        import urllib.request

        from repro.obs.httpd import ObsHTTPServer

        instr, clock, sampler = make_sampler(sim_interval=None)
        instr.inc("service_requests_total", status="complete")
        sampler.sample()
        with ObsHTTPServer(instr, sampler) as server:
            def get(path):
                with urllib.request.urlopen(
                    server.url + path, timeout=10
                ) as response:
                    return response.status, response.read().decode()

            status, text = get("/metrics")
            assert status == 200
            assert "service_requests_total" in text
            status, body = get("/metrics.json")
            assert status == 200
            doc = json.loads(body)
            assert "service_requests_total" in doc
            status, body = get("/health")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "healthy"
            assert health["findings"] == []
            status, body = get("/timeseries")
            assert status == 200
            series = json.loads(body)
            assert series["schema_version"] == 1
            # Sample indexes grow: /health forces a fresh capture.
            assert series["summary"]["total"] >= 2
            status, body = get("/")
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/nope")
            assert err.value.code == 404

    def test_critical_health_returns_503(self):
        import urllib.error
        import urllib.request

        from repro.obs.httpd import ObsHTTPServer

        instr, clock, sampler = make_sampler(sim_interval=None)
        sampler.sample()
        clock.advance(60.0)
        # 10 retries >= 2x the storm threshold: critical finding.
        instr.inc("revtr_retries_total", n=10, reason="unresponsive")
        with ObsHTTPServer(instr, sampler) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/health", timeout=10)
            assert err.value.code == 503
            body = json.loads(err.value.read().decode())
            assert body["status"] == "critical"
            kinds = {f["kind"] for f in body["findings"]}
            assert "retry-storm" in kinds
