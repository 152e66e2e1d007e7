"""Tests for the telemetry time-series sampler (repro.obs.timeseries)."""

import json

import pytest

from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    delta,
    install_sampler,
    rate,
    series,
    window,
)
from repro.sim.clock import VirtualClock
from repro.topology import TopologyConfig


def make_sampler(**kwargs):
    instr = Instrumentation()
    clock = VirtualClock()
    instr.events.clock = clock
    sampler = install_sampler(instr, **kwargs)
    return instr, clock, sampler


def bump(instr, name, n, **labels):
    """Adds *n* to one counter series, as *n* ``instr.inc`` calls would."""
    instr.registry.counter(name).labels(**labels).inc(n)


class TestRing:
    def test_capacity_bound_and_dropped(self):
        instr, clock, sampler = make_sampler()
        taken = DEFAULT_CAPACITY + 2
        for _ in range(taken):
            sampler.sample()
        assert len(sampler.samples()) == DEFAULT_CAPACITY
        assert sampler.dropped == 2
        assert sampler.total == taken
        # Oldest first; newest retained.
        assert [s.index for s in sampler.samples()] == list(
            range(2, taken)
        )
        assert sampler.latest.index == taken - 1

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
        # sampler reads it from there on every tick.
        instr = Instrumentation()
        sampler = install_sampler(instr, sim_interval=5.0)
        assert sampler.sample().sim is None
        clock = VirtualClock()
        instr.events.clock = clock
        clock.advance(42.0)
        record = sampler.sample()
        assert record.sim == pytest.approx(42.0)


class TestWindowQueries:
    def _sampled_counter_run(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        for tick in range(5):
            bump(instr, "service_requests_total", 2, status="complete")
            bump(instr, "service_requests_total", 1, status="failed")
            sampler.sample()
            clock.advance(10.0)
        return instr, clock, sampler

    def test_delta_and_rate(self):
        instr, clock, sampler = self._sampled_counter_run()
        # 5 samples spanning sim 0..40; counter grows 3/sample.
        ring = sampler.samples()
        assert delta(ring, "service_requests_total") == pytest.approx(12.0)
        assert delta(
            ring, "service_requests_total", labels={"status": "complete"}
        ) == pytest.approx(8.0)
        assert rate(ring, "service_requests_total") == pytest.approx(
            12.0 / 40.0
        )

    def test_window_keeps_one_pre_window_base_sample(self):
        instr, clock, sampler = self._sampled_counter_run()
        # Trailing 15s window over samples at sim 0/10/20/30/40 keeps
        # 30 and 40 plus 20 as the delta base.
        recent = window(sampler.samples(), 15.0)
        assert [s.sim for s in recent] == [20.0, 30.0, 40.0]
        assert delta(recent, "service_requests_total") == pytest.approx(6.0)
        assert window(sampler.samples(), None) == sampler.samples()

    def test_rate_needs_two_samples_and_positive_span(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        assert rate(sampler.samples(), "service_requests_total") is None
        sampler.sample()
        assert rate(sampler.samples(), "service_requests_total") is None
        sampler.sample()  # same sim timestamp -> zero span
        assert rate(sampler.samples(), "service_requests_total") is None

    def test_series_and_gauge_reader(self):
        instr, clock, sampler = make_sampler(sim_interval=None)
        for depth in (1.0, 4.0, 2.0):
            instr.set_gauge("service_queue_depth", depth, user="u")
            sampler.sample()
            clock.advance(5.0)
        points = series(
            sampler.samples(), "service_queue_depth", kind="gauge"
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
        with ObsHTTPServer(sampler) as server:
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
            doc = json.loads(body)
            assert doc["schema_version"] == 1
            # Readers read what was published: neither the server's
            # start (a sample existed) nor /metrics or /health sampled.
            assert doc["summary"]["total"] == 1
            assert sampler.total == 1
            status, body = get("/")
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/nope")
            assert err.value.code == 404

    def test_health_doc_is_what_the_writer_published(self):
        # The flight recorder keeps moving between samples: the
        # scheduler ticks the sampler and then emits at that same clock
        # reading, and later emits lap the ring.  /health answers what
        # the writer evaluated as it published the sample, whenever
        # the scrape lands.
        from repro.obs.health import HealthEngine
        from repro.obs.httpd import ObsHTTPServer

        instr = Instrumentation(event_capacity=16)
        clock = VirtualClock()
        instr.events.clock = clock
        sampler = install_sampler(instr, sim_interval=None)
        server = ObsHTTPServer(sampler)
        sampler.sample()
        clock.advance(10.0)
        for _ in range(4):
            instr.emit("degrade.retry", vp="1.2.3.4")
            instr.inc("revtr_retries_total", reason="unresponsive")
        sampler.sample()
        findings = HealthEngine().evaluate(sampler.samples(), instr.events)
        published = {
            "status": HealthEngine.status(findings),
            "findings": [finding.to_dict() for finding in findings],
        }
        storm = next(f for f in findings if f.kind == "retry-storm")
        assert len(storm.event_seqs) == 4
        assert server.health_doc() == published
        instr.emit("sched.retry", job=1, attempt=1)
        assert server.health_doc() == published
        for _ in range(16):
            instr.emit("probe")
        assert server.health_doc() == published

    def test_critical_health_returns_503(self):
        import urllib.error
        import urllib.request

        from repro.obs.httpd import ObsHTTPServer

        instr, clock, sampler = make_sampler(sim_interval=None)
        sampler.sample()
        clock.advance(60.0)
        # 10 retries >= 2x the storm threshold: critical finding.
        bump(instr, "revtr_retries_total", 10, reason="unresponsive")
        with ObsHTTPServer(sampler) as server:
            # The scrape sees the storm once the writer (this thread)
            # publishes it; /health never samples on its own.
            sampler.sample()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/health", timeout=10)
            assert err.value.code == 503
            body = json.loads(err.value.read().decode())
            assert body["status"] == "critical"
            kinds = {f["kind"] for f in body["findings"]}
            assert "retry-storm" in kinds
