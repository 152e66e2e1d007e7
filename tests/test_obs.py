"""Tests for the observability layer (repro.obs)."""

import json
import re
import threading

import pytest

from repro.experiments import Scenario
from repro.obs import (
    NULL,
    Instrumentation,
    MetricsRegistry,
    NullInstrumentation,
    Tracer,
    render_text,
)
from repro.obs.tracing import MAX_TRACES
from repro.obs import runtime
from repro.topology import TopologyConfig


class TestRegistry:
    def test_counter_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(4)
        assert counter.labels().value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_label_children_are_distinct_and_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("steps_total")
        family.labels(kind="rr").inc(2)
        family.labels(kind="ts").inc()
        assert family.labels(kind="rr").value == 2
        assert family.labels(kind="ts").value == 1
        # Same label combination -> same child object.
        assert family.labels(kind="rr") is family.labels(kind="rr")
        # Label order is irrelevant to identity.
        family2 = registry.counter("multi")
        assert family2.labels(a="1", b="2") is family2.labels(
            b="2", a="1"
        )

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.labels().set(3)
        gauge.labels().inc(-1)
        assert gauge.labels().value == 2

    def test_histogram_bucket_edges(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 5.0, 10.0))
        child = hist.labels()
        for value in (0.5, 1.0, 4.0, 10.0, 11.0):
            child.observe(value)
        buckets = dict(child.cumulative_buckets())
        # le boundaries are inclusive (Prometheus semantics).
        assert buckets[1.0] == 2
        assert buckets[5.0] == 3
        assert buckets[10.0] == 4
        assert buckets[float("inf")] == 5
        assert child.count == 5
        assert child.sum == pytest.approx(26.5)

    def test_concurrent_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("contended").labels()

        def hammer():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c", "help").labels(kind="a").inc()
        registry.histogram("h", buckets=(1.0,)).labels().observe(2.0)
        snapshot = registry.snapshot()
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["c"]["series"][0]["value"] == 1
        assert parsed["h"]["series"][0]["buckets"][-1][0] == "+Inf"

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", "Steps.").labels(
            kind="rr_spoofed"
        ).inc(7)
        registry.histogram("lat", buckets=(1.0,)).labels().observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP steps_total Steps." in text
        assert "# TYPE steps_total counter" in text
        assert 'steps_total{kind="rr_spoofed"} 7' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_render_text_roundtrips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(x="y").inc()
        direct = registry.render_prometheus()
        via_json = render_text(
            json.loads(json.dumps(registry.snapshot()))
        )
        assert direct == via_json

    def test_exposition_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "weird_total", 'Backslash \\ and\nnewline "quoted".'
        ).labels(path='C:\\tmp\n"x"').inc()
        text = registry.render_prometheus()
        # HELP escapes backslash and newline but NOT double quotes
        # (per the Prometheus text-format spec).
        assert (
            "# HELP weird_total "
            'Backslash \\\\ and\\nnewline "quoted".'
        ) in text
        # Label values escape backslash, newline, and double quotes.
        assert (
            'weird_total{path="C:\\\\tmp\\n\\"x\\""} 1'
        ) in text
        # The rendered text stays one-directive-per-line: the raw
        # newline never leaks into the output.
        for line in text.splitlines():
            assert line == line.strip("\r")

    def test_exposition_reparses(self):
        """Render -> reparse with a tiny text-format parser.

        Guards the exposition against the classic breakages: missing
        +Inf bucket, _sum/_count drift, and escape sequences that do
        not survive a round trip.
        """
        registry = MetricsRegistry()
        registry.counter("steps_total", "Steps.").labels(
            kind="rr", vp='v"1"'
        ).inc(3)
        registry.gauge("inflight", "In flight.").labels().set(2)
        hist = registry.histogram(
            "lat_seconds", "Latency.", buckets=(0.1, 1.0)
        ).labels(op="measure")
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = registry.render_prometheus()

        def unescape(raw):
            out, i = [], 0
            while i < len(raw):
                if raw[i] == "\\" and i + 1 < len(raw):
                    out.append(
                        {"\\": "\\", "n": "\n", '"': '"'}[raw[i + 1]]
                    )
                    i += 2
                else:
                    out.append(raw[i])
                    i += 1
            return "".join(out)

        types, series = {}, {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                types[name] = kind
                continue
            if line.startswith("#") or not line.strip():
                continue
            body, value = line.rsplit(" ", 1)
            if "{" in body:
                name, raw = body.split("{", 1)
                raw = raw.rstrip("}")
                labels = {}
                for pair in re.findall(
                    r'(\w+)="((?:\\.|[^"\\])*)"', raw
                ):
                    labels[pair[0]] = unescape(pair[1])
            else:
                name, labels = body, {}
            series[(name, tuple(sorted(labels.items())))] = float(
                value
            )

        assert types == {
            "steps_total": "counter",
            "inflight": "gauge",
            "lat_seconds": "histogram",
        }
        assert series[
            ("steps_total", (("kind", "rr"), ("vp", 'v"1"')))
        ] == 3.0
        assert series[("inflight", ())] == 2.0
        buckets = {
            dict(labels)["le"]: value
            for (name, labels), value in series.items()
            if name == "lat_seconds_bucket"
        }
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
        assert series[
            ("lat_seconds_count", (("op", "measure"),))
        ] == 3.0
        assert series[
            ("lat_seconds_sum", (("op", "measure"),))
        ] == pytest.approx(5.55)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("root", job="x"):
            with tracer.span("child1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child2") as c2:
                c2.annotate(note="hi")
        root = tracer.last_trace
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child1", "child2"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.children[1].attrs["note"] == "hi"
        assert [s.name for s in root.walk()] == [
            "root", "child1", "grandchild", "child2",
        ]
        assert len(root.find("child2")) == 1

    def test_sim_and_wall_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("op"):
            clock.t += 12.5
        span = tracer.last_trace
        assert span.sim_duration == pytest.approx(12.5)
        assert span.wall_duration >= 0.0

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("bad")
        span = tracer.last_trace
        assert "RuntimeError" in span.error

    def test_export_json(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        docs = tracer.export_json()
        json.dumps(docs)
        assert docs[0]["name"] == "a"
        assert docs[0]["children"][0]["name"] == "b"

    def test_trace_ring_is_bounded(self):
        tracer = Tracer()
        for i in range(MAX_TRACES + 6):
            with tracer.span(f"t{i}"):
                pass
        assert len(tracer.traces) == MAX_TRACES
        assert tracer.last_trace.name == f"t{MAX_TRACES + 5}"
        # The six evicted traces are tallied, not silently lost.
        assert tracer.dropped == 6


class TestNullInstrumentation:
    def test_noop_surface(self):
        null = NullInstrumentation()
        assert null.enabled is False
        with null.span("anything", x=1) as span:
            span.annotate(y=2)
        null.inc("c", kind="x")
        null.observe("h", 1.0)
        null.set_gauge("g", 5)
        assert null.registry is None and null.tracer is None

    def test_null_span_is_reused(self):
        assert NULL.span("a") is NULL.span("b")


class TestRuntime:
    def test_attach_respects_explicit_sinks(self):
        class Holder:
            def __init__(self, obs):
                self.obs = obs

        instr = Instrumentation()
        other = Instrumentation()
        defaulted, explicit = Holder(NULL), Holder(other)
        runtime.attach(instr, defaulted, explicit, None)
        assert defaulted.obs is instr
        assert explicit.obs is other


@pytest.fixture(scope="module")
def traced_run():
    """One tiny-scale measurement run with live instrumentation."""
    instr = Instrumentation()
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=3),
        seed=3,
        atlas_size=20,
        instrumentation=instr,
    )
    source = scenario.sources()[0]
    engine = scenario.engine(source, "revtr2.0")
    results = [
        engine.measure(dst)
        for dst in scenario.responsive_destinations(3, options_only=True)
    ]
    return instr, engine, results


class TestEndToEnd:
    def test_span_tree_covers_the_pipeline(self, traced_run):
        instr, engine, results = traced_run
        assert len(instr.tracer.traces) == len(results)
        for root, result in zip(instr.tracer.traces, results):
            assert root.name == "revtr.measure"
            assert root.attrs["status"] == result.status.value
            assert root.attrs["hops"] == len(result.hops)
            names = {span.name for span in root.walk()}
            # Every measurement at least pings (annotated on the root)
            # and tries to intersect; a successful intersection leaves
            # a marker span, misses are tallied on the root.
            assert root.attrs["ping_check"] is True
            assert root.attrs["intersect_attempts"] >= 1
            if result.intersection_vp is not None:
                assert "atlas.intersect" in names
            # Sim-clock duration mirrors the result's duration.
            assert root.sim_duration == pytest.approx(result.duration)

    def test_rr_and_stitch_spans_match_techniques(self, traced_run):
        instr, engine, results = traced_run
        from repro.core.result import HopTechnique

        for root, result in zip(instr.tracer.traces, results):
            techniques = set(result.techniques())
            if (
                HopTechnique.RR in techniques
                or HopTechnique.SPOOFED_RR in techniques
            ):
                assert root.find("rr.step")
            if HopTechnique.INTERSECTION in techniques:
                assert root.find("stitch")

    def test_span_names_cover_the_techniques(self):
        """A hop's technique has a span of its own under the
        measurement that adopted it, and a spoofed batch's span is as
        long on the virtual clock as its timeout, whoever answered."""
        from repro.core.result import HopTechnique
        from repro.probing.prober import SPOOF_BATCH_TIMEOUT

        instr = Instrumentation()
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3),
            seed=3,
            atlas_size=20,
            instrumentation=instr,
        )
        engine = scenario.engine(scenario.sources()[0], "revtr2.0")
        span_of = {
            HopTechnique.SPOOFED_RR: "rr.spoofed_batch",
            HopTechnique.ASSUMED_SYMMETRY: "symmetry.assume",
            HopTechnique.INTERSECTION: "atlas.intersect",
        }
        seen = set()
        for dst in scenario.responsive_destinations(options_only=True):
            result = engine.measure(dst)
            root = instr.tracer.last_trace
            for technique in span_of.keys() & set(result.techniques()):
                assert root.find(span_of[technique]), (dst, technique)
                seen.add(technique)
            for span in root.find("rr.spoofed_batch"):
                assert span.sim_duration == SPOOF_BATCH_TIMEOUT
            if len(seen) == len(span_of):
                break
        assert len(seen) == len(span_of)

    def test_metric_deltas(self, traced_run):
        instr, engine, results = traced_run
        registry = instr.registry
        measured = sum(
            series["value"]
            for series in registry.snapshot()[
                "revtr_measurements_total"
            ]["series"]
        )
        assert measured == len(results)
        # Probe metrics mirror the ProbeCounter (background + online
        # probers share the scenario-wide instrumentation).
        total_probes = sum(
            series["value"]
            for series in registry.snapshot()["probes_sent_total"][
                "series"
            ]
        )
        expected = (
            engine.prober.counter.total()
        )
        assert total_probes >= expected > 0
        # Duration histogram observed one sample per measurement.
        hist = registry.snapshot()["revtr_measure_duration_seconds"]
        assert hist["series"][0]["count"] == len(results)
        # The exposition is non-empty and parseable-ish.
        text = registry.render_prometheus()
        assert "revtr_measurements_total" in text

    def test_json_trace_export(self, traced_run):
        instr, _, _ = traced_run
        docs = instr.tracer.export_json()
        json.dumps(docs)
        assert all(doc["name"] == "revtr.measure" for doc in docs)

    def test_null_facade_changes_nothing(self):
        def run(instrumentation):
            scenario = Scenario(
                config=TopologyConfig.tiny(seed=3),
                seed=3,
                atlas_size=20,
                instrumentation=instrumentation,
            )
            engine = scenario.engine(scenario.sources()[0], "revtr2.0")
            return [
                engine.measure(dst)
                for dst in scenario.responsive_destinations(
                    3, options_only=True
                )
            ]

        plain = run(None)  # NULL default
        traced = run(Instrumentation())
        assert [r.addresses() for r in plain] == [
            r.addresses() for r in traced
        ]
        assert [r.status for r in plain] == [r.status for r in traced]
        assert [r.probe_counts for r in plain] == [
            r.probe_counts for r in traced
        ]
        assert [r.duration for r in plain] == [
            r.duration for r in traced
        ]


class TestServiceIntrospection:
    def test_metrics_snapshot(self):
        from repro.service.api import MeasurementRequest, RevtrService
        from repro.service.sources import SourceRegistry

        instr = Instrumentation()
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3),
            seed=3,
            atlas_size=20,
            instrumentation=instr,
        )
        registry = SourceRegistry(
            scenario.internet,
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.spoofer_addrs,
            atlas_size=10,
            seed=3,
        )
        service = RevtrService(
            prober=scenario.online_prober,
            registry=registry,
            selector=scenario.selector("revtr2.0"),
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            resolver=scenario.resolver,
            instrumentation=instr,
        )
        user = service.add_user("alice")
        source = scenario.sources()[0]
        service.add_source(user.api_key, source)
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        service.request(
            MeasurementRequest(api_key=user.api_key, dst=dst, src=source)
        )
        # What an operator scrapes: the registry snapshot behind
        # ``/metrics`` and the completed span trees.
        snap = instr.registry.snapshot()
        json.dumps(snap)
        assert any(
            series["labels"].get("user") == "alice"
            for series in snap["service_requests_total"]["series"]
        )
        trace_names = {t["name"] for t in instr.tracer.export_json()}
        assert "service.request" in trace_names
