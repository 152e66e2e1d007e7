"""Tests for the observability layer (repro.obs)."""

import json
import re
import threading

import pytest

from repro.experiments import Scenario
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    NullInstrumentation,
    render_text,
)
from repro.obs.metrics import family_total
from repro.obs.timeseries import install_sampler
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
        # One writer increments and publishes samples; reader threads
        # read only what was published, and never see it go back.
        instr = Instrumentation()
        sampler = install_sampler(instr, sim_interval=None)
        counter = instr.registry.counter("contended").labels()
        stop = threading.Event()
        seen = []
        errors = []

        def read():
            last = 0.0
            try:
                while not stop.is_set():
                    latest = sampler.latest
                    if latest is None:
                        continue
                    value = family_total(latest.metrics, "contended")
                    assert value >= last, (value, last)
                    last = value
                seen.append(last)
            except Exception as exc:  # reported below
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        for t in readers:
            t.start()
        for i in range(80_000):
            counter.inc()
            if i % 1_000 == 999:
                sampler.sample()
        stop.set()
        for t in readers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in readers)
        assert errors == []
        assert counter.value == 80_000
        assert family_total(sampler.latest.metrics, "contended") == 80_000
        assert len(seen) == 4 and max(seen) > 0

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
        text = render_text(registry.snapshot())
        assert "# HELP steps_total Steps." in text
        assert "# TYPE steps_total counter" in text
        assert 'steps_total{kind="rr_spoofed"} 7' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_render_text_roundtrips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(x="y").inc()
        direct = render_text(registry.snapshot())
        via_json = render_text(
            json.loads(json.dumps(registry.snapshot()))
        )
        assert direct == via_json

    def test_exposition_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "weird_total", 'Backslash \\ and\nnewline "quoted".'
        ).labels(path='C:\\tmp\n"x"').inc()
        text = render_text(registry.snapshot())
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
        text = render_text(registry.snapshot())

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


class TestNullInstrumentation:
    def test_noop_surface(self):
        null = NullInstrumentation()
        assert null.enabled is False
        null.inc("c", kind="x")
        null.observe("h", 1.0)
        null.set_gauge("g", 5)
        null.emit("x", y=2)
        assert null.registry is None and null.events is None


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


def measurement_events(instr):
    """The flight recorder's events by measurement id, in order."""
    by_mid = {}
    for event in instr.events.events():
        if event.mid is not None:
            by_mid.setdefault(event.mid, []).append(event)
    return by_mid


def recorded(events):
    """What *events* record: each kind, and ``kind/outcome`` where the
    event has an outcome."""
    return {event.kind for event in events} | {
        f"{event.kind}/{event.fields['outcome']}"
        for event in events
        if "outcome" in event.fields
    }


class TestEndToEnd:
    def test_events_cover_the_pipeline(self, traced_run):
        """Each measurement is one run of events under its id, from
        ``measure.begin`` to ``measure.end``; the end event carries the
        result, and its duration is the sim gap between the two."""
        instr, engine, results = traced_run
        by_mid = measurement_events(instr)
        assert list(by_mid) == [r.measurement_id for r in results]
        for result in results:
            events = by_mid[result.measurement_id]
            begin, end = events[0], events[-1]
            assert begin.kind == "measure.begin"
            assert end.kind == "measure.end"
            assert end.fields["status"] == result.status.value
            assert end.fields["hops"] == len(result.hops)
            # Every measurement pings first; a successful intersection
            # is recorded, misses only tallied.
            assert end.fields["ping"] is True
            if result.intersection_vp is not None:
                assert "intersect/hit" in recorded(events)
            assert end.fields["duration"] == result.duration
            assert end.sim - begin.sim == result.duration

    def test_rr_and_stitch_spans_match_techniques(self, traced_run):
        """An RR or spoofed-RR hop has an ``rr.step`` event under its
        measurement's id, and an intersection hop has the hit and the
        ``stitch`` that spliced it."""
        instr, engine, results = traced_run
        from repro.core.result import HopTechnique

        by_mid = measurement_events(instr)
        for result in results:
            techniques = {hop.technique for hop in result.hops}
            kinds = recorded(by_mid[result.measurement_id])
            if (
                HopTechnique.RR in techniques
                or HopTechnique.SPOOFED_RR in techniques
            ):
                assert "rr.step" in kinds
            if HopTechnique.INTERSECTION in techniques:
                assert {"intersect/hit", "stitch"} <= kinds

    def test_span_names_cover_the_techniques(self):
        """A hop's technique has the events that adopted it under the
        measurement's id, and a spoofed batch is stamped a full batch
        timeout after the event before it, whoever answered."""
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
        events_of = {
            HopTechnique.RR: {"rr.step"},
            HopTechnique.SPOOFED_RR: {"rr.step", "rr.batch"},
            HopTechnique.ASSUMED_SYMMETRY: {"fallback/adopted"},
            HopTechnique.INTERSECTION: {"intersect/hit", "stitch"},
        }
        seen = set()
        batches = 0
        for dst in scenario.responsive_destinations(options_only=True):
            result = engine.measure(dst)
            events = measurement_events(instr)[result.measurement_id]
            for technique in events_of.keys() & {
                hop.technique for hop in result.hops
            }:
                assert events_of[technique] <= recorded(events), (
                    dst, technique,
                )
                seen.add(technique)
            for before, event in zip(events, events[1:]):
                if event.kind == "rr.batch":
                    assert event.sim - before.sim >= SPOOF_BATCH_TIMEOUT
                    batches += 1
            if len(seen) == len(events_of):
                break
        assert len(seen) == len(events_of) and batches

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
        text = render_text(registry.snapshot())
        assert "revtr_measurements_total" in text

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
        # ``/metrics``, and the request's ledger entry.
        snap = instr.registry.snapshot()
        json.dumps(snap)
        assert any(
            series["labels"].get("user") == "alice"
            for series in snap["service_requests_total"]["series"]
        )
        (request,) = [
            event
            for event in instr.events.events()
            if event.kind == "service.request"
        ]
        assert request.fields["user"] == "alice"


def test_no_span_is_opened(monkeypatch, capsys):
    """The event is the only record of a decision: with
    ``Tracer.span`` raising, a live facade serves a faulted scheduled
    stream (same-source groups, segment cache), a direct
    ``service.request`` and ``repro measure --json``."""
    from repro.cli import main
    from repro.core.revtr import EngineConfig
    from repro.obs.tracing import Tracer
    from repro.service import JobState, MeasurementRequest, SchedulerConfig
    from repro.sim.faults import preset_plan

    def refuse(*args, **kwargs):
        raise AssertionError("a span was opened")

    monkeypatch.setattr(Tracer, "span", refuse)
    instr = Instrumentation()
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=3),
        seed=3,
        atlas_size=10,
        instrumentation=instr,
    )
    source = scenario.sources()[0]
    door = scenario.front_door(
        EngineConfig(retry_budget=4),
        [("ops", 4, 1_000)],
        SchedulerConfig(parallelism=4, max_queue_per_user=100),
        plan=preset_plan(
            "mixed",
            seed=3,
            vps=[vp for vp in scenario.spoofer_addrs if vp != source],
        ),
    )
    key = door.users[0].api_key
    dsts = scenario.responsive_destinations(12, options_only=True)
    jobs = [door.scheduler.submit(key, dst, source) for dst in dsts * 2]
    door.scheduler.run()
    assert all(job.state is JobState.DONE for job in jobs)
    door.service.request(
        MeasurementRequest(api_key=key, dst=dsts[0], src=source)
    )
    ends = [e for e in instr.events.events() if e.kind == "measure.end"]
    assert len(ends) == len(jobs) + 1
    argv = ["--scale", "tiny", "--seed", "3", "measure", "--count", "3"]
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["measurements"]) == 3
