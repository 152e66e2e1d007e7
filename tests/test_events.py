"""Tests for the measurement flight recorder (repro.obs events).

Covers the event ring (bounded, lock-free, correlated), the versioned
JSONL schema and its one-run export, the provenance ledger's
narrative and summary, the byte-identity guarantee (measurement output
is unchanged by recording), and the CLI verbs built on top
(``explain``, ``events``, ``--events-out``, ``stats --slo``).
"""

import json

import pytest

from repro.cli import main
from repro.experiments import Scenario
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    NULL,
    Event,
    EventLog,
    Instrumentation,
    ProvenanceLedger,
    format_slo,
    read_events,
    slo_summary,
    write_events,
)
from repro.topology import TopologyConfig


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


class TestEventLog:
    def test_emit_and_read(self):
        log = EventLog(capacity=16)
        log.emit("measure.begin", dst="10.0.0.1")
        log.emit("rr.step", hop="10.0.0.2", revealed=3)
        events = log.events()
        assert [e.kind for e in events] == ["measure.begin", "rr.step"]
        assert events[0].fields == {"dst": "10.0.0.1"}
        assert events[1].fields["revealed"] == 3
        # Sequence numbers are process-monotonic and strictly ordered.
        assert events[0].seq < events[1].seq

    def test_kind_is_positional_only(self):
        # The payload may itself carry a field named "kind" (the
        # cache uses it as a label).
        log = EventLog(capacity=4)
        log.emit("cache.lookup", kind="rr-step", n=7)
        event = log.events()[0]
        assert event.kind == "cache.lookup"
        assert event.fields == {"kind": "rr-step", "n": 7}

    def test_measurement_correlation(self):
        log = EventLog(capacity=16)
        mid = log.new_measurement_id()
        assert mid == "m-000001"
        previous = log.set_current(mid)
        assert previous is None
        log.emit("measure.begin")
        log.emit("rr.step")
        restored = log.set_current(previous)
        assert restored == mid
        log.emit("sched.done", _mid="m-000099")
        log.emit("uncorrelated")
        assert [e.mid for e in log.events()] == [
            mid, mid, "m-000099", None,
        ]
        assert [e for e in log.events() if e.mid == mid][-1].kind == (
            "rr.step"
        )

    def test_ring_is_bounded_and_counts_drops(self):
        log = EventLog(capacity=8)
        for i in range(20):
            log.emit("tick", i=i)
        assert len(log) == 8
        assert log.total == 20
        assert log.dropped == 12
        # The ring keeps the newest events.
        assert [e.fields["i"] for e in log.events()] == list(
            range(12, 20)
        )

    def test_sim_clock_late_binding(self):
        log = EventLog(capacity=4)
        log.emit("before")
        clock = FakeClock()
        clock.t = 2.5
        log.clock = clock
        log.emit("after")
        before, after = log.events()
        assert before.sim is None
        assert after.sim == 2.5


class TestEventSchema:
    def test_round_trip(self):
        event = Event(
            seq=7, wall=123.456, sim=9.5, mid="m-000002",
            kind="rr.step", fields={"hop": "10.0.0.1", "n": 3},
        )
        doc = json.loads(json.dumps(event.to_dict()))
        assert doc["v"] == EVENT_SCHEMA_VERSION
        back = Event.from_dict(doc)
        assert (back.seq, back.sim, back.mid, back.kind) == (
            7, 9.5, "m-000002", "rr.step",
        )
        assert back.fields == {"hop": "10.0.0.1", "n": 3}

    def test_unknown_version_is_rejected(self):
        doc = {"v": 2, "seq": 0, "kind": "x"}
        with pytest.raises(ValueError, match="schema version"):
            Event.from_dict(doc)

    def test_optional_fields_are_elided(self):
        doc = Event(
            seq=0, wall=1.0, sim=None, mid=None, kind="x", fields={},
        ).to_dict()
        assert "sim" not in doc
        assert "mid" not in doc
        assert "fields" not in doc


class TestJsonlIO:
    def test_write_and_read(self, tmp_path):
        log = EventLog(capacity=32)
        log.emit("a", x=1)
        log.emit("b")
        path = str(tmp_path / "ev.jsonl")
        write_events(path, log.events())
        events = read_events(path)
        assert [e.kind for e in events] == ["a", "b"]
        assert events[0].fields == {"x": 1}
        # A second write replaces the file; it never appends.
        write_events(path, [e for e in log.events() if e.kind == "b"])
        assert [e.kind for e in read_events(path)] == ["b"]

    def test_read_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"v": 99, "seq": 0, "kind": "x"}\n')
        with pytest.raises(ValueError, match="schema version"):
            read_events(str(path))


@pytest.fixture(scope="module")
def recorded_run():
    """Two identically seeded runs: recorder on and recorder off."""
    instr = Instrumentation()
    on = Scenario(
        config=TopologyConfig.tiny(seed=5), seed=5, atlas_size=20,
        instrumentation=instr,
    )
    off = Scenario(
        config=TopologyConfig.tiny(seed=5), seed=5, atlas_size=20,
    )
    destinations = on.responsive_destinations(2, options_only=True)
    engine_on = on.engine(on.sources()[0], "revtr2.0")
    engine_off = off.engine(off.sources()[0], "revtr2.0")
    results_on = [engine_on.measure(d) for d in destinations]
    results_off = [engine_off.measure(d) for d in destinations]
    return instr, results_on, results_off


class TestProvenance:
    def test_measurements_are_correlated(self, recorded_run):
        instr, results_on, _ = recorded_run
        mids = list(
            dict.fromkeys(
                e.mid for e in instr.events.events() if e.mid is not None
            )
        )
        assert [r.measurement_id for r in results_on] == mids
        for mid in mids:
            kinds = {
                e.kind for e in instr.events.events() if e.mid == mid
            }
            assert "measure.begin" in kinds
            assert "measure.end" in kinds

    def test_output_is_byte_identical(self, recorded_run):
        _, results_on, results_off = recorded_run
        for on, off in zip(results_on, results_off):
            assert on.measurement_id is not None
            assert off.measurement_id is None
            on_doc = json.dumps(on.to_dict(), sort_keys=True)
            off_doc = json.dumps(off.to_dict(), sort_keys=True)
            assert on_doc == off_doc
            assert "measurement_id" not in on.to_dict()
            assert on.render() == off.render()

    def test_explain_narrative(self, recorded_run):
        instr, results_on, _ = recorded_run
        result = results_on[0]
        ledger = ProvenanceLedger.from_events(
            instr.events.events(), result.measurement_id
        )
        text = ledger.explain()
        assert f"measurement {result.measurement_id}" in text
        assert "decision path:" in text
        assert " 1. " in text
        assert "outcome:" in text
        assert "probe budget spent:" in text

    def test_implied_intersect_misses_are_synthesized(
        self, recorded_run
    ):
        # RR steps are only taken after an atlas-intersection miss;
        # the miss event is elided on the hot path and re-created by
        # the renderer, so the narrative shows one miss per RR step.
        instr, results_on, _ = recorded_run
        for result in results_on:
            mid = result.measurement_id
            rr_steps = [
                e
                for e in instr.events.events()
                if e.mid == mid and e.kind == "rr.step"
            ]
            text = ProvenanceLedger.from_events(
                instr.events.events(), mid
            ).explain()
            assert text.count(": miss") == len(rr_steps)

    def test_summary_counts(self, recorded_run):
        instr, results_on, _ = recorded_run
        result = results_on[0]
        ledger = ProvenanceLedger.from_events(
            instr.events.events(), result.measurement_id
        )
        summary = ledger.summary()
        assert summary["mid"] == result.measurement_id
        assert summary["status"] == result.status.value
        kinds = [
            e.kind
            for e in instr.events.events()
            if e.mid == result.measurement_id
        ]
        rr_steps = kinds.count("rr.step")
        hits = kinds.count("intersect")
        assert summary["intersect_attempts"] == rr_steps + hits
        total_hops = sum(summary["hops_by_technique"].values())
        assert total_hops == len(result.hops)
        parsed = json.loads(json.dumps(summary))
        assert parsed["probes"]

    def test_slo_rollup_renders(self, recorded_run):
        instr, _, _ = recorded_run
        summary = slo_summary(instr.registry.snapshot())
        text = format_slo(summary)
        assert "SLO summary" in text
        assert "per-technique success:" in text
        assert "latency (sim-seconds):" in text

    def test_events_survive_jsonl_round_trip(
        self, recorded_run, tmp_path
    ):
        instr, results_on, _ = recorded_run
        path = str(tmp_path / "run.jsonl")
        write_events(path, instr.events.events())
        events = read_events(path)
        mid = results_on[0].measurement_id
        assert ProvenanceLedger.from_events(
            events, mid
        ).explain() == ProvenanceLedger.from_events(
            instr.events.events(), mid
        ).explain()


class TestRecorderAlwaysOn:
    def test_nonpositive_event_capacity_is_rejected(self):
        # There is no "metrics + tracer, no flight recorder" mode: a
        # live facade always records, only the null facade does not.
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                Instrumentation(event_capacity=capacity)
        assert NULL.events is None


class TestCliVerbs:
    def test_measure_events_out_then_explain(self, tmp_path, capsys):
        path = str(tmp_path / "ev.jsonl")
        code = main(
            [
                "--scale", "tiny", "--seed", "3",
                "measure", "--count", "2", "--events-out", path,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert read_events(path)

        code = main(["explain", "--events", path, "last"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decision path:" in out

        code = main(["explain", "--events", path, "all", "--json"])
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert isinstance(docs, list) and len(docs) == 2

    def test_a_second_export_replaces_the_first(self, tmp_path, capsys):
        # One file is one run: exporting seed 3 and then seed 4 to the
        # same path leaves exactly what a fresh seed-4 export holds, so
        # `explain` never narrates two runs' events as one measurement.
        shared, fresh = tmp_path / "shared.jsonl", tmp_path / "fresh.jsonl"
        for seed, path in ((3, shared), (4, shared), (4, fresh)):
            assert main(
                [
                    "--scale", "tiny", "--seed", str(seed),
                    "measure", "--count", "2", "--events-out", str(path),
                ]
            ) == 0
        capsys.readouterr()

        def records(path):
            docs = [json.loads(line) for line in path.read_text().splitlines()]
            for doc in docs:
                del doc["wall"]
            return docs

        assert records(shared) == records(fresh)
        for argv in (["explain", "all"], ["explain", "all", "--json"]):
            assert main(argv + ["--events", str(shared)]) == 0
            narrated = capsys.readouterr().out
            assert main(argv + ["--events", str(fresh)]) == 0
            assert narrated == capsys.readouterr().out

    def test_explain_unknown_mid_errors(self, tmp_path, capsys):
        path = str(tmp_path / "ev.jsonl")
        main(
            [
                "--scale", "tiny", "--seed", "3",
                "measure", "--count", "1", "--events-out", path,
            ]
        )
        capsys.readouterr()
        code = main(["explain", "--events", path, "m-999999"])
        assert code != 0

    def test_events_verb_filters(self, tmp_path, capsys):
        path = str(tmp_path / "ev.jsonl")
        main(
            [
                "--scale", "tiny", "--seed", "3",
                "measure", "--count", "1", "--events-out", path,
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "events", "--from", path,
                "--kind", "rr.step", "--json",
            ]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert lines
        assert all(doc["kind"] == "rr.step" for doc in lines)

    def test_stats_slo(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        code = main(
            [
                "--scale", "tiny", "--seed", "3",
                "measure", "--count", "2", "--metrics-out", path,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["stats", "--slo", "--from", path]) == 0
        assert "SLO summary" in capsys.readouterr().out


class TestQuantileEdgeCases:
    """Edge cases in the slo.py quantile/bucket math."""

    def _q(self, buckets, q):
        from repro.obs.slo import histogram_quantile

        return histogram_quantile(buckets, q)

    def test_empty_histogram_is_none(self):
        assert self._q([], 0.5) is None
        # All-zero buckets: nothing was observed.
        assert self._q([(1.0, 0.0), (float("inf"), 0.0)], 0.5) is None

    def test_inf_only_bucket_is_none(self):
        # Every observation in a lone +Inf bucket: no finite estimate.
        assert self._q([(float("inf"), 7.0)], 0.5) is None
        # Finite edges exist but are empty; mass only above them.
        assert self._q(
            [(1.0, 0.0), (float("inf"), 7.0)], 0.5
        ) == 1.0  # highest finite edge

    def test_quantile_at_exact_bucket_edge(self):
        buckets = [(1.0, 4.0), (2.0, 8.0), (float("inf"), 8.0)]
        # Rank 4 of 8 falls exactly on the le=1.0 boundary.
        assert self._q(buckets, 0.5) == pytest.approx(1.0)
        # Just past the boundary interpolates into the next bucket.
        assert self._q(buckets, 0.51) == pytest.approx(1.02)
        assert self._q(buckets, 1.0) == pytest.approx(2.0)

    def test_q_zero_reports_first_nonempty_lower_bound(self):
        buckets = [(1.0, 0.0), (2.0, 5.0), (float("inf"), 5.0)]
        # Empty leading bucket: minimum estimate starts at its edge,
        # not at zero.
        assert self._q(buckets, 0.0) == pytest.approx(1.0)
        # Without a leading empty bucket, the lower bound is 0.
        assert self._q(
            [(2.0, 5.0), (float("inf"), 5.0)], 0.0
        ) == pytest.approx(0.0)

    def test_interpolation_within_bucket(self):
        buckets = [(1.0, 0.0), (3.0, 10.0), (float("inf"), 10.0)]
        assert self._q(buckets, 0.5) == pytest.approx(2.0)
        assert self._q(buckets, 0.25) == pytest.approx(1.5)

    def test_unsorted_input_tolerated(self):
        buckets = [(float("inf"), 8.0), (1.0, 4.0), (2.0, 8.0)]
        assert self._q(buckets, 0.5) == pytest.approx(1.0)

    def test_merged_buckets_matching_grids(self):
        from repro.obs.slo import merged_buckets

        family = {
            "type": "histogram",
            "series": [
                {
                    "labels": {"k": "a"},
                    "buckets": [[1.0, 2.0], ["+Inf", 3.0]],
                },
                {
                    "labels": {"k": "b"},
                    "buckets": [[1.0, 1.0], ["+Inf", 4.0]],
                },
            ],
        }
        assert merged_buckets(family) == [
            (1.0, 3.0),
            (float("inf"), 7.0),
        ]
