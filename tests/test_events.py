"""Tests for the measurement flight recorder (repro.obs events).

Covers the event ring (bounded, lock-free, correlated), the versioned
JSONL schema and its gzip-rotating writer, the provenance ledger's
narrative and summary, the byte-identity guarantee (measurement output
is unchanged by recording), and the CLI verbs built on top
(``explain``, ``events``, ``--events-out``, ``stats --slo``).
"""

import gzip
import json
import os
import threading

import pytest

from repro.cli import main
from repro.experiments import Scenario
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    NULL,
    Event,
    EventLog,
    Instrumentation,
    JsonlEventWriter,
    ProvenanceLedger,
    format_slo,
    read_events,
    slo_summary,
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
        assert log.events(mid=mid)[-1].kind == "rr.step"

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

    def test_clear_is_not_a_drop(self):
        log = EventLog(capacity=8)
        for _ in range(5):
            log.emit("tick")
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0
        log.emit("after")
        assert log.total == 6
        assert [e.kind for e in log.events()] == ["after"]

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

    def test_tail_and_by_kind(self):
        log = EventLog(capacity=32)
        for i in range(10):
            log.emit("a" if i % 2 else "b")
        assert len(log.tail(3)) == 3
        assert log.tail(3)[-1].seq == log.events()[-1].seq
        assert log.by_kind() == {"a": 5, "b": 5}
        summary = log.summary()
        assert summary["schema_version"] == EVENT_SCHEMA_VERSION
        assert summary["total"] == 10

    def test_concurrent_emit(self):
        log = EventLog(capacity=16_384)

        def hammer(tid):
            for i in range(1_000):
                log.emit("tick", tid=tid, i=i)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = log.events()
        assert log.total == 8_000
        assert log.dropped == 0
        # Every emit claimed a distinct slot: no sequence collisions,
        # no lost or duplicated records.
        assert len({e.seq for e in events}) == 8_000
        per_thread = {}
        for e in events:
            per_thread.setdefault(e.fields["tid"], []).append(
                e.fields["i"]
            )
        for tid, seen in per_thread.items():
            assert sorted(seen) == list(range(1_000))


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
        with JsonlEventWriter(path) as writer:
            assert writer.drain(log) == 2
            # A second drain persists only what is new.
            log.emit("c")
            assert writer.drain(log) == 1
        events = read_events(path)
        assert [e.kind for e in events] == ["a", "b", "c"]
        assert events[0].fields == {"x": 1}

    def test_rotation_stitches_back_in_order(self, tmp_path):
        log = EventLog(capacity=4_096)
        path = str(tmp_path / "ev.jsonl")
        # ~60 bytes/record: 100 records span a handful of generations
        # without exceeding the MAX_ROTATIONS retention.
        with JsonlEventWriter(path, rotate_bytes=1500) as writer:
            for i in range(100):
                log.emit("tick", i=i)
                writer.drain(log)
        assert writer.rotations > 0
        assert os.path.exists(path + ".1.gz")
        with gzip.open(path + ".1.gz", "rt") as fh:
            assert fh.readline().strip().startswith("{")
        events = read_events(path)
        assert [e.fields["i"] for e in events] == list(range(100))
        # Rotated-only read still works when the live file was just
        # rotated away.
        live_only = read_events(path, include_rotated=False)
        assert len(live_only) <= len(events)

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
            kinds = {e.kind for e in instr.events.events(mid=mid)}
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
            rr_steps = instr.events.events(mid=mid, kind="rr.step")
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
        rr_steps = len(
            instr.events.events(
                mid=result.measurement_id, kind="rr.step"
            )
        )
        hits = len(
            instr.events.events(
                mid=result.measurement_id, kind="intersect"
            )
        )
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
        with JsonlEventWriter(path) as writer:
            writer.drain(instr.events)
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

    def test_stats_slo(self, capsys):
        code = main(
            [
                "--scale", "tiny", "--seed", "3",
                "stats", "--slo", "--count", "2",
            ]
        )
        assert code == 0
        assert "SLO summary" in capsys.readouterr().out


class TestFollowJsonl:
    """The rotation-aware tail: no skipped and no duplicated records
    across a writer rotation or an out-of-band truncation."""

    def _take(self, follower, n):
        return [next(follower) for _ in range(n)]

    def test_rotation_handoff_no_loss_no_dupes(self, tmp_path):
        from repro.obs import follow_jsonl

        log = EventLog(capacity=4_096)
        path = str(tmp_path / "ev.jsonl")
        # ~60 bytes/record: three records stay under the threshold,
        # two more cross it and trigger a rotation.
        writer = JsonlEventWriter(path, rotate_bytes=250)
        for i in range(3):
            log.emit("tick", i=i)
        writer.drain(log)

        follower = follow_jsonl(path, poll_interval=0.01)
        first = self._take(follower, 3)
        assert [doc["fields"]["i"] for doc in first] == [0, 1, 2]

        # The next drain crosses rotate_bytes: the live file (all five
        # records) moves to .1.gz and is removed.
        for i in range(3, 5):
            log.emit("tick", i=i)
        writer.drain(log)
        assert writer.rotations == 1
        assert not os.path.exists(path)
        # A fresh live file starts after the rotation.
        for i in range(5, 7):
            log.emit("tick", i=i)
        writer.drain(log)
        writer.close()

        # The follower drains the archive for the records it missed
        # (3, 4) — deduplicating 0-2 by seq — then resumes on the new
        # live file (5, 6).
        rest = self._take(follower, 4)
        assert [doc["fields"]["i"] for doc in rest] == [3, 4, 5, 6]
        seqs = [doc["seq"] for doc in first + rest]
        assert seqs == sorted(set(seqs))
        follower.close()

    def test_truncation_resets_offset(self, tmp_path):
        from repro.obs import follow_jsonl

        path = tmp_path / "ev.jsonl"
        path.write_text(
            '{"seq": 0, "kind": "a"}\n'
            '{"seq": 1, "kind": "b"}\n'
            '{"seq": 2, "kind": "c"}\n'
        )
        follower = follow_jsonl(str(path), poll_interval=0.01)
        assert [doc["seq"] for doc in self._take(follower, 3)] == [
            0, 1, 2,
        ]
        # Out-of-band truncation (copytruncate-style logrotate): the
        # file shrinks below the follower's offset and restarts with
        # fresh records.  A stale-offset read would yield garbage or
        # nothing; the follower must restart from the top.
        path.write_text('{"seq": 3, "kind": "d"}\n')
        assert self._take(follower, 1)[0]["seq"] == 3
        follower.close()


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

    def test_merged_buckets_mismatched_grids_step_aligned(self):
        from repro.obs.slo import merged_buckets

        # Children with different grids (as loaded from an old
        # snapshot): each child is a step function; its value at a
        # union edge is held from its greatest edge <= that edge.
        family = {
            "type": "histogram",
            "series": [
                {
                    "labels": {"k": "fine"},
                    "buckets": [[1.0, 1.0], [2.0, 3.0], ["+Inf", 3.0]],
                },
                {
                    "labels": {"k": "coarse"},
                    "buckets": [[2.0, 4.0], ["+Inf", 6.0]],
                },
            ],
        }
        merged = merged_buckets(family)
        assert merged == [
            (1.0, 1.0),  # coarse child holds 0 below its first edge
            (2.0, 7.0),
            (float("inf"), 9.0),
        ]
        # Monotone non-decreasing despite the grid mismatch.
        counts = [count for _, count in merged]
        assert counts == sorted(counts)
