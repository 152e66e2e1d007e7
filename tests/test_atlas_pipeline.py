"""Tests for the atlas pipeline (sharded build, dedup, refresh, snapshots).

The acceptance bar for the pipeline is byte-identity: batched probing,
probe dedup, shard-lane accounting and snapshot warm-start must
produce exactly the atlases — and exactly the downstream
reverse-traceroute results — that probing one hop occurrence at a
time produces (``tests/helpers/reference_rr_atlas.py``).  Forwarding
outcomes are pure functions of each probe, so these tests can compare
dictionaries directly instead of sampling.
"""

import gzip
import json

import pytest

from repro.core import (
    AtlasPipeline,
    LaneSchedule,
    SnapshotError,
    SnapshotMismatch,
    load_snapshot,
    save_snapshot,
)
from repro.core.atlas import TracerouteAtlas
from repro.core.atlas_pipeline import SNAPSHOT_VERSION
from repro.core.rr_atlas import RRAtlas
from repro.experiments import Scenario
from repro.net.packet import TracerouteResult
from repro.topology import TopologyConfig
from repro.topology.generator import build_internet
from tests.helpers.reference_rr_atlas import (
    probe_ladders_serial,
    reference_build,
)

SEED = 5
ATLAS_SIZE = 20
N_MEASURE = 4


def fresh_scenario():
    return Scenario(
        config=TopologyConfig.small(seed=SEED),
        seed=SEED,
        atlas_size=ATLAS_SIZE,
    )


def atlas_key(atlas):
    """Byte-comparable atlas contents."""
    return {
        vp: (tuple(trace.hops), trace.reached, trace.flow_id,
             trace.timestamp)
        for vp, trace in atlas.traceroutes.items()
    }


def measure_stream(scenario, source, destinations):
    engine = scenario.engine(source)
    return [
        (dst, result.status.value, tuple(result.addresses()))
        for dst, result in (
            (dst, engine.measure(dst)) for dst in destinations
        )
    ]


@pytest.fixture(scope="module")
def serial_world():
    """Oracle path: plain traceroute build + the reference RR build
    (one probe at a time, one ladder per hop occurrence)."""
    scenario = fresh_scenario()
    source = scenario.sources()[0]
    atlas = TracerouteAtlas(source, max_size=ATLAS_SIZE)
    atlas.build(
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.bundle_rng(source),
        size=ATLAS_SIZE,
    )
    rr_atlas = RRAtlas(atlas)
    reference_build(
        rr_atlas, scenario.background_prober, scenario.spoofer_addrs
    )
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas


@pytest.fixture(scope="module")
def sharded_world():
    """Pipeline path: sharded virtual-clock build."""
    scenario = fresh_scenario()
    source = scenario.sources()[0]
    pipeline = scenario.atlas_pipeline(shards=4)
    atlas, rr_atlas = pipeline.bootstrap(
        source,
        scenario.bundle_rng(source),
        size=ATLAS_SIZE,
        max_size=ATLAS_SIZE,
    )
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas, pipeline


class TestLaneSchedule:
    def test_earliest_free_lane_with_low_index_ties(self):
        lanes = LaneSchedule(3)
        assert [lanes.assign(d) for d in (4.0, 1.0, 1.0, 1.0, 3.0)] == [
            0, 1, 2, 1, 2,
        ]
        assert lanes.lanes == [4.0, 2.0, 4.0]
        assert lanes.makespan == 4.0

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            LaneSchedule(0)


class TestShardedByteIdentity:
    """Acceptance criterion: sharded == serial, bytes and downstream."""

    def test_atlas_contents_identical(self, serial_world, sharded_world):
        _, _, serial_atlas, _ = serial_world
        _, _, sharded_atlas, _, _ = sharded_world
        assert atlas_key(sharded_atlas) == atlas_key(serial_atlas)

    def test_rr_mapping_identical_and_dedup_cheaper(
        self, serial_world, sharded_world
    ):
        _, _, _, serial_rr = serial_world
        _, _, _, sharded_rr, _ = sharded_world
        assert sharded_rr._mapping == serial_rr._mapping
        # Dedup removes probes without changing the mapping; together
        # sent + saved must account for every per-occurrence probe.
        assert sharded_rr.probes_sent < serial_rr.probes_sent
        assert sharded_rr.probes_deduped > 0
        assert (
            sharded_rr.probes_sent + sharded_rr.probes_deduped
            == serial_rr.probes_sent
        )

    def test_downstream_revtr_results_identical(
        self, serial_world, sharded_world
    ):
        serial_sc, source, _, _ = serial_world
        sharded_sc, _, _, _, _ = sharded_world
        destinations = serial_sc.responsive_destinations(N_MEASURE)
        assert destinations == sharded_sc.responsive_destinations(
            N_MEASURE
        )
        assert measure_stream(
            serial_sc, source, destinations
        ) == measure_stream(sharded_sc, source, destinations)

    def test_stage_reports_account_every_virtual_second(
        self, sharded_world
    ):
        _, _, _, _, pipeline = sharded_world
        stages = {report.stage: report for report in pipeline.reports}
        assert set(stages) == {"traceroute", "rr"}
        for report in stages.values():
            assert report.shards == 4
            assert report.tasks > 0
            assert report.probes_sent > 0
            assert report.serial_seconds == pytest.approx(
                sum(report.lane_seconds)
            )
            assert report.makespan_seconds == max(report.lane_seconds)
            assert report.speedup > 1.0
        assert stages["rr"].probes_deduped > 0


class TestBatchedSerialEquivalence:
    """Satellite: batched, deduplicated RR build == the reference
    loop, probe for probe, on one prober."""

    def test_all_mode_combinations_share_one_mapping(self, serial_world):
        """Per distinct address in batched rounds (``RRAtlas.build``)
        or per occurrence one probe at a time (the reference): one
        mapping, and every reference probe is either sent or saved."""
        scenario, _, atlas, baseline = serial_world
        rr_atlas = RRAtlas(atlas)
        rr_atlas.build(
            scenario.background_prober, scenario.spoofer_addrs
        )
        assert rr_atlas._mapping == baseline._mapping
        stats, expected = rr_atlas.last_build, baseline.last_build
        assert stats.occurrences == expected.occurrences
        assert stats.units < expected.units == expected.occurrences
        assert (
            rr_atlas.probes_sent + rr_atlas.probes_deduped
            == baseline.probes_sent
        )
        assert rr_atlas.probes_deduped > 0
        assert baseline.probes_deduped == 0

    def test_batched_clock_advance_matches_serial(self, serial_world):
        scenario, _, atlas, _ = serial_world
        prober = scenario.background_prober
        spoofers = scenario.spoofer_addrs
        source = atlas.source

        started = prober.clock.now()
        rr_atlas = RRAtlas(atlas)
        rr_atlas.build(prober, spoofers)
        elapsed = prober.clock.now() - started
        stats = rr_atlas.last_build
        assert sum(stats.unit_costs) == pytest.approx(elapsed)

        # The same distinct targets, one ladder at a time: each ladder
        # costs what its batched rounds were accounted, and the clock
        # advances by the same total.
        targets = list(
            dict.fromkeys(
                hop
                for trace in atlas.traceroutes.values()
                for hop in trace.hops
                if hop is not None and hop != source
            )
        )
        started = prober.clock.now()
        ladders = probe_ladders_serial(
            prober, source, targets, spoofers[:2]
        )
        assert prober.clock.now() - started == pytest.approx(elapsed)
        assert [cost for _, _, cost in ladders] == pytest.approx(
            stats.unit_costs
        )
        assert sum(n for _, n, _ in ladders) == stats.probes_sent


class TestRRAtlasStaleLookup:
    """Satellite: a pruned-VP alias must not count as an obs hit."""

    def _tiny_rr(self):
        atlas = TracerouteAtlas("10.0.0.1", max_size=4)
        atlas.add(
            TracerouteResult(
                src="10.9.9.9",
                dst="10.0.0.1",
                hops=["10.1.1.1", "10.0.0.1"],
                reached=True,
                timestamp=5.0,
            )
        )
        rr_atlas = RRAtlas(atlas)
        rr_atlas._mapping["10.2.2.2"] = ("10.9.9.9", 0)
        return atlas, rr_atlas

    def test_live_alias_is_a_hit(self):
        _, rr_atlas = self._tiny_rr()
        hit = rr_atlas.lookup("10.2.2.2")
        assert hit is not None and hit.vp == "10.9.9.9"
        assert (rr_atlas._obs_hits, rr_atlas._obs_stale) == (1, 0)

    def test_pruned_vp_counts_stale_not_hit(self):
        atlas, rr_atlas = self._tiny_rr()
        atlas.remove("10.9.9.9")
        assert rr_atlas.lookup("10.2.2.2") is None
        assert rr_atlas._obs_hits == 0
        assert rr_atlas._obs_misses == 0
        assert rr_atlas._obs_stale == 1

    def test_unknown_alias_still_a_miss(self):
        _, rr_atlas = self._tiny_rr()
        assert rr_atlas.lookup("10.3.3.3") is None
        assert (rr_atlas._obs_misses, rr_atlas._obs_stale) == (1, 0)


class TestRefreshPrunesUnresponsive:
    """Satellite: an unresponsive keep-VP is removed, not kept stale."""

    def test_unresponsive_keep_removed_and_slot_topped_up(
        self, serial_world
    ):
        scenario, source, _, _ = serial_world
        prober = scenario.background_prober
        atlas = TracerouteAtlas(source, max_size=3)
        # A vantage point that does not exist in the simulation: its
        # re-measurement drops every probe, i.e. fully unresponsive.
        ghost = "203.0.113.77"
        atlas.add(
            TracerouteResult(
                src=ghost,
                dst=source,
                hops=["203.0.113.1", source],
                reached=True,
                timestamp=prober.clock.now(),
            )
        )
        atlas.mark_useful(ghost)
        rng = scenario.bundle_rng(source)
        atlas.refresh(prober, scenario.atlas_vp_addrs, rng)
        assert ghost not in atlas.traceroutes
        assert atlas.lookup("203.0.113.1") is None
        assert atlas.last_refresh["pruned_unresponsive"] == 1
        assert atlas.last_refresh["remeasured"] == 1
        # The freed slot counts toward the top-up target.
        assert len(atlas) == 3
        assert atlas.last_refresh["replaced"] == 3


class TestIncrementalRefresh:
    def _built_atlas(self, scenario, source, staleness=1e9):
        atlas = TracerouteAtlas(
            source, max_size=8, staleness=staleness
        )
        atlas.build(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            size=8,
        )
        return atlas

    def test_generation_fresh_keeps_are_skipped(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        before = atlas_key(atlas)
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            incremental=True,
        )
        assert atlas.last_refresh["remeasured"] == 0
        assert atlas.last_refresh["skipped"] == len(before)
        assert atlas_key(atlas) == before

    def test_routing_generation_bump_forces_remeasure(
        self, serial_world
    ):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source)
        kept = len(atlas)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        scenario.internet.invalidate_routing()
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            incremental=True,
        )
        assert atlas.last_refresh["skipped"] == 0
        assert atlas.last_refresh["remeasured"] == kept

    def test_staleness_budget_forces_remeasure(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source, staleness=10.0)
        kept = len(atlas)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        scenario.clock.advance(11.0)
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            incremental=True,
        )
        assert atlas.last_refresh["skipped"] == 0
        assert atlas.last_refresh["remeasured"] == kept

    def test_default_refresh_still_remeasures(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source)
        kept = len(atlas)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
        )
        assert atlas.last_refresh["skipped"] == 0
        assert atlas.last_refresh["remeasured"] == kept


class TestSnapshotRoundTrip:
    """Satellite: save -> load must be observably identical."""

    def test_lookup_and_suffix_identical(self, sharded_world, tmp_path):
        scenario, _, atlas, rr_atlas, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        loaded_atlas, loaded_rr = load_snapshot(path, scenario.internet)
        assert atlas_key(loaded_atlas) == atlas_key(atlas)
        assert loaded_rr._mapping == rr_atlas._mapping
        for hop in atlas.all_hops():
            original = atlas.lookup(hop)
            copy = loaded_atlas.lookup(hop)
            assert copy == original
            assert loaded_atlas.suffix(copy) == atlas.suffix(original)
        for alias in rr_atlas.known_aliases():
            assert loaded_rr.lookup(alias) == rr_atlas.lookup(alias)

    def test_engine_output_identical_after_warm_start(
        self, sharded_world, tmp_path
    ):
        sharded_sc, source, _, _, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        sharded_sc.save_atlases(source, path)
        warm = fresh_scenario()
        warm.load_atlases(source, path)
        # One scenario's deterministic draw serves both deployments
        # (each scenario's rng advances per draw, so drawing twice from
        # one of them would yield a different list).
        destinations = warm.responsive_destinations(N_MEASURE)
        assert measure_stream(
            sharded_sc, source, destinations
        ) == measure_stream(warm, source, destinations)

    def test_snapshot_bytes_are_deterministic(
        self, sharded_world, tmp_path
    ):
        scenario, _, atlas, rr_atlas, _ = sharded_world
        first = str(tmp_path / "a.snap")
        second = str(tmp_path / "b.snap")
        save_snapshot(first, atlas, rr_atlas, scenario.internet)
        save_snapshot(second, atlas, rr_atlas, scenario.internet)
        with open(first, "rb") as fh_a, open(second, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()

    def test_wrong_source_rejected_by_scenario(
        self, sharded_world, tmp_path
    ):
        scenario, source, atlas, rr_atlas, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        other = next(
            addr for addr in scenario.sources() if addr != source
        )
        with pytest.raises(SnapshotMismatch):
            fresh_scenario().load_atlases(other, path)


class TestSnapshotRejection:
    def _saved(self, sharded_world, tmp_path):
        scenario, _, atlas, rr_atlas, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        return scenario, path

    def _tamper(self, path, **overrides):
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
        doc.update(overrides)
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())

    def test_version_mismatch_rejected(self, sharded_world, tmp_path):
        scenario, path = self._saved(sharded_world, tmp_path)
        self._tamper(path, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotMismatch):
            load_snapshot(path, scenario.internet)

    def test_foreign_format_rejected(self, sharded_world, tmp_path):
        scenario, path = self._saved(sharded_world, tmp_path)
        self._tamper(path, format="some-other-format")
        with pytest.raises(SnapshotError):
            load_snapshot(path, scenario.internet)

    def test_topology_mismatch_rejected(self, sharded_world, tmp_path):
        _, path = self._saved(sharded_world, tmp_path)
        other = build_internet(TopologyConfig.small(seed=SEED + 1))
        with pytest.raises(SnapshotMismatch):
            load_snapshot(path, other)

    def test_corrupt_file_rejected(self, sharded_world, tmp_path):
        scenario, _, _, _, _ = sharded_world
        path = str(tmp_path / "corrupt.snap")
        with open(path, "wb") as fh:
            fh.write(b"not a gzip snapshot")
        with pytest.raises(SnapshotError):
            load_snapshot(path, scenario.internet)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.pop("atlas"),
            lambda doc: doc["atlas"].pop("source"),
            lambda doc: doc["atlas"].pop("traceroutes"),
            lambda doc: doc["atlas"]["traceroutes"][0].pop("hops"),
            lambda doc: doc["atlas"]["traceroutes"].append("a string"),
            lambda doc: doc["atlas"].update(traceroutes=7),
            lambda doc: doc["rr_atlas"].pop("mapping"),
            lambda doc: doc["rr_atlas"]["mapping"].append(["one"]),
            lambda doc: doc.update(rr_atlas=[]),
        ],
        ids=[
            "no-atlas", "no-source", "no-traceroutes", "no-hops",
            "entry-not-object", "traceroutes-not-list", "no-mapping",
            "short-mapping-row", "rr-atlas-not-object",
        ],
    )
    def test_right_header_wrong_body_rejected(
        self, sharded_world, tmp_path, damage
    ):
        """Format, version and fingerprint match, the body does not: a
        typed error, not a KeyError."""
        _, path = self._saved(sharded_world, tmp_path)
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
        damage(doc)
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())
        scenario = sharded_world[0]
        with pytest.raises(SnapshotError, match="malformed"):
            load_snapshot(path, scenario.internet)


class TestAtlasCLI:
    def test_build_save_load_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "atlas.snap")
        code = main(
            [
                "--scale", "small", "--seed", str(SEED),
                "--atlas-size", "12",
                "atlas", "save", "--out", path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traceroute" in out and "rr" in out
        code = main(
            [
                "--scale", "small", "--seed", str(SEED),
                "atlas", "load", "--path", path, "--measure", "1",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceroutes"] > 0 and doc["rr_aliases"] > 0
        assert len(doc["measurements"]) == 1

    def test_load_rejects_other_topology(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "atlas.snap")
        assert (
            main(
                [
                    "--scale", "small", "--seed", str(SEED),
                    "--atlas-size", "8",
                    "atlas", "save", "--out", path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "--scale", "small", "--seed", str(SEED + 1),
                "atlas", "load", "--path", path,
            ]
        )
        assert code == 2
        assert "snapshot" in capsys.readouterr().err
