"""Tests for offline atlas construction (build, dedup, refresh, snapshots).

The acceptance bar is byte-identity: the scenario's own build, with
batched and deduplicated RR probing, and a snapshot warm start must
produce exactly the atlases — and exactly the downstream
reverse-traceroute results — that probing one hop occurrence at a
time produces (``tests/helpers/reference_rr_atlas.py``).  Forwarding
outcomes are pure functions of each probe, so these tests can compare
dictionaries directly instead of sampling.
"""

import gzip
import json
import random

import pytest

from repro.core import (
    SnapshotError,
    SnapshotMismatch,
    load_snapshot,
    save_snapshot,
)
from repro.core.atlas import TracerouteAtlas
from repro.core.rr_atlas import RRAtlas
from repro.core.snapshot import SNAPSHOT_VERSION
from repro.experiments import Scenario
from repro.net.packet import TracerouteResult
from repro.service.sources import build_atlas
from repro.te.peering import PeeringTestbed
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
    atlas, _ = build_atlas(
        scenario.background_prober,
        source,
        scenario.atlas_vp_addrs,
        ATLAS_SIZE,
        scenario.seed,
    )
    rr_atlas = RRAtlas(atlas)
    reference_build(
        rr_atlas, scenario.background_prober, scenario.spoofer_addrs
    )
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas


@pytest.fixture(scope="module")
def built_world():
    """The scenario's own lazy build, what ``repro atlas build`` runs."""
    scenario = fresh_scenario()
    source = scenario.sources()[0]
    rr_atlas = scenario.rr_atlas(source)
    return scenario, source, rr_atlas.atlas, rr_atlas


class TestShardedByteIdentity:
    """Acceptance criterion: the scenario's build == the reference
    build, bytes and downstream.  (The class keeps the name it had
    when the build also ran on shard lanes.)"""

    def test_atlas_contents_identical(self, serial_world, built_world):
        _, _, serial_atlas, _ = serial_world
        _, _, built_atlas, _ = built_world
        assert atlas_key(built_atlas) == atlas_key(serial_atlas)

    def test_rr_mapping_identical_and_dedup_cheaper(
        self, serial_world, built_world
    ):
        _, _, _, serial_rr = serial_world
        _, _, _, built_rr = built_world
        assert built_rr._mapping == serial_rr._mapping
        # Dedup removes probes without changing the mapping; together
        # sent + saved must account for every per-occurrence probe.
        assert built_rr.probes_sent < serial_rr.probes_sent
        assert built_rr.probes_deduped > 0
        assert (
            built_rr.probes_sent + built_rr.probes_deduped
            == serial_rr.probes_sent
        )

    def test_downstream_revtr_results_identical(
        self, serial_world, built_world
    ):
        serial_sc, source, _, _ = serial_world
        built_sc, _, _, _ = built_world
        destinations = serial_sc.responsive_destinations(N_MEASURE)
        assert destinations == built_sc.responsive_destinations(
            N_MEASURE
        )
        assert measure_stream(
            serial_sc, source, destinations
        ) == measure_stream(built_sc, source, destinations)


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

        # The same distinct targets, one ladder at a time: the clock
        # advances by the same total and the ladders send the same
        # probes.
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
        assert sum(n for _, n, _ in ladders) == rr_atlas.probes_sent


class TestRRAtlasStaleLookup:
    """An alias into a pruned traceroute, or into one a refresh
    re-measured onto other hops, must not count as an obs hit."""

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

    @pytest.fixture(scope="class")
    def rerouted(self):
        """A tiny deployment whose routes to the source moved (an
        anycast announcement) before a refresh re-measured every kept
        traceroute in place: its RR atlas, the atlas's hops before the
        refresh, and the aliases whose trace now reads other hops from
        their index on."""
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=1), seed=1, atlas_size=10
        )
        source = scenario.sources()[0]
        atlas, rng = build_atlas(
            scenario.background_prober,
            source,
            scenario.atlas_vp_addrs,
            scenario.atlas_size,
            scenario.seed,
        )
        scenario.adopt_atlases(source, atlas)
        rr_atlas = scenario.rr_atlas(source)
        before = {
            vp: list(trace.hops) for vp, trace in atlas.traceroutes.items()
        }
        sites = [
            scenario.internet.hosts[addr].asn
            for addr in scenario.sources()[1:3]
        ]
        PeeringTestbed(scenario.internet).deploy(source, sites)
        scenario.clock.advance(86_400.0)
        for vp in before:
            atlas.mark_useful(vp)
        atlas.refresh(
            scenario.background_prober, scenario.atlas_vp_addrs, rng
        )
        moved = {
            alias
            for alias, (vp, index) in rr_atlas._mapping.items()
            if vp not in atlas.traceroutes
            or atlas.traceroutes[vp].hops[index:] != before[vp][index:]
        }
        assert moved and len(moved) < len(rr_atlas)
        return scenario, rr_atlas, before, moved

    def test_alias_into_a_remeasured_suffix_counts_stale(self, rerouted):
        """The engine stitches the re-measured trace's suffix from the
        alias's index, so an alias whose suffix moved must answer no
        intersection; one whose suffix held still answers."""
        _, rr_atlas, before, moved = rerouted
        atlas = rr_atlas.atlas
        stale = rr_atlas._obs_stale
        for alias in rr_atlas.known_aliases():
            hit = rr_atlas.lookup(alias)
            if alias in moved:
                assert hit is None, alias
            else:
                assert hit is not None, alias
                assert atlas.suffix(hit) == [
                    hop for hop in before[hit.vp][hit.index + 1:]
                    if hop is not None
                ]
        assert rr_atlas._obs_stale - stale == len(moved)

    def test_snapshot_writes_only_live_aliases(self, rerouted, tmp_path):
        scenario, rr_atlas, _, moved = rerouted
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, rr_atlas.atlas, rr_atlas, scenario.internet)
        _, loaded = load_snapshot(path, scenario.internet)
        assert set(loaded.known_aliases()) == (
            set(rr_atlas.known_aliases()) - moved
        )
        for alias in loaded.known_aliases():
            assert loaded.lookup(alias) == rr_atlas.lookup(alias)


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
        atlas.refresh(prober, scenario.atlas_vp_addrs, random.Random(SEED))
        assert ghost not in atlas.traceroutes
        assert atlas.lookup("203.0.113.1") is None
        assert atlas.last_refresh["pruned_unresponsive"] == 1
        assert atlas.last_refresh["remeasured"] == 1
        # The freed slot counts toward the top-up target.
        assert len(atlas) == 3
        assert atlas.last_refresh["replaced"] == 3


class TestIncrementalRefresh:
    """Refresh re-measures every kept traceroute.  (The class keeps
    the name it had when an ``incremental`` option could skip them.)"""

    def test_default_refresh_still_remeasures(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas, rng = build_atlas(
            scenario.background_prober,
            source,
            scenario.atlas_vp_addrs,
            8,
            scenario.seed,
        )
        kept = list(atlas.traceroutes)
        for vp in kept:
            atlas.mark_useful(vp)
        scenario.clock.advance(1.0)
        started = scenario.clock.now()
        atlas.refresh(
            scenario.background_prober, scenario.atlas_vp_addrs, rng
        )
        assert atlas.last_refresh["remeasured"] == len(kept)
        # Nothing kept is carried over: every kept trace is fresh.
        assert all(
            atlas.traceroutes[vp].timestamp >= started
            for vp in kept
            if vp in atlas.traceroutes
        )


class TestSnapshotRoundTrip:
    """Satellite: save -> load must be observably identical."""

    def test_lookup_and_suffix_identical(self, built_world, tmp_path):
        scenario, _, atlas, rr_atlas = built_world
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
        self, built_world, tmp_path
    ):
        built_sc, source, _, _ = built_world
        path = str(tmp_path / "atlas.snap")
        built_sc.save_atlases(source, path)
        warm = fresh_scenario()
        warm.load_atlases(source, path)
        # One scenario's deterministic draw serves both deployments
        # (each scenario's rng advances per draw, so drawing twice from
        # one of them would yield a different list).
        destinations = warm.responsive_destinations(N_MEASURE)
        assert measure_stream(
            built_sc, source, destinations
        ) == measure_stream(warm, source, destinations)

    def test_snapshot_bytes_are_deterministic(
        self, built_world, tmp_path
    ):
        scenario, _, atlas, rr_atlas = built_world
        first = str(tmp_path / "a.snap")
        second = str(tmp_path / "b.snap")
        save_snapshot(first, atlas, rr_atlas, scenario.internet)
        save_snapshot(second, atlas, rr_atlas, scenario.internet)
        with open(first, "rb") as fh_a, open(second, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()

    def test_wrong_source_rejected_by_scenario(
        self, built_world, tmp_path
    ):
        scenario, source, atlas, rr_atlas = built_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        other = next(
            addr for addr in scenario.sources() if addr != source
        )
        with pytest.raises(SnapshotMismatch):
            fresh_scenario().load_atlases(other, path)


class TestSnapshotRejection:
    def _saved(self, built_world, tmp_path):
        scenario, _, atlas, rr_atlas = built_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        return scenario, path

    def _tamper(self, path, **overrides):
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
        doc.update(overrides)
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())

    def test_version_mismatch_rejected(self, built_world, tmp_path):
        scenario, path = self._saved(built_world, tmp_path)
        self._tamper(path, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotMismatch):
            load_snapshot(path, scenario.internet)

    def test_foreign_format_rejected(self, built_world, tmp_path):
        scenario, path = self._saved(built_world, tmp_path)
        self._tamper(path, format="some-other-format")
        with pytest.raises(SnapshotError):
            load_snapshot(path, scenario.internet)

    def test_topology_mismatch_rejected(self, built_world, tmp_path):
        _, path = self._saved(built_world, tmp_path)
        other = build_internet(TopologyConfig.small(seed=SEED + 1))
        with pytest.raises(SnapshotMismatch):
            load_snapshot(path, other)

    def test_corrupt_file_rejected(self, built_world, tmp_path):
        scenario, _, _, _ = built_world
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
            lambda doc: doc.update(topology="x"),
            lambda doc: doc["atlas"]["traceroutes"][0].update(hops="abc"),
        ],
        ids=[
            "no-atlas", "no-source", "no-traceroutes", "no-hops",
            "entry-not-object", "traceroutes-not-list", "no-mapping",
            "short-mapping-row", "rr-atlas-not-object",
            "topology-not-object", "hops-not-list",
        ],
    )
    def test_right_header_wrong_body_rejected(
        self, built_world, tmp_path, damage
    ):
        """Format, version and fingerprint match, the body does not: a
        typed error, not a KeyError."""
        _, path = self._saved(built_world, tmp_path)
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
        damage(doc)
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())
        scenario = built_world[0]
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
                "atlas", "build", "--out", path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traceroutes" in out and "RR aliases" in out
        assert "deduped" in out and "snapshot saved" in out
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
                    "atlas", "build", "--out", path,
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
