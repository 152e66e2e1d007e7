"""Cross-measurement reverse-segment cache and ``measure_many`` groups.

Covers the amortization acceptance criteria: a cold cache is
byte-identical to no cache, spliced == from-scratch equality under
stable routing, invalidation on routing-generation bumps and TTL
expiry, negative entries, grouped == sequential routes for
``measure_many``, and the paper's engines never splicing.  Remembered aborts: each validity
rule of ``repro.core.segcache`` on its own, and a served abort equal
to the re-derivation it replaces across every mutation the rules
watch for (``test_served_abort_equals_the_rederivation``).
"""

import json

import pytest

from repro.core.result import HopTechnique, ReverseHop, RevtrStatus
from repro.core.cache import DEFAULT_TTL
from repro.core.revtr import EngineConfig
from repro.core.segcache import (
    DEFAULT_NEGATIVE_TTL,
    DEFAULT_SEGMENT_TTL,
    ReverseSegmentCache,
)
from repro.experiments import Scenario
from repro.experiments.common import VARIANTS
from repro.net.addr import addr_to_int
from repro.obs import Instrumentation
from repro.obs.provenance import ProvenanceLedger
from repro.probing.traceroute import paris_traceroute
from repro.service import MeasurementRequest
from repro.sim.clock import VirtualClock
from repro.sim.faults import FaultPlan, FaultSpec
from repro.topology import TopologyConfig
from repro.topology.policy import AnnouncementSpec, Origin
from tests.helpers.segcache_engine import engine_with_segcache

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


def _private_scenario():
    return Scenario(
        config=TopologyConfig.small(seed=7), seed=7, atlas_size=12
    )


@pytest.fixture(scope="module")
def scenario():
    """A private Scenario: these tests bump routing generations and
    share per-source segment caches, which must not leak into the
    session-scoped fixtures."""
    return _private_scenario()


def fresh_engine(scenario, source, *, segment_cache=False, **extra):
    """A new revtr 2.0 engine; with *segment_cache*, splicing from an
    empty reverse-segment cache of its own."""
    config = EngineConfig(**extra)
    if segment_cache:
        return engine_with_segcache(scenario, source, config=config)
    return scenario.engine(source, "revtr2.0", config=config)


def path_view(result):
    """The route-level content of a result (no timing, no budgets)."""
    return (
        result.status,
        [(h.addr, h.technique, h.assumed_link) for h in result.hops],
    )


class FakeInternet:
    def __init__(self):
        self.routing_generation = 0


#: The positive-entry lifetime, well clear of the negative one.
TTL = DEFAULT_SEGMENT_TTL


def make_cache():
    return ReverseSegmentCache(VirtualClock(), FakeInternet())


class TestSegmentCacheUnit:
    def test_store_lookup_roundtrip(self):
        cache = make_cache()
        hop = ReverseHop("b", HopTechnique.RR)
        cache.store("a", hop)
        entry = cache.lookup("a")
        assert entry.next_hop == "b"
        assert entry.hop is hop
        assert not entry.negative
        assert cache.stats.hits == 1

    def test_generation_bump_invalidates(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.internet.routing_generation += 1
        assert cache.lookup("a") is None
        assert cache.stats.invalidations_generation == 1
        assert cache.stats.misses == 1
        assert "a" not in cache

    def test_ttl_expiry_invalidates(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.clock.advance(TTL + 1)
        assert cache.lookup("a") is None
        assert cache.stats.invalidations_ttl == 1

    def test_negative_entries_use_shorter_ttl(self):
        cache = make_cache()
        cache.store_negative("dead")
        entry = cache.lookup("dead")
        assert entry is not None and entry.negative
        assert cache.stats.negative_hits == 1
        cache.clock.advance(DEFAULT_NEGATIVE_TTL + 1)
        assert cache.lookup("dead") is None
        assert cache.stats.invalidations_ttl == 1

    def test_chain_follows_edges_in_order(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.store("b", ReverseHop("c", HopTechnique.SPOOFED_RR))
        cache.store("c", ReverseHop("d", HopTechnique.TIMESTAMP))
        chain, dead = cache.chain("a", limit=10)
        assert not dead
        assert [e.next_hop for e in chain] == ["b", "c", "d"]

    def test_chain_respects_limit_and_stop(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.store("b", ReverseHop("c", HopTechnique.RR))
        chain, _ = cache.chain("a", limit=1)
        assert [e.next_hop for e in chain] == ["b"]
        chain, _ = cache.chain("a", limit=10, stop={"c"}.__contains__)
        assert [e.next_hop for e in chain] == ["b"]

    def test_chain_is_loop_free(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.store("b", ReverseHop("a", HopTechnique.RR))
        chain, _ = cache.chain("a", limit=10)
        assert [e.next_hop for e in chain] == ["b"]

    def test_chain_leading_negative_reports_dead(self):
        cache = make_cache()
        cache.store_negative("a")
        chain, dead = cache.chain("a", limit=10)
        assert chain == [] and dead

    def test_chain_mid_negative_just_ends(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.store_negative("b")
        chain, dead = cache.chain("a", limit=10)
        assert [e.next_hop for e in chain] == ["b"]
        assert not dead

    def test_purge_expired_counts_by_reason(self):
        cache = make_cache()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        cache.internet.routing_generation += 1
        cache.store("c", ReverseHop("d", HopTechnique.RR))
        cache.store_negative("e")
        cache.clock.advance(DEFAULT_NEGATIVE_TTL + 1)
        assert cache.purge_expired() == 2
        assert cache.stats.invalidations_generation == 1
        assert cache.stats.invalidations_ttl == 1
        assert len(cache) == 1

    # -- remembered aborts: the cache's rules (a), (b), (c), (e) --------

    #: an aborted path: the destination, a public RR hop and a trailing
    #: private one
    ABORT = (
        ReverseHop("d", HopTechnique.DESTINATION),
        ReverseHop("x", HopTechnique.RR),
        ReverseHop("10.0.0.1", HopTechnique.RR),
    )
    ATLASES = ("atlas", "rr-atlas")

    def stored_abort(self):
        cache = make_cache()
        cache.store_abort("d", self.ABORT, self.ATLASES)
        return cache

    def test_abort_serves_the_stored_hops(self):
        cache = self.stored_abort()
        hops = cache.lookup_abort("d", self.ATLASES)
        assert all(a is b for a, b in zip(hops, self.ABORT))
        assert len(hops) == len(self.ABORT)
        assert cache.lookup_abort("x", self.ATLASES) is None
        # Not an edge: no mid-path splice can reach it.
        assert "d" not in cache
        assert cache.chain("d", limit=10) == ([], False)

    def test_abort_dropped_on_generation_bump(self):
        cache = self.stored_abort()
        cache.internet.routing_generation += 1
        assert cache.lookup_abort("d", self.ATLASES) is None
        cache.internet.routing_generation -= 1
        assert cache.lookup_abort("d", self.ATLASES) is None

    def test_abort_lives_as_long_as_a_negative_entry(self):
        cache = self.stored_abort()
        cache.clock.advance(DEFAULT_NEGATIVE_TTL)
        assert cache.lookup_abort("d", self.ATLASES) is not None
        cache.clock.advance(1)
        assert cache.lookup_abort("d", self.ATLASES) is None

    def test_abort_ages_from_the_oldest_negative_entry_it_read(self):
        cache = make_cache()
        cache.store_negative("x")
        cache.clock.advance(DEFAULT_NEGATIVE_TTL / 2)
        cache.store_abort("d", self.ABORT, self.ATLASES)
        cache.clock.advance(DEFAULT_NEGATIVE_TTL / 2)
        assert cache.lookup_abort("d", self.ATLASES) is not None
        cache.clock.advance(1)
        assert cache.lookup_abort("d", self.ATLASES) is None

    @pytest.mark.parametrize("where", ["d", "x", "10.0.0.1"])
    def test_abort_dropped_when_a_hop_gains_an_edge(self, where):
        cache = self.stored_abort()
        cache.store(where, ReverseHop("s", HopTechnique.SOURCE))
        assert cache.lookup_abort("d", self.ATLASES) is None

    def test_abort_kept_while_its_hops_edges_are_unchanged(self):
        cache = make_cache()
        cache.store("x", ReverseHop("10.0.0.1", HopTechnique.RR))
        cache.store_abort("d", self.ABORT, self.ATLASES)
        # A negative entry is no edge to splice past the abort with.
        cache.store_negative("10.0.0.1")
        assert cache.lookup_abort("d", self.ATLASES) is not None
        # Restamped, the edge is not the one the abort was stored with.
        cache.store("x", ReverseHop("10.0.0.1", HopTechnique.RR))
        assert cache.lookup_abort("d", self.ATLASES) is None

    def test_abort_dropped_when_an_edge_it_had_expires(self):
        cache = make_cache()
        cache.store("x", ReverseHop("10.0.0.1", HopTechnique.RR))
        cache.clock.advance(TTL - DEFAULT_NEGATIVE_TTL / 2)
        cache.store_abort("d", self.ABORT, self.ATLASES)
        assert cache.lookup_abort("d", self.ATLASES) is not None
        cache.clock.advance(DEFAULT_NEGATIVE_TTL / 2 + 1)
        assert cache.lookup_abort("d", self.ATLASES) is None

    def test_abort_dropped_when_an_atlas_changes(self):
        cache = self.stored_abort()
        assert cache.lookup_abort("d", ("atlas", "grown")) is None
        assert cache.lookup_abort("d", self.ATLASES) is None

    def test_purge_expired_drops_stale_aborts(self):
        cache = self.stored_abort()
        cache.store_abort("e", self.ABORT[1:], self.ATLASES)
        assert cache.purge_expired() == 0
        cache.internet.routing_generation += 1
        cache.store_abort("f", self.ABORT, self.ATLASES)
        cache.clock.advance(DEFAULT_NEGATIVE_TTL)
        cache.store_abort("g", self.ABORT, self.ATLASES)
        cache.clock.advance(1)
        assert cache.purge_expired() == 3
        assert cache.stats.invalidations_generation == 2
        assert cache.stats.invalidations_ttl == 1
        assert len(cache) == 1
        assert cache.lookup_abort("g", self.ATLASES) is not None

    def test_len_counts_aborts(self):
        cache = self.stored_abort()
        cache.store("a", ReverseHop("b", HopTechnique.RR))
        assert len(cache) == 2
        assert len(make_cache()) == 0


class TestFlagsOffByteIdentity:
    """A cold segment cache only observes: an engine given one answers
    exactly as an engine without one."""

    def test_measure_many_off_is_byte_identical(self, scenario):
        """One ``measure_many`` group, without a cache and with a cold one —
        identical JSON including durations and probe counts."""
        source = scenario.sources()[0]
        dsts = scenario.responsive_destinations(4, options_only=True)
        plain = fresh_engine(scenario, source)
        baseline = [
            json.dumps(r.to_dict(), sort_keys=True)
            for r in plain.measure_many(dsts)
        ]
        batched = fresh_engine(scenario, source, segment_cache=True)
        got = [
            json.dumps(r.to_dict(), sort_keys=True)
            for r in batched.measure_many(dsts)
        ]
        assert got == baseline
        assert batched.segcache.stats.stores > 0

    def test_cold_segment_cache_is_byte_identical(self, scenario):
        """The first pass over a destination set must not change a
        single output byte: the cache only observes, it has nothing
        to splice yet."""
        source = scenario.sources()[0]
        dsts = scenario.responsive_destinations(4, options_only=True)
        plain = fresh_engine(scenario, source)
        baseline = [
            json.dumps(plain.measure(d).to_dict(), sort_keys=True)
            for d in dsts
        ]
        cached = fresh_engine(scenario, source, segment_cache=True)
        got = [
            json.dumps(cached.measure(d).to_dict(), sort_keys=True)
            for d in dsts
        ]
        assert got == baseline
        assert cached.segcache.stats.stores > 0


class TestSplicing:
    def test_warm_cache_replays_same_path(self, scenario):
        source = scenario.sources()[1]
        dsts = scenario.responsive_destinations(5, options_only=True)
        baseline = {
            d: path_view(fresh_engine(scenario, source).measure(d))
            for d in dsts
        }
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        for d in dsts:
            engine.measure(d)
        for d in dsts:
            assert path_view(engine.measure(d)) == baseline[d]
        assert engine.segcache.stats.splices > 0

    def test_splice_spends_fewer_probes(self, scenario):
        source = scenario.sources()[1]
        dst = scenario.responsive_destinations(5, options_only=True)[1]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        cold = engine.measure(dst)
        if cold.status is not RevtrStatus.COMPLETE:
            pytest.skip("destination did not complete")
        warm = engine.measure(dst)
        assert path_view(warm) == path_view(cold)
        assert sum(warm.probe_counts.values()) < sum(
            cold.probe_counts.values()
        )

    def test_generation_bump_disables_splicing(self, scenario):
        """A routing change (TE shift, topology event) must stop the
        cache from replaying pre-change segments."""
        source = scenario.sources()[1]
        dst = scenario.responsive_destinations(5, options_only=True)[2]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        engine.measure(dst)
        scenario.internet.invalidate_routing()
        before = engine.segcache.stats.splices
        result = engine.measure(dst)
        assert engine.segcache.stats.splices == before
        assert engine.segcache.stats.invalidations_generation > 0
        # The re-measured path is measured, not replayed: every
        # non-terminal hop came from a live technique this pass.
        assert result.hops

    def test_ttl_expiry_disables_splicing(self, scenario):
        source = scenario.sources()[2]
        dst = scenario.responsive_destinations(5, options_only=True)[1]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        engine.measure(dst)
        scenario.clock.advance(DEFAULT_SEGMENT_TTL + 1.0)
        before = engine.segcache.stats.splices
        engine.measure(dst)
        assert engine.segcache.stats.splices == before
        assert engine.segcache.stats.invalidations_ttl > 0

    def test_negative_entry_skips_rr(self, scenario):
        """A router that recently ignored the whole RR arsenal is not
        re-probed: the engine skips its RR step entirely."""
        source = scenario.sources()[0]
        probed = []

        def recording_engine():
            """An engine with an empty segment cache of its own whose
            RR steps are recorded in ``probed``."""
            engine = fresh_engine(
                scenario, source, segment_cache=True, use_cache=False
            )
            real_rr = engine._rr_step
            engine._rr_step = lambda cur: (
                probed.append(cur) or real_rr(cur)
            )
            return engine

        # Pick a destination whose RR step actually runs (i.e. the
        # atlas does not complete the path at the destination hop).
        engine = recording_engine()
        dst = None
        for cand in scenario.responsive_destinations(
            8, options_only=True
        ):
            probed.clear()
            engine.measure(cand)
            if cand in probed:
                dst = cand
                break
        if dst is None:
            pytest.skip("atlas resolved every candidate destination")
        engine = recording_engine()
        engine.segcache.store_negative(dst)
        probed.clear()
        result = engine.measure(dst)
        assert engine.segcache.stats.negative_hits >= 1
        # The known-dead router was never re-aimed at; later hops may
        # still run their own RR steps.
        assert dst not in probed
        assert result.hops

    def test_whole_path_splice_serves_from_cache(self, scenario):
        """A repeat of a completed measurement is served entirely from
        the cache: zero probes, zero virtual time, identical path."""
        source = scenario.sources()[1]
        dsts = scenario.responsive_destinations(5, options_only=True)
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        cold = None
        for dst in dsts:
            cold = engine.measure(dst)
            if cold.status is RevtrStatus.COMPLETE:
                break
        assert cold is not None
        assert cold.status is RevtrStatus.COMPLETE
        stores = engine.segcache.stats.stores
        warm = engine.measure(cold.dst)
        assert path_view(warm) == path_view(cold)
        assert sum(warm.probe_counts.values()) == 0
        assert warm.duration == 0.0
        # Nothing was revealed, so nothing is stored.
        assert engine.segcache.stats.stores == stores

    def test_whole_path_splice_provenance(self):
        """The fast path leaves a truthful event trail: one full_path
        splice, no ping check, no synthesized atlas miss."""
        from repro.obs import Instrumentation
        from repro.obs.provenance import ProvenanceLedger

        instr = Instrumentation()
        local = Scenario(
            config=TopologyConfig.small(seed=7), seed=7,
            atlas_size=12, instrumentation=instr,
        )
        source = local.sources()[2]
        dsts = local.responsive_destinations(5, options_only=True)
        engine = fresh_engine(
            local, source, segment_cache=True, use_cache=False
        )
        cold = None
        for dst in dsts:
            cold = engine.measure(dst)
            if cold.status is RevtrStatus.COMPLETE:
                break
        assert cold is not None
        assert cold.status is RevtrStatus.COMPLETE
        warm = engine.measure(cold.dst)
        assert path_view(warm) == path_view(cold)
        events = [
            e
            for e in instr.events.events()
            if e.mid == warm.measurement_id
        ]
        splices = [e for e in events if e.kind == "splice"]
        assert len(splices) == 1
        assert splices[0].fields["full_path"] is True
        (end,) = [e for e in events if e.kind == "measure.end"]
        assert end.fields.get("ping") is None  # ping check skipped
        ledger = ProvenanceLedger.from_events(
            events, warm.measurement_id
        )
        narrative = ledger.explain()
        assert "whole-path splice from destination" in narrative
        assert "atlas intersect" not in narrative

class TestReadsDoNotRefresh:
    """An entry's age is the age of the measurement that revealed it:
    splicing an edge must not restamp it, or a path requested more
    often than once per TTL would never be measured again."""

    def test_whole_path_splice_does_not_extend_ttl(self, scenario):
        source = scenario.sources()[1]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        ttl = DEFAULT_SEGMENT_TTL
        cold = next(
            result
            for result in map(
                engine.measure,
                scenario.responsive_destinations(5, options_only=True),
            )
            if result.status is RevtrStatus.COMPLETE
        )
        scenario.clock.advance(0.6 * ttl)
        warm = engine.measure(cold.dst)
        assert sum(warm.probe_counts.values()) == 0
        assert engine.segcache.stats.invalidations_ttl == 0
        scenario.clock.advance(0.6 * ttl)
        # The path is now 1.2 x ttl old, however recently it was read.
        again = engine.measure(cold.dst)
        assert sum(again.probe_counts.values()) > 0
        assert engine.segcache.stats.invalidations_ttl > 0

    def test_mid_path_splice_does_not_extend_ttl(self):
        # A scenario of its own: whether a later destination splices a
        # chain the first pass revealed depends on the clock, routing
        # and atlases the module's earlier tests leave behind.
        scenario = _private_scenario()
        source = scenario.sources()[1]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        stats = engine.segcache.stats
        ttl = DEFAULT_SEGMENT_TTL
        dsts = scenario.responsive_destinations(40, options_only=True)
        for dst in dsts[:8]:
            engine.measure(dst)
        first_pass = scenario.clock.now()
        scenario.clock.advance(0.6 * ttl)
        # A destination behind a chain the first pass revealed: part
        # measured now, the rest spliced from 0.6 x ttl ago.  A read
        # leaves an entry's ``stored_at`` alone, so a hop whose entry
        # still dates from the first pass was spliced, not measured
        # again (a chain a later destination of this pass stored is
        # only as old as the head).
        entries = engine.segcache._entries
        behind = None
        for dst in dsts[8:]:
            splices = stats.splices
            result = engine.measure(dst)
            if (
                result.status is RevtrStatus.COMPLETE
                and stats.splices > splices
                and sum(result.probe_counts.values()) > 0
                and any(
                    hop.addr in entries
                    and entries[hop.addr].stored_at <= first_pass
                    for hop in result.hops
                )
            ):
                behind = dst
                break
        assert behind is not None, "no mid-path splice in 32 tries"
        assert stats.invalidations_ttl == 0
        scenario.clock.advance(0.6 * ttl)
        # Its measured head is 0.6 x ttl old, its spliced tail 1.2 x.
        again = engine.measure(behind)
        assert sum(again.probe_counts.values()) > 0
        assert stats.invalidations_ttl > 0

    @pytest.mark.parametrize("private_tail", [False, True])
    def test_mid_path_splice_stores_only_what_it_measured(
        self, scenario, private_tail
    ):
        """dst reveals pub (and then, with *private_tail*, a private
        hop) live; the cache holds pub -> nxt -> source.  ``chain()``
        starts at pub, the last *public* hop, so with a private tail
        the pair (private, nxt) is an edge this measurement revealed,
        keyed by an address the cache never held."""
        source = scenario.sources()[1]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False,
            ping_check=False,
        )
        dst, pub, nxt = "198.18.0.1", "198.18.0.9", "198.18.0.17"
        private = "10.9.8.7"
        revealed = [pub, private] if private_tail else [pub]
        engine._rr_step = lambda current: (
            (revealed, HopTechnique.RR) if current == dst
            else pytest.fail(f"live RR step from {current}")
        )
        segcache = engine.segcache
        segcache.store(pub, ReverseHop(nxt, HopTechnique.SPOOFED_RR))
        segcache.store(nxt, ReverseHop(source, HopTechnique.SOURCE))
        read_at = segcache.lookup(nxt).stored_at
        stores = segcache.stats.stores
        scenario.clock.advance(5.0)

        result = engine.measure(dst)

        assert result.status is RevtrStatus.COMPLETE
        assert result.addresses() == [dst] + revealed + [nxt, source]
        assert sum(result.probe_counts.values()) == 0
        # (dst, pub), plus (pub, private) and (private, nxt) when the
        # private hop sits between them; never the pairs read under
        # their own key — (pub, nxt) without it, (nxt, source) always.
        assert segcache.stats.stores - stores == (
            3 if private_tail else 1
        )
        assert segcache.lookup(nxt).stored_at == read_at
        if private_tail:
            assert segcache.lookup(pub).next_hop == private
            assert segcache.lookup(private).next_hop == nxt
        else:
            assert segcache.lookup(pub).stored_at == read_at


class TestCoalescing:
    def test_coalesced_equals_sequential_routes(self, scenario):
        """A ``measure_many`` group measures the routes that one
        engine measuring the same destinations one by one does."""
        source = scenario.sources()[0]
        dsts = scenario.responsive_destinations(6, options_only=True)
        baseline = [
            path_view(fresh_engine(scenario, source).measure(d))
            for d in dsts
        ]
        engine = fresh_engine(scenario, source)
        got = [path_view(r) for r in engine.measure_many(dsts)]
        assert got == baseline

    def test_silent_neighbour_does_not_silence_a_live_host(self, scenario):
        """Hosts of one /24 answer pings independently: a group that
        pings a silent host first must still measure its live /24
        neighbour, exactly as a group of its own would."""
        source = scenario.sources()[0]
        dead_by_prefix = {}
        for host in sorted(
            scenario.internet.hosts.values(), key=lambda h: h.addr
        ):
            if not host.responds_to_ping and not host.is_vantage_point:
                slash24 = addr_to_int(host.addr) >> 8
                dead_by_prefix.setdefault(slash24, host.addr)
        engine = fresh_engine(scenario, source)
        for alive in scenario.responsive_destinations(options_only=True):
            dead = dead_by_prefix.get(addr_to_int(alive) >> 8)
            if dead is None:
                continue
            solo = engine.measure(alive)
            if solo.status is RevtrStatus.COMPLETE:
                break
        else:
            pytest.fail("no live host completes beside a silent one")
        gone, grouped = engine.measure_many([dead, alive])
        assert gone.status is RevtrStatus.UNRESPONSIVE
        assert path_view(grouped) == path_view(solo)


class TestPaperEnginesStayFresh:
    """The paper's evaluation measures every variant from scratch.  An
    engine ``Scenario.engine`` builds is given no segment cache: were
    the variants for one source to share one, each later variant would
    splice whole paths an earlier one measured (Fig. 5c's medians all
    read 0 s)."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )

    def test_no_variant_is_given_a_segment_cache(self, tiny):
        source = tiny.sources()[0]
        for variant in VARIANTS:
            engine = tiny.engine(source, variant)
            assert engine.segcache is None, variant
            assert [o.__name__ for o in engine._openers] == [
                "_open_ping_check"
            ]

    def test_a_second_variant_measures_again(self, tiny):
        source = tiny.sources()[0]
        first = tiny.engine(source, "revtr2.0")
        done = next(
            result
            for result in map(
                first.measure,
                tiny.responsive_destinations(8, options_only=True),
            )
            if result.status is RevtrStatus.COMPLETE
        )
        for variant in VARIANTS:
            again = tiny.engine(source, variant).measure(done.dst)
            assert sum(again.probe_counts.values()) > 0, variant


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_property_splice_stable_under_repetition(scenario, data):
        """Under stable routing, cache reuse is answer-preserving:

        * **idempotence** — re-measuring a destination immediately
          after a previous measurement of it reproduces the route
          exactly, whether the repeat is served by a whole-path
          splice, mid-path splices, negative-entry skips, or fresh
          probes (the cache state between the two calls only changes
          by what the first call itself stored);
        * **outcome preservation** — against a cache-free engine, the
          spliced engine's outcome for every destination, in any
          interleaving, is the same or strictly better: matching
          status and path endpoints, except that a spliced run may
          COMPLETE a path the cold engine abandoned (a truncated
          chain can re-enter the loop past the hop where the cold
          run's assumed-symmetry fallback aborted).

        Full per-hop equality with the cache-free baseline is *not*
        asserted: a truncated chain can legitimately re-enter the
        measurement loop at a router the cold run never evaluated as a
        current hop, where an atlas intersection yields a different
        (but equally valid) path tail.  Ground-truth accuracy of the
        divergent paths is asserted by the ``segcache`` row of
        benchmarks/claims.py, which scores every whole-path splice
        against the simulator's true reverse path.
        """
        source = scenario.sources()[0]
        pool = scenario.responsive_destinations(6, options_only=True)
        order = data.draw(
            st.lists(
                st.sampled_from(pool), min_size=2, max_size=8
            )
        )
        plain = fresh_engine(scenario, source)
        baseline = {
            dst: path_view(plain.measure(dst)) for dst in set(order)
        }
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        for dst in order:
            first = path_view(engine.measure(dst))
            assert path_view(engine.measure(dst)) == first
            status, hops = first
            base_status, base_hops = baseline[dst]
            assert hops[0] == base_hops[0]
            if status is not base_status:
                # Cache reuse may only improve the outcome, never
                # degrade it.
                assert status is RevtrStatus.COMPLETE
            elif status is RevtrStatus.COMPLETE:
                assert hops[-1] == base_hops[-1]


# ----------------------------------------------------------------------
# Remembered aborts: served only while a fresh run would re-derive them
# ----------------------------------------------------------------------

#: The differential deployment: a small world, two sources, and the
#: destinations whose first measurement from some source aborts.
ABORT_SEED = 3
N_ABORT_DSTS = 120


def _abort_deployment(config):
    scenario = Scenario(
        config=TopologyConfig.small(seed=ABORT_SEED),
        seed=ABORT_SEED,
        atlas_size=8,
    )
    service = scenario.service(engine_config=config)
    key = service.add_user("zipf", max_per_day=1_000_000).api_key
    sources = scenario.sources()[:2]
    for source in sources:
        service.add_source(key, source)
        # Built now, so a twin can unhook the abort lookup of the one
        # segment cache the source's engine splices from.
        service._engine_for(source)
    return scenario, service, key


@pytest.fixture(scope="module")
def abort_pool():
    """``(source, destination, hops)`` to draw requests from: every
    pair whose first measurement aborts (with no hops), then every
    completed pair whose path crosses a hop of an aborted one (a later
    completion there is what rule (c) watches for), with its hops."""
    scenario, service, key = _abort_deployment(EngineConfig())
    dsts = scenario.responsive_destinations(N_ABORT_DSTS)
    aborted, completed = [], []
    for source in service.registry.sources:
        for dst in dsts:
            result = service.request(
                MeasurementRequest(key, dst, source)
            )
            if result.status is RevtrStatus.ABORTED_INTERDOMAIN:
                aborted.append((source, dst, result))
            elif result.status is RevtrStatus.COMPLETE:
                completed.append((source, dst, result))
    crossed = {
        (source, hop.addr)
        for source, _, result in aborted
        for hop in result.hops[1:]
    }
    crossing = [
        (source, dst, frozenset(result.addresses()[1:-1]))
        for source, dst, result in completed
        if any((source, hop.addr) in crossed for hop in result.hops[1:-1])
    ]
    return [(s, d, frozenset()) for s, d, _ in aborted] + crossing


class _Twins:
    """One deployment serving remembered aborts and one whose segment
    caches never find one (every repeat re-derived, as before them),
    driven op by op.  After every op the clock that ran behind (served
    aborts take no virtual time) is moved up to the other, so both
    read every TTL and fault window at the same instant."""

    def __init__(self, config):
        self.sides = [_abort_deployment(config) for _ in range(2)]
        for engine in self.sides[1][1]._engines.values():
            engine.segcache.lookup_abort = lambda dst, atlases: None
        #: ``(source, destination, hop addresses)`` of every abort
        self.aborted = []

    def _align(self):
        clocks = [scenario.clock for scenario, _, _ in self.sides]
        latest = max(clock.now() for clock in clocks)
        for clock in clocks:
            clock.advance_to(latest)

    def request(self, src, dst):
        served, fresh = [
            service.request(MeasurementRequest(key, dst, src))
            for _, service, key in self.sides
        ]
        self._align()
        return served, fresh

    def apply(self, op, arg):
        for scenario, service, _ in self.sides:
            if op == "advance":
                scenario.clock.advance(arg)
            elif op == "invalidate":
                scenario.internet.invalidate_routing()
            elif op == "refresh":
                service.registry.refresh_atlas(arg)
            elif op == "grow":
                service.registry.sources[arg].rr_atlas.build(
                    scenario.background_prober, scenario.spoofer_addrs
                )
            elif op == "faults":
                # A loss window opens (at *arg* per link) or closes.
                scenario.internet.faults = None
                if arg:
                    scenario.install_faults(
                        FaultPlan(seed=5).add(
                            FaultSpec(kind="link-loss", rate=arg)
                        )
                    )
            elif op == "poison":
                # A real route change: the source's prefix is announced
                # with an AS of an aborted path poisoned (§6.1).
                src, asn = arg
                internet = scenario.internet
                prefix = internet.prefix_table.lookup_prefix(src)
                origin = internet.prefixes[prefix].origin_asn
                internet.announce(
                    prefix,
                    AnnouncementSpec(
                        origins=(Origin(origin, poisoned=frozenset({asn})),)
                    ),
                    {origin: internet.prefixes[prefix].edge_router_id},
                )
            elif op == "trace":
                # The atlas gains a vantage point in an aborted
                # destination's network, and the RR atlas grows with it.
                src, dst = arg
                registered = service.registry.sources[src]
                registered.atlas.add(
                    paris_traceroute(scenario.background_prober, dst, src)
                )
                registered.rr_atlas.build(
                    scenario.background_prober, scenario.spoofer_addrs
                )
            elif op == "alias":
                # New alias evidence: an aborted destination turns out
                # to be one router with a first hop of its source.
                src, dst = arg
                engine = service._engines[src]
                scenario.resolver.add_group({dst, min(engine._terminal)})
        self._align()


def path_record(result):
    """What a served abort must equal: status, hops (address,
    technique, assumed link) and suspicious-link flag."""
    return (
        result.status,
        [(h.addr, h.technique, h.assumed_link) for h in result.hops],
        result.flagged_as_path,
    )


#: Requests dominate; every other op is a mutation a remembered abort
#: must notice, or must not be fooled by.
_OPS = ["request"] * 6 + ["repeat"] * 3 + [
    "cross", "advance", "invalidate", "poison", "refresh", "grow",
    "trace", "faults", "alias",
]

if HAVE_HYPOTHESIS:

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(data=st.data())
    def test_served_abort_equals_the_rederivation(abort_pool, data):
        """A repeat stream interleaved with completions through aborted
        hops, atlas refreshes, RR-atlas growth, routing invalidations,
        route poisoning, clock advances past the negative TTL, fault
        windows and new alias evidence, served twice in lockstep: every
        request's answer (status, hops, suspicious-link flag) is the
        same whether a remembered abort served it or the engine
        re-derived it, and only a served abort spends less."""
        config = EngineConfig(
            use_cache=data.draw(st.booleans(), "use_cache"),
        )
        twins = _Twins(config)

        def request(src, dst):
            day_one = twins.sides[0][0].clock.now() < DEFAULT_TTL
            served, fresh = twins.request(src, dst)
            assert path_record(served) == path_record(fresh), dst
            from_memo = (
                served.status is RevtrStatus.ABORTED_INTERDOMAIN
                and not sum(served.probe_counts.values())
                and sum(fresh.probe_counts.values())
            )
            if not from_memo and day_one:
                # A re-derivation re-measures, and re-caches, what
                # expired from the measurement cache; a served abort
                # does not.  Before any entry can have expired, the
                # two sides spend alike on everything else.
                assert served.probe_counts == fresh.probe_counts
                assert served.duration == fresh.duration
            if served.status is RevtrStatus.ABORTED_INTERDOMAIN:
                twins.aborted.append((src, dst, served.addresses()))

        for _ in range(data.draw(st.integers(15, 50), "ops")):
            op = data.draw(st.sampled_from(_OPS))
            if op == "request" or not twins.aborted:
                src, dst, _ = data.draw(st.sampled_from(abort_pool))
                request(src, dst)
                continue
            # Every other op is about an abort seen so far, which is
            # repeated right after it.
            src, dst, addrs = data.draw(st.sampled_from(twins.aborted))
            if op == "cross":
                # A completed measurement through one of its hops: what
                # rule (c) watches for.
                crossed = [
                    ((aborted_src, aborted_dst), (s, d))
                    for aborted_src, aborted_dst, aborted in twins.aborted
                    for s, d, hops in abort_pool
                    if s == aborted_src and hops & set(aborted)
                ]
                if crossed:
                    (src, dst), crossing = data.draw(st.sampled_from(crossed))
                    request(*crossing)
                request(src, dst)
                continue
            if op == "repeat":
                request(src, dst)
                continue
            if op == "faults":
                # Measured inside a loss window, then repeated after it.
                rate = data.draw(st.sampled_from([0.05, 0.2]))
                twins.apply("faults", rate)
                request(src, dst)
                request(src, dst)
                twins.apply("faults", None)
                request(src, dst)
                continue
            if op == "advance":
                arg = data.draw(st.sampled_from([600.0, 3_700.0]))
            elif op in ("refresh", "grow"):
                arg = src
            elif op == "poison":
                ip2as = twins.sides[0][0].ip2as
                transit = sorted(
                    {ip2as.asn(addr) for addr in addrs}
                    - {None, ip2as.asn(src), ip2as.asn(dst)}
                )
                if not transit:
                    request(src, dst)
                    continue
                arg = (src, data.draw(st.sampled_from(transit)))
            elif op in ("alias", "trace"):
                arg = (src, dst)
            else:
                arg = None
            twins.apply(op, arg)
            request(src, dst)


class TestRememberedAborts:
    """The engine's side: a repeat of an aborted measurement is served
    from the memo with no probe, and rules (d) and (f)."""

    def deployment(self, abort_pool):
        scenario, service, key = _abort_deployment(EngineConfig())
        src, dst, _ = abort_pool[0]

        def request():
            return service.request(MeasurementRequest(key, dst, src))

        return scenario, service, service._engines[src], request

    def test_repeat_is_served_from_the_memo(self, abort_pool):
        scenario, service, engine, request = self.deployment(abort_pool)
        first = request()
        assert first.status is RevtrStatus.ABORTED_INTERDOMAIN
        remembered = engine.segcache._aborts[first.dst].hops
        assert all(a is b for a, b in zip(first.hops, remembered))
        before = scenario.clock.now()
        again = request()
        assert path_record(again) == path_record(first)
        assert all(a is b for a, b in zip(again.hops, remembered))
        assert not sum(again.probe_counts.values())
        assert scenario.clock.now() == before
        assert again.duration == 0.0

    def test_served_abort_is_a_splice_event(self, abort_pool):
        scenario = Scenario(
            config=TopologyConfig.small(seed=ABORT_SEED),
            seed=ABORT_SEED,
            atlas_size=8,
            instrumentation=Instrumentation(),
        )
        service = scenario.service()
        key = service.add_user("u").api_key
        src, dst, _ = abort_pool[0]
        service.add_source(key, src)
        first = service.request(MeasurementRequest(key, dst, src))
        again = service.request(MeasurementRequest(key, dst, src))
        events = scenario.obs.events.events()
        splice = [
            e for e in events
            if e.kind == "splice" and e.mid == again.measurement_id
        ]
        assert [e.fields for e in splice] == [{
            "hop": dst, "hops": len(first.hops) - 1,
            "to_source": False, "full_path": True,
        }]
        story = ProvenanceLedger.from_events(
            events, again.measurement_id
        ).explain()
        assert "remembered abort" in story

    def test_a_hop_turned_terminal_is_rederived(self, abort_pool):
        scenario, service, engine, request = self.deployment(abort_pool)
        first = request()
        # (d) New alias evidence puts the destination on the source's
        # first hop: a fresh run ends there.
        scenario.resolver.add_group({first.dst, min(engine._terminal)})
        again = request()
        assert again.status is RevtrStatus.COMPLETE
        assert sum(again.probe_counts.values())

    def test_nothing_is_remembered_from_a_faulted_measurement(
        self, abort_pool
    ):
        scenario, service, engine, request = self.deployment(abort_pool)
        injector = scenario.install_faults(FaultPlan())
        # The engine binds its steps once; the last is the symmetry step.
        step_symmetry = engine._steps[-1]

        def injected(run):
            # (f) stand-in for a loss the plan injected mid-measurement
            injector.injections += 1
            return step_symmetry(run)

        engine._steps[-1] = injected
        first = request()
        assert first.status is RevtrStatus.ABORTED_INTERDOMAIN
        assert first.dst not in engine.segcache._aborts
        engine._steps[-1] = step_symmetry
        request()
        assert first.dst in engine.segcache._aborts
        # ... and none is served while an injector is installed.
        assert sum(request().probe_counts.values())
        scenario.internet.faults = None
        assert not sum(request().probe_counts.values())
