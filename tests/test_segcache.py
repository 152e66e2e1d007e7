"""Cross-measurement reverse-segment cache and coalesced batching.

Covers the amortization acceptance criteria: flags-off byte-identity,
spliced == from-scratch equality under stable routing, invalidation on
routing-generation bumps and TTL expiry, negative entries, the
violation-check gating of spliced chains, and coalesced == sequential
equivalence for ``measure_many``.
"""

import json

import pytest

from repro.core.result import HopTechnique, RevtrStatus
from repro.core.revtr import EngineConfig
from repro.core.segcache import DEFAULT_NEGATIVE_TTL, ReverseSegmentCache
from repro.experiments import Scenario
from repro.sim.clock import VirtualClock
from repro.topology import TopologyConfig

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


@pytest.fixture(scope="module")
def scenario():
    """A private Scenario: these tests bump routing generations and
    share per-source segment caches, which must not leak into the
    session-scoped fixtures."""
    return Scenario(
        config=TopologyConfig.small(seed=7), seed=7, atlas_size=12
    )


def fresh_engine(
    scenario, source, *, segment_cache=False, coalesce=False, **extra
):
    """An uncached engine with its own segment cache (when enabled)."""
    config = EngineConfig(
        segment_cache=segment_cache,
        coalesce_batches=coalesce,
        **extra,
    )
    if segment_cache:
        # Bundle-level sharing is the production behaviour; tests want
        # isolation, so start every engine from an empty cache.
        scenario.bundle(source).segcache = None
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


#: A positive-entry lifetime well clear of the negative one.
TTL = 10 * DEFAULT_NEGATIVE_TTL


def make_cache():
    return ReverseSegmentCache(VirtualClock(), FakeInternet(), ttl=TTL)


class TestSegmentCacheUnit:
    def test_store_lookup_roundtrip(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
        entry = cache.lookup("a")
        assert entry.next_hop == "b"
        assert entry.technique is HopTechnique.RR
        assert not entry.negative
        assert cache.stats.hits == 1

    def test_generation_bump_invalidates(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
        cache.internet.routing_generation += 1
        assert cache.lookup("a") is None
        assert cache.stats.invalidations_generation == 1
        assert cache.stats.misses == 1
        assert "a" not in cache

    def test_ttl_expiry_invalidates(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
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
        cache.store("a", "b", HopTechnique.RR)
        cache.store("b", "c", HopTechnique.SPOOFED_RR)
        cache.store("c", "d", HopTechnique.TIMESTAMP)
        chain, dead = cache.chain("a", limit=10)
        assert not dead
        assert [e.next_hop for e in chain] == ["b", "c", "d"]

    def test_chain_respects_limit_and_stop(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
        cache.store("b", "c", HopTechnique.RR)
        chain, _ = cache.chain("a", limit=1)
        assert [e.next_hop for e in chain] == ["b"]
        chain, _ = cache.chain("a", limit=10, stop={"c"}.__contains__)
        assert [e.next_hop for e in chain] == ["b"]

    def test_chain_is_loop_free(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
        cache.store("b", "a", HopTechnique.RR)
        chain, _ = cache.chain("a", limit=10)
        assert [e.next_hop for e in chain] == ["b"]

    def test_chain_leading_negative_reports_dead(self):
        cache = make_cache()
        cache.store_negative("a")
        chain, dead = cache.chain("a", limit=10)
        assert chain == [] and dead

    def test_chain_mid_negative_just_ends(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
        cache.store_negative("b")
        chain, dead = cache.chain("a", limit=10)
        assert [e.next_hop for e in chain] == ["b"]
        assert not dead

    def test_purge_expired_counts_by_reason(self):
        cache = make_cache()
        cache.store("a", "b", HopTechnique.RR)
        cache.internet.routing_generation += 1
        cache.store("c", "d", HopTechnique.RR)
        cache.store_negative("e")
        cache.clock.advance(DEFAULT_NEGATIVE_TTL + 1)
        assert cache.purge_expired() == 2
        assert cache.stats.invalidations_generation == 1
        assert cache.stats.invalidations_ttl == 1
        assert len(cache) == 1


class TestFlagsOffByteIdentity:
    def test_measure_many_off_is_byte_identical(self, scenario):
        """With both flags off, ``measure_many`` is literally the
        sequential loop — identical JSON including durations and
        probe counts."""
        source = scenario.sources()[0]
        dsts = scenario.responsive_destinations(4, options_only=True)
        sequential = fresh_engine(scenario, source)
        baseline = [
            json.dumps(sequential.measure(d).to_dict(), sort_keys=True)
            for d in dsts
        ]
        batched = fresh_engine(scenario, source)
        got = [
            json.dumps(r.to_dict(), sort_keys=True)
            for r in batched.measure_many(dsts)
        ]
        assert got == baseline

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

    def test_flag_defaults_are_off(self):
        config = EngineConfig()
        assert config.segment_cache is False
        assert config.coalesce_batches is False


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
        engine.segcache.ttl = 50.0
        engine.measure(dst)
        scenario.clock.advance(51.0)
        before = engine.segcache.stats.splices
        engine.measure(dst)
        assert engine.segcache.stats.splices == before
        assert engine.segcache.stats.invalidations_ttl > 0

    def test_negative_entry_skips_rr(self, scenario):
        """A router that recently ignored the whole RR arsenal is not
        re-probed: the engine skips its RR step entirely."""
        source = scenario.sources()[0]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        # Pick a destination whose RR step actually runs (i.e. the
        # atlas does not complete the path at the destination hop).
        probed = []
        real_rr = engine._rr_step
        engine._rr_step = lambda cur: (
            probed.append(cur) or real_rr(cur)
        )
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
        engine.segcache.clear()
        engine.segcache.store_negative(dst)
        probed.clear()
        result = engine.measure(dst)
        assert engine.segcache.stats.negative_hits >= 1
        # The known-dead router was never re-aimed at; later hops may
        # still run their own RR steps.
        assert dst not in probed
        assert result.hops

    def test_spliced_chain_rides_behind_violation_check(
        self, scenario
    ):
        """Spliced hops get the same Appendix E gating as RR-revealed
        hops: an injected destination-based-routing violation must be
        flagged on the spliced result too."""
        source = scenario.sources()[1]
        dst = scenario.responsive_destinations(5, options_only=True)[1]
        engine = fresh_engine(
            scenario,
            source,
            segment_cache=True,
            use_cache=False,
            detect_violations=True,
        )
        cold = engine.measure(dst)
        if cold.status is not RevtrStatus.COMPLETE:
            pytest.skip("destination did not complete")
        checked = []

        def rigged_check(revealed):
            checked.append(list(revealed))
            return revealed[0]

        engine._violation_check = rigged_check
        warm = engine.measure(dst)
        assert engine.segcache.stats.splices > 0
        spliced_checks = [c for c in checked if len(c) >= 2]
        assert spliced_checks, "splice skipped the violation check"
        assert warm.suspected_violations
        for suspect in warm.suspected_violations:
            assert suspect in warm.addresses()


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
        ttl = engine.segcache.ttl
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

    def test_mid_path_splice_does_not_extend_ttl(self, scenario):
        source = scenario.sources()[1]
        engine = fresh_engine(
            scenario, source, segment_cache=True, use_cache=False
        )
        stats = engine.segcache.stats
        ttl = engine.segcache.ttl
        dsts = scenario.responsive_destinations(40, options_only=True)
        for dst in dsts[:8]:
            engine.measure(dst)
        scenario.clock.advance(0.6 * ttl)
        # A destination behind a chain the first pass revealed: part
        # measured now, the rest spliced from 0.6 x ttl ago.
        behind = None
        for dst in dsts[8:]:
            splices = stats.splices
            result = engine.measure(dst)
            if (
                result.status is RevtrStatus.COMPLETE
                and stats.splices > splices
                and sum(result.probe_counts.values()) > 0
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
        segcache.store(pub, nxt, HopTechnique.SPOOFED_RR)
        segcache.store(nxt, source, HopTechnique.SOURCE)
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
        """Batch coalescing may drop redundant probes (and therefore
        time and budget) but must not change any measured route."""
        source = scenario.sources()[0]
        dsts = scenario.responsive_destinations(6, options_only=True)
        baseline = [
            path_view(fresh_engine(scenario, source).measure(d))
            for d in dsts
        ]
        engine = fresh_engine(scenario, source, coalesce=True)
        got = [path_view(r) for r in engine.measure_many(dsts)]
        assert got == baseline

    def test_coalescer_is_per_call(self, scenario):
        source = scenario.sources()[0]
        dsts = scenario.responsive_destinations(2, options_only=True)
        engine = fresh_engine(scenario, source, coalesce=True)
        engine.measure_many(dsts)
        assert engine._coalescer is None


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
