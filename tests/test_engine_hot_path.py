"""The engine's indexed per-request path against its recompute oracles.

Per request the engine reads four things it used to rederive: whether
a hop is a terminal (one key-set intersection instead of an ``aligned``
scan), a hop's AS (one memo read), an AS link's suspicious verdict (one
memo read) and the probe counter's position (one list copy).  Each
memo names the one mutation that drops it; every test here issues that
mutation *after* the memo was filled and requires the answer of
``tests/helpers/reference_engine.py`` — the previous implementations,
verbatim.  The last two tests serve one seeded request stream twice:
once with every oracle patched in (the splices rebuilding each hop
they now share), and once through the scheduler with no observer
against once observed; each pair requires equal output.
"""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.alias.resolver import AliasResolver
from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.atlas import TracerouteAtlas
from repro.core.result import RevtrStatus
from repro.core.revtr import RevtrEngine
from repro.experiments import Scenario
from repro.net.addr import addr_to_int, int_to_addr
from repro.net.packet import ProbeKind
from repro.obs import Instrumentation
from repro.obs.instrument import NullInstrumentation
from repro.probing.budget import ProbeCounter
from repro.service import (
    JobState,
    MeasurementRequest,
    RevtrService,
    SourceRegistry,
)
from repro.topology import TopologyConfig
from repro.topology.asgraph import ASGraph, ASTier, Relationship
from tests.helpers.reference_engine import (
    oracle_engine,
    reference_asn,
    reference_delta,
    reference_is_suspicious_link,
    reference_mark,
    scan_is_terminal,
)

#: Three adjacent /30s, all four offsets each (so /31 pairs, /30 peers
#: and the peerless network/broadcast offsets all occur), plus one
#: address that shares nothing with them.
_BASE = addr_to_int("100.64.7.0")
POOL = [int_to_addr(_BASE + offset) for offset in range(12)] + [
    "198.51.100.77"
]

addresses = st.sampled_from(POOL)
#: ITDK ids overlap the ids ``AliasResolver`` gives constructor extra
#: groups (-1, -2): the two namespaces must stay apart.
itdk_maps = st.dictionaries(
    addresses, st.sampled_from((-1, -2, 5)), max_size=5
)
groups = st.sets(addresses, min_size=2, max_size=4)


@pytest.fixture(scope="module")
def tiny():
    return Scenario(
        config=TopologyConfig.tiny(seed=11), seed=11, atlas_size=8
    )


# ----------------------------------------------------------------------
# (1) terminal index
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    itdk=itdk_maps,
    measured=st.lists(groups, max_size=4),
)
def test_align_keys_intersect_iff_aligned(itdk, measured):
    resolver = AliasResolver(itdk=itdk)
    for group in measured:
        resolver.add_group(group)
    keys = {addr: resolver.align_keys(addr) for addr in POOL}
    for a in POOL:
        for b in POOL:
            assert (not keys[a].isdisjoint(keys[b])) == resolver.aligned(
                a, b
            ), (a, b)


terminal_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), addresses),
        st.tuples(st.just("group"), groups),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(itdk=itdk_maps, ops=terminal_ops)
def test_terminal_index_equals_scan(tiny, itdk, ops):
    """After any interleaving of terminal additions and ``add_group``
    calls — which can regroup an address that is already a terminal —
    the index answers what the scan answers, for every address."""
    resolver = AliasResolver(itdk=itdk)
    source = tiny.sources()[0]
    engine = RevtrEngine(
        prober=tiny.online_prober,
        source=source,
        atlas=TracerouteAtlas(source),
        selector=None,
        ip2as=tiny.ip2as,
        relationships=tiny.relationships,
        resolver=resolver,
    )
    for op, arg in ops:
        if op == "add":
            engine._add_terminal(arg)
        else:
            resolver.add_group(arg)
        for addr in POOL + [source]:
            assert engine._is_terminal(addr) == scan_is_terminal(
                engine, addr
            ), (op, arg, addr)


# ----------------------------------------------------------------------
# (3) AS facts
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_asn_equals_oracle_across_overrides(tiny_internet, data):
    mapper = IPToASMapper(tiny_internet)
    hosts = sorted(tiny_internet.hosts)[:3]
    pool = hosts + sorted(tiny_internet.iface_owner)[:2] + [
        "10.1.2.3", "203.0.113.7", None,
    ]
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("ask"), st.sampled_from(pool)),
                st.tuples(
                    st.just("apply"),
                    st.dictionaries(
                        st.sampled_from(pool[:-1]),
                        st.integers(64_000, 64_003),
                        max_size=3,
                    ),
                ),
                st.tuples(st.just("clear"), st.none()),
            ),
            max_size=12,
        )
    )
    for op, arg in ops:
        if op == "ask":
            mapper.asn(arg)
        elif op == "apply":
            mapper.apply_overrides(arg)
        else:
            mapper.clear_overrides()
        for addr in pool:
            assert mapper.asn(addr) == reference_asn(mapper, addr), (
                op, arg, addr,
            )


N_ASES = 6
#: Providers have the lower ASN, so customer edges cannot form a cycle.
as_edges = st.tuples(
    st.integers(1, N_ASES), st.integers(1, N_ASES),
    st.sampled_from((Relationship.CUSTOMER, Relationship.PEER)),
).filter(lambda edge: edge[0] < edge[1])


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(as_edges, max_size=8),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("ask"),
                st.tuples(
                    st.integers(1, N_ASES + 1), st.integers(1, N_ASES + 1)
                ),
            ),
            st.tuples(st.just("edge"), as_edges),
        ),
        max_size=10,
    ),
)
def test_suspicious_link_equals_oracle_across_add_edge(initial, ops):
    graph = ASGraph()
    for asn in range(1, N_ASES + 1):
        graph.add_as(asn, ASTier.STUB)
    for edge in initial:
        graph.add_edge(*edge)
    rels = ASRelationships(graph)
    # N_ASES + 1 is not in the graph
    everyone = range(1, N_ASES + 2)
    for op, arg in [("ask", (1, 2))] + ops:
        if op == "ask":
            rels.is_suspicious_link(*arg)
        else:
            graph.add_edge(*arg)
        for low in everyone:
            for high in everyone:
                assert rels.is_suspicious_link(
                    low, high
                ) == reference_is_suspicious_link(rels, low, high), (
                    op, arg, low, high,
                )


def test_suspicious_verdict_flips_with_the_edge_that_explains_it():
    """3 buys from 2 buys from 1: the 3-1 link is suspicious until the
    graph learns a direct 3-1 relationship."""
    graph = ASGraph()
    for asn in (1, 2, 3):
        graph.add_as(asn, ASTier.STUB)
    graph.add_edge(1, 2, Relationship.CUSTOMER)
    graph.add_edge(2, 3, Relationship.CUSTOMER)
    rels = ASRelationships(graph)
    assert rels.is_suspicious_link(3, 1)
    graph.add_edge(1, 3, Relationship.PEER)
    assert not rels.is_suspicious_link(3, 1)


# ----------------------------------------------------------------------
# (4) probe marks
# ----------------------------------------------------------------------

kinds = st.sampled_from(list(ProbeKind))
counter_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.integers(0, 1), kinds),
        st.tuples(st.just("mark"), st.integers(0, 1), st.none()),
        st.tuples(st.just("summed"), st.integers(0, 1), st.none()),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(
    seeded=st.dictionaries(kinds, st.integers(1, 4), max_size=3),
    ops=counter_ops,
)
def test_marks_and_deltas_equal_oracle(seeded, ops):
    """Counter 0 starts empty and counter 1 was constructed with
    counts; counters constructed from two counters' summed counts join
    the pool.  After every operation every
    counter's mark, and its delta from every mark taken of it so far
    (contents *and* key order), equal the oracle's."""
    counters = [ProbeCounter(), ProbeCounter(Counter(seeded))]
    marks = [[c.mark()] for c in counters]
    for op, who, kind in ops:
        counter = counters[who]
        if op == "record":
            counter.record(kind)
        elif op == "mark":
            marks[who].append(counter.mark())
        else:
            summed = Counter(counter.counts)
            summed.update(counters[1 - who].counts)
            counters.append(ProbeCounter(summed))
            marks.append([counters[-1].mark()])
        for counter, taken in zip(counters, marks):
            assert counter.mark() == reference_mark(counter)
            for mark in taken:
                assert list(counter.delta(mark).items()) == list(
                    reference_delta(counter, mark).items()
                ), (op, who, kind)


# ----------------------------------------------------------------------
# One request stream, served with and without the oracles
# ----------------------------------------------------------------------


def _zipf_deployment(instrumentation=None):
    """A fresh tiny (always amortizing) service, one user and 2
    sources, and the stream to serve on it: 320 Zipf requests over 16
    destinations, as ``(source, destination)`` pairs."""
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=11), seed=11, atlas_size=8
    )
    service = RevtrService(
        prober=scenario.online_prober,
        registry=SourceRegistry(
            scenario.internet,
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.spoofer_addrs,
            atlas_size=8,
            seed=11,
        ),
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        instrumentation=instrumentation,
    )
    key = service.add_user("zipf", max_per_day=10_000).api_key
    sources = scenario.sources()[:2]
    for source in sources:
        service.add_source(key, source)
    dsts = scenario.responsive_destinations(16)
    rng = random.Random(15)
    weights = [1.0 / rank for rank in range(1, len(dsts) + 1)]
    stream = [
        (rng.choice(sources), dst)
        for dst in rng.choices(dsts, weights=weights, k=320)
    ]
    return service, key, stream


def _segcache_state(service):
    """Every cached edge, keyed ``(source, router)``, and each source's
    cache stats."""
    edges = {
        (source, addr): entry
        for source, engine in service._engines.items()
        for addr, entry in engine.segcache._entries.items()
    }
    stats = [engine.segcache.stats for engine in service._engines.values()]
    return edges, stats


def _serve_stream(check):
    """Serve the Zipf stream request by request; returns what was served
    and what the segment caches hold afterwards.  With *check*, every
    terminal test is held to the scan and every whole-path splice to
    the cache: each hop after the destination *is* the hop stored under
    its predecessor, not a copy."""
    service, key, stream = _zipf_deployment()

    checked = [0]
    shared = [0]
    aborts = [0]
    index_is_terminal = RevtrEngine._is_terminal
    open_full_splice = RevtrEngine._open_full_splice

    def checked_is_terminal(self, addr):
        answer = index_is_terminal(self, addr)
        assert answer == scan_is_terminal(self, addr), addr
        checked[0] += 1
        return answer

    def checked_full_splice(self, run):
        memo = self.segcache._aborts.get(run.result.dst)
        served = open_full_splice(self, run)
        if served and run.status is RevtrStatus.ABORTED_INTERDOMAIN:
            # A served abort is the remembered hops themselves, and
            # ends at the remembered last hop, not at the source.
            assert len(run.hops) == len(memo.hops)
            for hop, remembered in zip(run.hops, memo.hops):
                assert hop is remembered, hop
            assert run.hops[-1] is memo.hops[-1]
            aborts[0] += 1
        elif served:
            entries = self.segcache._entries
            for before, hop in zip(run.hops, run.hops[1:]):
                assert hop is entries[before.addr].hop, hop
            assert run.hops[-1] is self._source_hop
            shared[0] += 1
        return served

    if check:
        RevtrEngine._is_terminal = checked_is_terminal
        RevtrEngine._open_full_splice = checked_full_splice
    try:
        served = [
            service.request(MeasurementRequest(key, dst, src)).to_dict()
            for src, dst in stream
        ]
    finally:
        if check:
            RevtrEngine._is_terminal = index_is_terminal
            RevtrEngine._open_full_splice = open_full_splice
    edges, stats = _segcache_state(service)
    return served, edges, stats, checked[0], shared[0], aborts[0]


def test_request_stream_identical_with_oracles_patched_in():
    """Against the oracles, which also rebuild every spliced hop."""
    served, edges, stats, checked, shared, aborts = _serve_stream(
        check=True
    )
    with oracle_engine():
        ref_served, ref_edges, ref_stats, _, _, _ = _serve_stream(
            check=False
        )
    assert served == ref_served
    # The index answered every terminal test the stream asked (whole-
    # path splices ask none) exactly as the scan would have.
    assert checked > 100
    assert sum(s.splices for s in stats) > 100
    assert [s.splices for s in stats] == [s.splices for s in ref_stats]
    # Whole-path splices happened, and shared the stored hops; so did
    # remembered aborts.
    assert shared > 50
    assert aborts > 0
    # Same edges; only the oracle restamps the ones it re-reads.
    assert edges.keys() == ref_edges.keys()
    restamped = 0
    for where, entry in edges.items():
        ref = ref_edges[where]
        assert (entry.next_hop, entry.hop, entry.generation) == (
            ref.next_hop, ref.hop, ref.generation,
        ), where
        assert entry.stored_at <= ref.stored_at, where
        restamped += entry.stored_at < ref.stored_at
    assert restamped > 0
    assert sum(s.stores for s in stats) < sum(s.stores for s in ref_stats)


def test_scheduled_stream_identical_without_an_observer(monkeypatch):
    """The Zipf stream through the scheduler (same-source groups, reuse
    on), once on ``NULL`` and once observed: every job's result and the
    segment caches agree, and on ``NULL`` nothing calls ``inc``,
    ``observe`` or ``set_gauge``."""

    def run(instrumentation):
        service, key, stream = _zipf_deployment(instrumentation)
        scheduler = service.scheduler()
        jobs = []
        # Waves that fit the per-user queue, each drained before the
        # next, so lanes free together and groups form.
        for start in range(0, len(stream), 8):
            for src, dst in stream[start:start + 8]:
                jobs.append(scheduler.submit(key, dst, src))
            scheduler.run()
        assert all(job.state is JobState.DONE for job in jobs)
        edges, stats = _segcache_state(service)
        return (
            [job.result.to_dict() for job in jobs],
            {where: (e.hop, e.generation) for where, e in edges.items()},
            [dataclasses.asdict(s) for s in stats],
        )

    def refuse(*args, **kwargs):
        raise AssertionError("the NULL facade was called")

    for name in ("inc", "observe", "set_gauge"):
        monkeypatch.setattr(NullInstrumentation, name, refuse)
    plain = run(None)
    monkeypatch.undo()
    observed = run(Instrumentation())
    assert plain == observed
    assert sum(s["splices"] for s in plain[2]) > 100
