"""Tests for Gao-Rexford route computation, poisoning, and anycast."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.asgraph import ASGraph, ASTier, Relationship
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_internet
from repro.topology import policy as policy_module
from repro.topology.policy import (
    AnnouncementSpec,
    Origin,
    RouteClass,
    RoutingPolicy,
)
from tests.helpers.reference_policy import ReferencePolicy


def diamond_graph():
    """1 and 2 are providers of 3 and 4; 1-2 peer; 3-4 peer.

        1 --peer-- 2
        |  \\      |
        3   \\---- 4      (3, 4 customers)
    """
    graph = ASGraph()
    for asn in (1, 2, 3, 4):
        graph.add_as(asn, ASTier.TRANSIT if asn <= 2 else ASTier.STUB)
    graph.add_edge(1, 2, Relationship.PEER)
    graph.add_edge(1, 3, Relationship.CUSTOMER)
    graph.add_edge(1, 4, Relationship.CUSTOMER)
    graph.add_edge(2, 4, Relationship.CUSTOMER)
    graph.add_edge(3, 4, Relationship.PEER)
    return graph


class TestBasicSelection:
    def test_customer_route_preferred_over_peer(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(4)
        # AS1 can reach 4 directly (customer) or via peer 2; customer wins.
        route = policy.route_of(1, spec)
        assert route.route_class is RouteClass.CUSTOMER
        assert route.path == (1, 4)

    def test_peer_route_of_stub(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(4)
        route = policy.route_of(3, spec)
        # 3 reaches 4 via the direct peering, not up through 1.
        assert route.route_class is RouteClass.PEER
        assert route.path == (3, 4)

    def test_provider_route(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(3)
        # 2 has no customer/peer path to 3; must go up?  2 is a provider
        # of 4 which peers with 3, but peer routes are not exported to
        # providers; 2 reaches 3 via its peer 1 (1 has customer route).
        route = policy.route_of(2, spec)
        assert route.route_class is RouteClass.PEER
        assert route.path == (2, 1, 3)

    def test_origin_route(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(4)
        route = policy.route_of(4, spec)
        assert route.route_class is RouteClass.ORIGIN
        assert route.next_as is None

    def test_valley_free_no_peer_to_peer_transit(self):
        # 5 peers with 4 and buys transit from 1. Peer routes must not
        # be re-exported: 3 must not hear 5 through its peer 4.
        graph = diamond_graph()
        graph.add_as(5, ASTier.STUB)
        graph.add_edge(4, 5, Relationship.PEER)
        graph.add_edge(1, 5, Relationship.CUSTOMER)
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(5)
        route3 = policy.route_of(3, spec)
        assert route3 is not None
        assert route3.path == (3, 1, 5)
        # 2, a provider of 4, must not hear 4's peer route either: it
        # reaches 5 through its peer 1 (customer route at 1).
        route2 = policy.route_of(2, spec)
        assert route2.path == (2, 1, 5)

    def test_path_consistency_is_a_tree(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(3)
        routes = policy.routes(spec)
        for asn, route in routes.items():
            if route.next_as is None:
                continue
            next_route = routes[route.next_as]
            assert route.path[1:] == next_route.path

    def test_unreachable_as_has_no_route(self):
        graph = diamond_graph()
        graph.add_as(99, ASTier.STUB)  # isolated
        policy = RoutingPolicy(graph)
        assert policy.route_of(99, AnnouncementSpec.single(4)) is None
        assert policy.route_of(1, AnnouncementSpec.single(99)) is None


class TestPoisoning:
    def test_poisoned_as_rejects_route(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(
            origins=(Origin(4),), poisoned=frozenset({1})
        )
        assert policy.route_of(1, spec) is None
        # 3 now reaches 4 only via the direct peering.
        route3 = policy.route_of(3, spec)
        assert route3.path == (3, 4)

    def test_prepend_lengthens_path(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        plain = policy.route_of(1, AnnouncementSpec.single(4))
        prepended = policy.route_of(
            1, AnnouncementSpec(origins=(Origin(4, prepend=3),))
        )
        assert prepended.length == plain.length + 3


class TestNoExportAndSelectiveAnnounce:
    def test_no_export_blocks_edge(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(
            origins=(Origin(4),),
            no_export=frozenset({(4, 1)}),
        )
        route1 = policy.route_of(1, spec)
        # 1 cannot hear 4 directly; it hears via peer 2.
        assert route1.path == (1, 2, 4)

    def test_selective_announce(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(
            origins=(Origin(4, announce_to=frozenset({2})),)
        )
        route1 = policy.route_of(1, spec)
        assert route1.path == (1, 2, 4)


class TestAnycast:
    def test_catchment_partition(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(origins=(Origin(3), Origin(4)))
        # Each origin catches itself.
        assert policy.catchment(3, spec) == 3
        assert policy.catchment(4, spec) == 4
        # Providers pick their directly attached origin.
        assert policy.catchment(2, spec) == 4
        assert policy.catchment(1, spec) in (3, 4)
        assert policy.route_of(1, spec).length == 2


class TestDeterminism:
    def test_same_inputs_same_routes(self, small_internet):
        policy_a = RoutingPolicy(small_internet.graph, salt=3)
        policy_b = RoutingPolicy(small_internet.graph, salt=3)
        asns = small_internet.graph.asns()
        spec = AnnouncementSpec.single(asns[-1])
        assert policy_a.routes(spec) == policy_b.routes(spec)

    def test_all_ases_reach_all_origins(self, small_internet):
        policy = small_internet.policy
        asns = small_internet.graph.asns()
        for dst in asns[:10]:
            routes = policy.routes(AnnouncementSpec.single(dst))
            assert set(routes) == set(asns), f"unreachable ASes for {dst}"


# ----------------------------------------------------------------------
# Flood-the-core, select-on-read against the reference object walk
# ----------------------------------------------------------------------
#
# Tables are compared as dicts, AS by AS.  The reference fills its dict
# in the order ASes first hear an offer; routes() fills it in graph
# order, because a route is now built when it is read.  No reader under
# src/ iterates the table (grep "\.routes(": only tests call it), so
# the order was never part of what callers rely on.

SYMMETRIC_FRACTIONS = (0.0, 0.45, 1.0)


def layered_graph(seed):
    """A hand-built hierarchy: peered core, multihomed transit and stubs
    (some with a provider local-pref), stub-stub peering, and one
    isolated AS."""
    rng = random.Random(seed)
    graph = ASGraph()
    core = [10, 20, 30]
    transit = [110, 120, 130, 140]
    stubs = list(range(1001, 1013))
    for asn in core:
        graph.add_as(asn, ASTier.TIER1)
    for asn in transit:
        graph.add_as(asn, ASTier.TRANSIT)
    for asn in stubs + [9999]:
        graph.add_as(asn, ASTier.STUB)
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_edge(a, b, Relationship.PEER)
    for asn in transit:
        for provider in rng.sample(core, rng.randint(1, 2)):
            graph.add_edge(provider, asn, Relationship.CUSTOMER)
    graph.add_edge(110, 120, Relationship.PEER)
    graph.add_edge(130, 140, Relationship.PEER)
    for asn in stubs:
        providers = rng.sample(transit + core, rng.randint(1, 3))
        for provider in providers:
            graph.add_edge(provider, asn, Relationship.CUSTOMER)
        if len(providers) > 1 and rng.random() < 0.7:
            graph.nodes[asn].neighbor_pref[rng.choice(providers)] = 100
        if len(providers) > 2:  # two equally preferred providers
            for provider in providers[:2]:
                graph.nodes[asn].neighbor_pref[provider] = 100
    for a, b in ((1001, 1002), (1003, 1007), (1010, 1011)):
        if not graph.has_edge(a, b):
            graph.add_edge(a, b, Relationship.PEER)
    # A preference naming a peer and one naming a stranger: neither is
    # a provider, so neither may attract the route.
    graph.nodes[1002].neighbor_pref[1001] = 200
    graph.nodes[1004].neighbor_pref[9999] = 200
    graph.validate()
    return graph


@pytest.fixture(scope="module")
def oracle_graphs(tiny_internet, small_internet):
    return {
        "tiny": tiny_internet.graph,
        "small": small_internet.graph,
        "diamond": diamond_graph(),
        "layered-1": layered_graph(1),
        "layered-2": layered_graph(2),
    }


@st.composite
def announcement_specs(draw, graph):
    """Everything an AnnouncementSpec can express, over *graph*: 1-4
    origins with prepends, announce_to subsets and per-origin poisoning;
    optionally a repeated origin ASN and an ASN the graph lacks; global
    poisoning; no_export pairs on real edges."""
    asns = graph.asns()
    some_asns = st.frozensets(st.sampled_from(asns), max_size=3)

    def origin(asn):
        neighbors = sorted(graph.nodes[asn].neighbors) if asn in graph else []
        announce_to = st.none()
        if neighbors:
            announce_to = st.one_of(
                st.none(), st.frozensets(st.sampled_from(neighbors))
            )
        return Origin(
            asn,
            prepend=draw(st.integers(min_value=0, max_value=3)),
            announce_to=draw(announce_to),
            poisoned=draw(st.one_of(st.just(frozenset()), some_asns)),
        )

    origins = [
        origin(asn)
        for asn in draw(
            st.lists(st.sampled_from(asns), min_size=1, max_size=4)
        )
    ]
    if draw(st.booleans()):
        origins.append(origin(origins[0].asn))
    if draw(st.booleans()):
        origins.insert(
            draw(st.integers(min_value=0, max_value=len(origins))),
            origin(max(asns) + 1),
        )
    edges = [
        (asn, neighbor)
        for asn in asns
        for neighbor in graph.nodes[asn].neighbors
    ]
    return AnnouncementSpec(
        origins=tuple(origins),
        poisoned=draw(st.one_of(st.just(frozenset()), some_asns)),
        no_export=draw(
            st.one_of(
                st.just(frozenset()),
                st.frozensets(st.sampled_from(edges), max_size=4),
            )
        ),
    )


def draw_case(data, oracle_graphs):
    """A graph, a policy salt and a spec over that graph."""
    name = data.draw(st.sampled_from(sorted(oracle_graphs)), label="graph")
    graph = oracle_graphs[name]
    salt = data.draw(st.integers(min_value=0, max_value=50), label="salt")
    return graph, salt, data.draw(announcement_specs(graph), label="spec")


def assert_unicast_routes_equal_reference(graph, salt, fraction):
    """Every unicast spec of *graph*, one policy (so one compiled view)
    serving all of them."""
    policy = RoutingPolicy(graph, salt, fraction)
    reference = ReferencePolicy(graph, salt, fraction)
    for asn in graph.asns():
        spec = AnnouncementSpec.single(asn)
        assert policy.routes(spec) == reference.routes(spec)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_compiled_routes_equal_reference(oracle_graphs, data):
    """Same RouteChoice for every AS as the eager all-AS
    implementation — for every kind of spec."""
    graph, salt, spec = draw_case(data, oracle_graphs)
    for fraction in SYMMETRIC_FRACTIONS:
        expected = ReferencePolicy(graph, salt, fraction).routes(spec)
        actual = RoutingPolicy(graph, salt, fraction).routes(spec)
        assert actual == expected, fraction


READS = ("route_of", "next_hop_as", "catchment", "routes")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reads_in_any_order_equal_reference(oracle_graphs, data):
    """A route is selected when it is first read, so what was read
    before it must not matter: any ASes (one of them unknown to the
    graph), through any accessor, in any order, with the full table
    asked for in between."""
    graph, salt, spec = draw_case(data, oracle_graphs)
    fraction = data.draw(st.sampled_from(SYMMETRIC_FRACTIONS))
    asns = graph.asns()
    reads = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(asns + [max(asns) + 1]),
                st.sampled_from(READS),
            ),
            max_size=12,
        ),
        label="reads",
    )
    expected = ReferencePolicy(graph, salt, fraction).routes(spec)
    policy = RoutingPolicy(graph, salt, fraction)
    for asn, read in reads:
        want = expected.get(asn)
        if read == "next_hop_as":
            got = policy.next_hop_as(asn, spec)
            assert got == (want.next_as if want else None)
        elif read == "catchment":
            got = policy.catchment(asn, spec)
            assert got == (want.origin if want else None)
        elif read == "routes":
            assert policy.routes(spec) == expected
        route = policy.route_of(asn, spec)
        assert route == want
        if route is not None and route.next_as is not None:
            assert route.path[1:] == policy.route_of(route.next_as, spec).path
    assert policy.routes(spec) == expected


@pytest.mark.parametrize("fraction", SYMMETRIC_FRACTIONS)
def test_compiled_unicast_routes_equal_reference(small_internet, fraction):
    assert_unicast_routes_equal_reference(
        small_internet.graph, small_internet.policy.salt, fraction
    )


def test_benchmark_environment_equals_reference():
    """Every unicast spec of the topology benchmarks/e2e measures on
    (``TopologyConfig.large(7)``), at its own salt and
    symmetric_tiebreak_fraction."""
    built = build_internet(TopologyConfig.large(seed=7)).policy
    assert_unicast_routes_equal_reference(
        built.graph, built.salt, built.symmetric_tiebreak_fraction
    )


def test_equal_tiebreaks_are_refused(monkeypatch):
    """Between two equal offers the flood would keep the one that came
    first and a read the one it looks at first; rather than define an
    order for both, a graph that could produce the tie does not
    compile.  Tie-breaks are CRC-32s, so it takes a patched hash."""
    monkeypatch.setattr(policy_module, "_tiebreak", lambda asn, via, salt: 7)
    policy = RoutingPolicy(diamond_graph())  # 3 and 4: customers of 1
    with pytest.raises(ValueError, match="same tie-break"):
        policy.route_of(2, AnnouncementSpec.single(4))


class TestMutateThenInvalidate:
    """The compiled view is a snapshot: graph edits show after
    invalidate(), and not before."""

    @staticmethod
    def flippable_leaf(internet):
        """A multihomed leaf whose route to some origin follows its
        preferred provider, with another provider to flip to."""
        graph, policy = internet.graph, internet.policy
        for asn, node in graph.nodes.items():
            if not node.neighbor_pref or node.customers():
                continue
            preferred = max(node.neighbor_pref, key=node.neighbor_pref.get)
            others = [p for p in node.providers() if p != preferred]
            for origin in graph.asns():
                spec = AnnouncementSpec.single(origin)
                route = policy.route_of(asn, spec)
                if (
                    others
                    and route is not None
                    and route.route_class is RouteClass.PROVIDER
                    and route.next_as == preferred
                    and policy.route_of(others[0], spec) is not None
                ):
                    return asn, spec, others[0]
        raise AssertionError("no flippable leaf in this topology")

    def test_in_place_neighbor_pref_flip(self):
        internet = build_internet(TopologyConfig.tiny(seed=11))
        policy = internet.policy
        asn, spec, other = self.flippable_leaf(internet)
        before = policy.route_of(asn, spec)

        # As exp_staleness._flip_preference does: edit the dict in place.
        node = internet.graph.nodes[asn]
        node.neighbor_pref.clear()
        node.neighbor_pref[other] = 100
        assert policy.route_of(asn, spec) == before  # stale until told

        internet.invalidate_routing()
        after = policy.route_of(asn, spec)
        assert after.next_as == other
        assert after != before
        reference = ReferencePolicy(
            internet.graph, policy.salt, policy.symmetric_tiebreak_fraction
        )
        assert policy.routes(spec) == reference.routes(spec)

    def test_first_read_after_flip_sees_the_compiled_graph(self):
        """A route selected on read comes from the compiled tables, not
        the live ASNode — also when its first read follows the edit."""
        internet = build_internet(TopologyConfig.tiny(seed=11))
        asn, spec, other = self.flippable_leaf(internet)
        before = internet.policy.route_of(asn, spec)
        policy = RoutingPolicy(
            internet.graph,
            internet.policy.salt,
            internet.policy.symmetric_tiebreak_fraction,
        )
        # Compiles the graph and floods spec; asn itself stays unread.
        assert policy.route_of(other, spec) is not None
        unseen = AnnouncementSpec(origins=(Origin(spec.origins[0].asn, 1),))

        node = internet.graph.nodes[asn]
        node.neighbor_pref.clear()
        node.neighbor_pref[other] = 100
        assert policy.route_of(asn, spec) == before
        assert policy.next_hop_as(asn, unseen) == before.next_as

        policy.invalidate()
        assert policy.next_hop_as(asn, spec) == other
        assert policy.next_hop_as(asn, unseen) == other

    def test_add_edge_needs_invalidate(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(3)
        assert policy.route_of(2, spec).path == (2, 1, 3)
        # A spec the policy has not seen yet, to show that the compiled
        # view — not only the route cache — predates the new edge.
        unseen = AnnouncementSpec(origins=(Origin(3, prepend=1),))

        graph.add_edge(2, 3, Relationship.CUSTOMER)
        assert policy.route_of(2, spec).path == (2, 1, 3)
        assert policy.route_of(2, unseen).path == (2, 1, 3, 3)

        policy.invalidate()
        assert policy.route_of(2, spec).path == (2, 3)
        assert policy.route_of(2, unseen).path == (2, 3, 3)
        assert policy.routes(spec) == ReferencePolicy(graph).routes(spec)


class TestSpecHashing:
    def test_equal_specs_hash_equal(self):
        def build():
            return AnnouncementSpec(
                origins=(
                    Origin(4, prepend=1, announce_to=frozenset({1, 2})),
                    Origin(3, poisoned=frozenset({2})),
                ),
                poisoned=frozenset({9}),
                no_export=frozenset({(4, 1)}),
            )

        assert build() == build()
        assert hash(build()) == hash(build())
        assert len({build(), build(), AnnouncementSpec.single(4)}) == 2
        assert build() != AnnouncementSpec.single(4)
