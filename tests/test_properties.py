"""Property-based tests on core invariants (hypothesis).

These target the properties the whole reproduction rests on:
valley-free/tree-consistent BGP paths, loop-free destination-based
forwarding, record-route slot discipline, and cache/clock monotonicity.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.addr import int_to_addr
from repro.net.options import RECORD_ROUTE_SLOTS, RecordRouteOption
from repro.net.packet import Probe, ProbeKind
from repro.topology.asgraph import ASGraph, ASTier, Relationship
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_internet
from repro.topology.policy import AnnouncementSpec, RouteClass, RoutingPolicy


# ----------------------------------------------------------------------
# Random AS graph generation for policy properties
# ----------------------------------------------------------------------


@st.composite
def as_graphs(draw):
    """Random valley-free-able AS graphs: a tier-1 core plus customers."""
    n_core = draw(st.integers(min_value=1, max_value=3))
    n_rest = draw(st.integers(min_value=2, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=9999)))
    graph = ASGraph()
    core = list(range(1, n_core + 1))
    for asn in core:
        graph.add_as(asn, ASTier.TIER1)
    for a in core:
        for b in core:
            if a < b:
                graph.add_edge(a, b, Relationship.PEER)
    rest = list(range(n_core + 1, n_core + n_rest + 1))
    for asn in rest:
        graph.add_as(asn, ASTier.STUB)
        # Provider strictly earlier in the ordering: acyclic.
        provider = rng.choice(core + [a for a in rest if a < asn])
        graph.add_edge(provider, asn, Relationship.CUSTOMER)
        # Optional peering with an unrelated earlier AS.
        others = [a for a in rest if a < asn and a != provider]
        if others and rng.random() < 0.4:
            peer = rng.choice(others)
            if graph.relationship(asn, peer) is None:
                graph.add_edge(asn, peer, Relationship.PEER)
    return graph


@settings(max_examples=40, deadline=None)
@given(as_graphs(), st.integers(min_value=0, max_value=99))
def test_policy_paths_are_valley_free(graph, salt):
    """No route descends (customer/peer) and then re-ascends."""
    policy = RoutingPolicy(graph, salt=salt)
    for origin in graph.asns():
        routes = policy.routes(AnnouncementSpec.single(origin))
        for asn, route in routes.items():
            path = route.path
            # Classify each edge along the path (from asn toward origin).
            descended = False
            for here, nxt in zip(path, path[1:]):
                rel = graph.relationship(here, nxt)
                if rel is None:  # prepend duplicates
                    assert here == nxt
                    continue
                if rel in (Relationship.CUSTOMER, Relationship.PEER):
                    descended = True
                else:  # provider edge (going up)
                    assert not descended, (
                        f"valley in path {path} at {here}->{nxt}"
                    )


@settings(max_examples=40, deadline=None)
@given(as_graphs(), st.integers(min_value=0, max_value=99))
def test_policy_paths_form_trees(graph, salt):
    """Each AS's path is (next hop) + the next hop's path."""
    policy = RoutingPolicy(graph, salt=salt)
    for origin in graph.asns()[:4]:
        routes = policy.routes(AnnouncementSpec.single(origin))
        for asn, route in routes.items():
            if route.next_as is None:
                continue
            next_route = routes[route.next_as]
            assert route.path[1:] == next_route.path


@settings(max_examples=40, deadline=None)
@given(as_graphs(), st.integers(min_value=0, max_value=99))
def test_policy_origin_reaches_itself(graph, salt):
    policy = RoutingPolicy(graph, salt=salt)
    for origin in graph.asns():
        route = policy.route_of(origin, AnnouncementSpec.single(origin))
        assert route is not None
        assert route.route_class is RouteClass.ORIGIN
        assert route.next_as is None


# ----------------------------------------------------------------------
# Forwarding properties over generated Internets
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def property_internet():
    return build_internet(TopologyConfig.tiny(seed=23))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_forward_paths_are_loop_bounded(property_internet, data):
    """Forwarding never persistently loops: a router appears at most
    twice, and any revisit is attributable to an AS-level DBR violator
    bouncing the packet once (the sim's re-entry safeguard then forces
    the loop-free best route)."""
    internet = property_internet
    hosts = sorted(internet.hosts)
    src = data.draw(st.sampled_from(hosts))
    dst = data.draw(st.sampled_from(hosts))
    outcome = internet.send_probe(Probe(src=src, dst=dst))
    path = outcome.forward_router_path
    counts = {}
    for router_id in path:
        counts[router_id] = counts.get(router_id, 0) + 1
    assert max(counts.values(), default=0) <= 2, f"loop in {path}"
    if len(path) != len(set(path)):
        assert any(
            internet.routers[r].dbr_as_violator for r in path
        ), f"revisit without a violator in {path}"


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_rr_slots_bounded_and_ordered(property_internet, data):
    """RR never exceeds nine slots, and forward stamps precede the
    destination's own stamp."""
    internet = property_internet
    hosts = sorted(
        h.addr
        for h in internet.hosts.values()
        if h.responds_to_options and h.stamps_rr
    )
    src = data.draw(st.sampled_from(sorted(internet.mlab_hosts)))
    dst = data.draw(st.sampled_from(hosts))
    outcome = internet.send_probe(
        Probe(
            src=src,
            dst=dst,
            kind=ProbeKind.RECORD_ROUTE,
            record_route=RecordRouteOption(),
        )
    )
    if outcome.echo is None:
        return
    slots = outcome.echo.rr_slots
    assert len(slots) <= RECORD_ROUTE_SLOTS
    if dst in slots:
        index = slots.index(dst)
        forward_routers = set(outcome.forward_router_path)
        for addr in slots[:index]:
            owner = internet.iface_owner.get(addr)
            if owner is not None:
                assert owner in forward_routers


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_forwarding_is_destination_based_for_nonviolators(
    property_internet, data
):
    """Two probes from different sources to the same destination take
    the same path from any shared non-violating router onward."""
    internet = property_internet
    hosts = sorted(
        h.addr
        for h in internet.hosts.values()
        if h.responds_to_ping
    )
    dst = data.draw(st.sampled_from(hosts))
    src_a = data.draw(st.sampled_from(sorted(internet.mlab_hosts)))
    src_b = data.draw(st.sampled_from(hosts))
    path_a = internet.send_probe(
        Probe(src=src_a, dst=dst)
    ).forward_router_path
    path_b = internet.send_probe(
        Probe(src=src_b, dst=dst)
    ).forward_router_path
    shared = set(path_a) & set(path_b)
    for router_id in shared:
        router = internet.routers[router_id]
        if router.dbr_violator or router.dbr_as_violator:
            continue
        if router.is_load_balancer:
            continue
        suffix_a = path_a[path_a.index(router_id):]
        suffix_b = path_b[path_b.index(router_id):]
        # Suffixes may still pass through a downstream violator/LB;
        # require agreement only up to the first such router.
        for hop_a, hop_b in zip(suffix_a, suffix_b):
            assert hop_a == hop_b
            downstream = internet.routers[hop_a]
            if (
                downstream.dbr_violator
                or downstream.is_load_balancer
                or downstream.dbr_as_violator
            ):
                break


# ----------------------------------------------------------------------
# Generator invariants
# ----------------------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_generated_internet_invariants(seed):
    internet = build_internet(TopologyConfig.tiny(seed=seed))
    # Every interface has exactly one owner, and the anchor is either
    # the owner or the other endpoint of its link.
    for addr, owner_id in internet.iface_owner.items():
        owner = internet.routers[owner_id]
        assert owner.owns(addr)
        anchor = internet.iface_anchor[addr]
        if anchor != owner_id:
            assert anchor in internet.adjacency[owner_id]
    # Hosts sit on announced prefixes of their own AS.
    for host in internet.hosts.values():
        info = internet.prefix_table.lookup(host.addr)
        assert info is not None
        assert info.origin_asn == host.asn
    # Links are symmetric in the adjacency map.
    for a, neighbors in internet.adjacency.items():
        for b, (addr_a, addr_b) in neighbors.items():
            assert internet.adjacency[b][a] == (addr_b, addr_a)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_generated_internet_deterministic(seed):
    a = build_internet(TopologyConfig.tiny(seed=seed))
    b = build_internet(TopologyConfig.tiny(seed=seed))
    assert sorted(a.hosts) == sorted(b.hosts)
    assert sorted(a.iface_owner) == sorted(b.iface_owner)
    assert a.graph.asns() == b.graph.asns()


# ----------------------------------------------------------------------
# Address round trips under composition
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=8, max_value=32),
)
def test_prefix_table_agrees_with_containment(value, length):
    from repro.net.addr import Prefix, PrefixTable

    addr = int_to_addr(value)
    prefix = Prefix(value & Prefix(0, length).mask(), length)
    table = PrefixTable()
    table.insert(prefix, "hit")
    assert table.lookup(addr) == "hit"
    assert table.lookup_prefix(addr) == prefix
