"""Tests for the AS graph structure and customer cones."""

import pytest

from repro.topology.asgraph import ASGraph, ASTier, Relationship


def chain_graph():
    """1 -> 2 -> 3 (provider -> customer chains)."""
    graph = ASGraph()
    graph.add_as(1, ASTier.TIER1)
    graph.add_as(2, ASTier.TRANSIT)
    graph.add_as(3, ASTier.STUB)
    graph.add_edge(1, 2, Relationship.CUSTOMER)
    graph.add_edge(2, 3, Relationship.CUSTOMER)
    return graph


class TestEdges:
    def test_inverse_relationship(self):
        graph = chain_graph()
        assert graph.relationship(1, 2) is Relationship.CUSTOMER
        assert graph.relationship(2, 1) is Relationship.PROVIDER

    def test_peer_is_self_inverse(self):
        graph = chain_graph()
        graph.add_edge(2, 1, Relationship.PEER)  # overwrite
        assert graph.relationship(1, 2) is Relationship.PEER
        assert graph.relationship(2, 1) is Relationship.PEER

    def test_duplicate_asn_rejected(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            graph.add_as(1, ASTier.STUB)

    def test_self_loop_rejected(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, Relationship.PEER)

    def test_node_accessors(self):
        graph = chain_graph()
        assert graph.nodes[2].providers() == [1]
        assert graph.nodes[2].customers() == [3]
        assert graph.nodes[2].peers() == []


class TestCones:
    def test_cone_includes_self(self):
        graph = chain_graph()
        assert graph.customer_cone(3) == frozenset({3})

    def test_cone_transitive(self):
        graph = chain_graph()
        assert graph.customer_cone(1) == frozenset({1, 2, 3})
        assert graph.cone_size(1) == 3

    def test_cone_cache_invalidated_on_edge_add(self):
        graph = chain_graph()
        assert graph.cone_size(1) == 3
        graph.add_as(4, ASTier.STUB)
        graph.add_edge(1, 4, Relationship.CUSTOMER)
        assert graph.cone_size(1) == 4


class TestValidation:
    def test_valid_graph_passes(self):
        chain_graph().validate()

    def test_customer_cycle_detected(self):
        graph = ASGraph()
        graph.add_as(1, ASTier.TRANSIT)
        graph.add_as(2, ASTier.TRANSIT)
        graph.add_edge(1, 2, Relationship.CUSTOMER)
        # Force a cycle by direct manipulation.
        graph.nodes[2].neighbors[1] = Relationship.CUSTOMER
        graph.nodes[1].neighbors[2] = Relationship.CUSTOMER
        with pytest.raises(ValueError):
            graph.validate()


class TestGeneratedGraph(object):
    def test_tier1_clique(self, tiny_internet):
        graph = tiny_internet.graph
        tier1 = graph.tier1_asns()
        assert len(tier1) >= 2
        for a in tier1:
            for b in tier1:
                if a != b:
                    assert graph.relationship(a, b) is Relationship.PEER

    def test_every_non_tier1_has_provider(self, tiny_internet):
        graph = tiny_internet.graph
        for asn, node in graph.nodes.items():
            if node.tier is ASTier.TIER1:
                continue
            assert node.providers(), f"AS{asn} has no provider"

    def test_generated_graph_validates(self, tiny_internet):
        tiny_internet.graph.validate()
