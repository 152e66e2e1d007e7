"""AS-level graph with business relationships.

The AS graph is the coarse structure all routing decisions key on:
customer/provider and peer edges drive Gao-Rexford route selection
(:mod:`repro.topology.policy`), and the customer-cone computation feeds
the suspicious-link flagging (§5.2.2) and the asymmetry-vs-cone analysis
(Fig. 8b, Table 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple


class ASTier(enum.Enum):
    """Coarse role of an AS in the hierarchy."""

    TIER1 = "tier1"
    TRANSIT = "transit"
    STUB = "stub"
    NREN = "nren"
    MLAB = "mlab"  # vantage-point site AS


class Relationship(enum.Enum):
    """Business relationship of an edge, from the first AS's view."""

    CUSTOMER = "customer"  # the neighbour is my customer
    PROVIDER = "provider"  # the neighbour is my provider
    PEER = "peer"

    def inverse(self) -> "Relationship":
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


@dataclass
class ASNode:
    """A single autonomous system."""

    asn: int
    tier: ASTier
    name: str = ""
    cold_potato: bool = False
    allows_spoofing: bool = True
    neighbors: Dict[int, Relationship] = field(default_factory=dict)
    #: BGP local preference per neighbour (higher wins). Honoured for
    #: leaf ASes (no customers), where overriding the default
    #: shortest-path choice cannot break path consistency for others.
    neighbor_pref: Dict[int, int] = field(default_factory=dict)

    def customers(self) -> List[int]:
        return [
            asn
            for asn, rel in self.neighbors.items()
            if rel is Relationship.CUSTOMER
        ]

    def providers(self) -> List[int]:
        return [
            asn
            for asn, rel in self.neighbors.items()
            if rel is Relationship.PROVIDER
        ]

    def peers(self) -> List[int]:
        return [
            asn
            for asn, rel in self.neighbors.items()
            if rel is Relationship.PEER
        ]

    def __hash__(self) -> int:
        return self.asn


class ASGraph:
    """The AS-level topology: nodes, relationship edges, cones.

    The graph does not notify its readers.  A
    :class:`~repro.topology.policy.RoutingPolicy` selects each route,
    when it is first read, from a compiled copy of the edges and
    ``neighbor_pref`` tables, so after changing either — :meth:`add_edge`,
    or an ``ASNode`` edited in place — call ``RoutingPolicy.invalidate()``
    (or ``Internet.invalidate_routing()``); until then every route,
    read before or after the change, is that of the graph as it was.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, ASNode] = {}
        self._cones: Optional[Dict[int, FrozenSet[int]]] = None
        #: bumped wherever the cone cache is dropped, so a reader that
        #: memoises answers derived from edges and cones (e.g.
        #: ``ASRelationships.is_suspicious_link``) drops them at the
        #: same moments and is stale in the same cases — never more
        self.edge_version = 0

    def add_as(
        self,
        asn: int,
        tier: ASTier,
        name: str = "",
        cold_potato: bool = False,
        allows_spoofing: bool = True,
    ) -> ASNode:
        """Create and register a new AS."""
        if asn in self.nodes:
            raise ValueError(f"duplicate ASN {asn}")
        node = ASNode(
            asn=asn,
            tier=tier,
            name=name or f"AS{asn}",
            cold_potato=cold_potato,
            allows_spoofing=allows_spoofing,
        )
        self.nodes[asn] = node
        return node

    def add_edge(self, a: int, b: int, rel_from_a: Relationship) -> None:
        """Add a relationship edge; *rel_from_a* is b's role seen by a.

        ``add_edge(1, 2, Relationship.CUSTOMER)`` means AS2 is AS1's
        customer (AS1 provides transit to AS2).
        """
        if a == b:
            raise ValueError("self-loop AS edge")
        node_a, node_b = self.nodes[a], self.nodes[b]
        node_a.neighbors[b] = rel_from_a
        node_b.neighbors[a] = rel_from_a.inverse()
        self._cones = None
        self.edge_version += 1

    def has_edge(self, a: int, b: int) -> bool:
        node = self.nodes.get(a)
        return node is not None and b in node.neighbors

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        """Return b's relationship as seen from a, or None."""
        node = self.nodes.get(a)
        if node is None:
            return None
        return node.neighbors.get(b)

    def asns(self) -> List[int]:
        return list(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, asn: int) -> bool:
        return asn in self.nodes

    # ------------------------------------------------------------------
    # Customer cones
    # ------------------------------------------------------------------

    def customer_cone(self, asn: int) -> FrozenSet[int]:
        """Return the customer cone of *asn* (itself included).

        The cone is the set of ASes reachable by repeatedly following
        customer edges — CAIDA's definition, used by the paper for the
        suspicious-link heuristic and the Fig. 8b scatter.
        """
        if self._cones is None:
            self._cones = {}
        cached = self._cones.get(asn)
        if cached is not None:
            return cached
        cone: Set[int] = set()
        stack = [asn]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self.nodes[current].customers())
        result = frozenset(cone)
        self._cones[asn] = result
        return result

    def cone_size(self, asn: int) -> int:
        return len(self.customer_cone(asn))

    def tier1_asns(self) -> List[int]:
        return [
            asn
            for asn, node in self.nodes.items()
            if node.tier is ASTier.TIER1
        ]

    def validate(self) -> None:
        """Sanity-check structural invariants; raise on violation."""
        for asn, node in self.nodes.items():
            for neighbor, rel in node.neighbors.items():
                other = self.nodes.get(neighbor)
                if other is None:
                    raise ValueError(
                        f"AS{asn} references unknown neighbour {neighbor}"
                    )
                if other.neighbors.get(asn) != rel.inverse():
                    raise ValueError(
                        f"asymmetric relationship on edge {asn}-{neighbor}"
                    )
        # Relationship graph must be acyclic along customer edges.
        state: Dict[int, int] = {}

        def visit(asn: int, stack: Tuple[int, ...]) -> None:
            state[asn] = 1
            for customer in self.nodes[asn].customers():
                if state.get(customer) == 1:
                    raise ValueError(
                        f"customer-provider cycle via {customer}"
                    )
                if state.get(customer) != 2:
                    visit(customer, stack + (asn,))
            state[asn] = 2

        for asn in self.nodes:
            if state.get(asn) is None:
                visit(asn, ())
