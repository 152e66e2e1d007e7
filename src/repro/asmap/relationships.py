"""AS relationship and customer-cone dataset.

Wraps the generated AS graph in the interface the analysis code needs —
the role CAIDA's AS-relationship dataset plays for the paper: customer
cones for the suspicious-link heuristic (§5.2.2) and for the
asymmetry-versus-hierarchy analysis (Fig. 8b, Table 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.topology.asgraph import ASGraph, ASTier, Relationship


class ASRelationships:
    """Relationship and cone queries over the AS graph."""

    #: Thresholds of the paper's "small AS" definition (§5.2.2).
    SMALL_AS_MAX_PROVIDERS = 5
    SMALL_AS_MAX_CONE = 10

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        #: (low, high) -> :meth:`is_suspicious_link` verdict, valid for
        #: the graph's ``edge_version`` it was filled at: dropped
        #: exactly where ``ASGraph`` drops its cone cache
        #: (``add_edge``), so it is stale only where the cones are.
        self._verdicts: Dict[Tuple[int, int], bool] = {}
        self._verdicts_version = graph.edge_version

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        return self.graph.relationship(a, b)

    def providers(self, asn: int) -> List[int]:
        if asn not in self.graph:
            return []
        return self.graph.nodes[asn].providers()

    def cone_size(self, asn: int) -> int:
        if asn not in self.graph:
            return 1
        return self.graph.cone_size(asn)

    def is_tier1(self, asn: int) -> bool:
        return (
            asn in self.graph
            and self.graph.nodes[asn].tier is ASTier.TIER1
        )

    def is_small(self, asn: int) -> bool:
        """The paper's "small AS": few providers, tiny customer cone."""
        return (
            len(self.providers(asn)) <= self.SMALL_AS_MAX_PROVIDERS
            and self.cone_size(asn) <= self.SMALL_AS_MAX_CONE
        )

    def is_suspicious_link(self, low: int, high: int) -> bool:
        """The §5.2.2 suspicious-link test.

        A link between a small AS *low* and an AS *high* is suspicious
        when *high* is a provider of one of *low*'s providers and the
        two have no known direct relationship — the signature of a
        router that forwarded an RR packet without stamping, hiding an
        intermediate AS.
        """
        if self._verdicts_version != self.graph.edge_version:
            self._verdicts_version = self.graph.edge_version
            self._verdicts.clear()
        key = (low, high)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._suspicious(low, high)
        return verdict

    def _suspicious(self, low: int, high: int) -> bool:
        if low not in self.graph or high not in self.graph:
            return False
        if self.relationship(low, high) is not None:
            return False
        if not self.is_small(low):
            return False
        for provider in self.providers(low):
            if high in self.graph.nodes[provider].providers():
                return True
        return False
