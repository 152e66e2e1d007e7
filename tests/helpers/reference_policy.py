"""Reference Gao-Rexford route computation: the test oracle.

This is ``RoutingPolicy._compute`` / ``_apply_leaf_preferences`` (and
the tie-break helpers they call) exactly as they stood before the
control plane was compiled — the object-graph walk that rehashes every
relaxed edge.  It is kept verbatim so that
``tests/test_policy.py`` can require the compiled implementation to
select the same :class:`RouteChoice` for every AS, in the same dict
order.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Dict, List, Optional, Tuple

from repro.topology.asgraph import ASGraph, Relationship
from repro.topology.policy import (
    AnnouncementSpec,
    Origin,
    RouteChoice,
    RouteClass,
)


def _tiebreak(asn: int, via: int, salt: int) -> int:
    """Deterministic, direction-asymmetric neighbour preference."""
    return zlib.crc32(f"{asn}|{via}|{salt}".encode())


def _tiebreak_symmetric(asn: int, via: int, salt: int) -> int:
    """Direction-neutral variant: keyed on the unordered AS pair, so
    the same link is preferred from both sides."""
    low, high = (asn, via) if asn < via else (via, asn)
    return zlib.crc32(f"{low}~{high}|{salt}".encode())


class ReferencePolicy:
    """Uncached, uncompiled route computation over the live graph."""

    def __init__(
        self,
        graph: ASGraph,
        salt: int = 0,
        symmetric_tiebreak_fraction: float = 0.0,
    ) -> None:
        self.graph = graph
        self.salt = salt
        self.symmetric_tiebreak_fraction = symmetric_tiebreak_fraction

    def routes(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        return self._compute(spec)

    def _tb(self, asn: int, via: int) -> int:
        if self.symmetric_tiebreak_fraction > 0.0:
            roll = zlib.crc32(f"sym|{asn}|{self.salt}".encode())
            if (roll % 1000) < self.symmetric_tiebreak_fraction * 1000:
                return _tiebreak_symmetric(asn, via, self.salt)
        return _tiebreak(asn, via, self.salt)

    def _compute(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        graph = self.graph
        poisoned = spec.poisoned
        blocked = spec.no_export
        origin_poison = {
            origin.asn: origin.poisoned for origin in spec.origins
        }

        def may_export(exporter: int, neighbor: int) -> bool:
            return (exporter, neighbor) not in blocked

        def rejects(asn: int, origin_asn: int) -> bool:
            return asn in poisoned or asn in origin_poison.get(
                origin_asn, ()
            )

        def better(
            candidate: Tuple[int, int], incumbent: Optional[Tuple[int, int]]
        ) -> bool:
            """Compare (path_len, tiebreak) keys; lower wins."""
            return incumbent is None or candidate < incumbent

        # Phase 0/1: origin + customer routes, Dijkstra up provider edges.
        best: Dict[int, RouteChoice] = {}
        keys: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[int, int, int, Tuple[int, ...], Optional[int], int]] = []
        for origin in spec.origins:
            if origin.asn not in graph or rejects(origin.asn, origin.asn):
                continue
            path = (origin.asn,) * (1 + origin.prepend)
            key = (len(path), self._tb(origin.asn, origin.asn))
            if better(key, keys.get(origin.asn)):
                keys[origin.asn] = key
                best[origin.asn] = RouteChoice(
                    RouteClass.ORIGIN, path, None, origin.asn
                )
                heapq.heappush(
                    heap,
                    (key[0], key[1], origin.asn, path, None, origin.asn),
                )

        settled: set = set()
        while heap:
            length, tiebreak, asn, path, _, origin_asn = heapq.heappop(heap)
            if asn in settled:
                continue
            settled.add(asn)
            node = graph.nodes[asn]
            exporting = best[asn]
            for provider in node.providers():
                if rejects(provider, exporting.origin) or provider in settled:
                    continue
                if not may_export(asn, provider):
                    continue
                origin_cfg = self._origin_config(spec, asn)
                if origin_cfg is not None and not origin_cfg.announces_to(
                    provider
                ):
                    continue
                new_path = (provider,) + exporting.path
                key = (
                    len(new_path),
                    self._tb(provider, asn),
                )
                if better(key, keys.get(provider)):
                    keys[provider] = key
                    best[provider] = RouteChoice(
                        RouteClass.CUSTOMER, new_path, asn, exporting.origin
                    )
                    heapq.heappush(
                        heap,
                        (
                            key[0],
                            key[1],
                            provider,
                            new_path,
                            asn,
                            exporting.origin,
                        ),
                    )

        # Phase 2: peer routes, one hop from customer-class holders.
        customer_holders = dict(best)
        for asn, route in customer_holders.items():
            node = graph.nodes[asn]
            origin_cfg = self._origin_config(spec, asn)
            for peer in node.peers():
                if rejects(peer, route.origin) or peer in customer_holders:
                    continue
                if not may_export(asn, peer):
                    continue
                if origin_cfg is not None and not origin_cfg.announces_to(
                    peer
                ):
                    continue
                new_path = (peer,) + route.path
                key = (len(new_path), self._tb(peer, asn))
                incumbent = best.get(peer)
                if incumbent is not None and incumbent.route_class <= RouteClass.PEER:
                    if not better(key, keys.get(peer)):
                        continue
                elif incumbent is not None:
                    pass  # provider-class incumbent always loses to peer
                keys[peer] = key
                best[peer] = RouteChoice(
                    RouteClass.PEER, new_path, asn, route.origin
                )

        # Phase 3: provider routes, Dijkstra down customer edges.
        heap = []
        for asn, route in best.items():
            heapq.heappush(
                heap,
                (
                    route.length,
                    keys[asn][1],
                    asn,
                    route.path,
                    route.next_as,
                    route.origin,
                ),
            )
        settled = set()
        while heap:
            length, tiebreak, asn, path, _, origin_asn = heapq.heappop(heap)
            if asn in settled:
                continue
            settled.add(asn)
            exporting = best[asn]
            node = graph.nodes[asn]
            origin_cfg = self._origin_config(spec, asn)
            for customer in node.customers():
                if rejects(customer, exporting.origin) or customer in settled:
                    continue
                if not may_export(asn, customer):
                    continue
                if origin_cfg is not None and not origin_cfg.announces_to(
                    customer
                ):
                    continue
                incumbent = best.get(customer)
                if (
                    incumbent is not None
                    and incumbent.route_class < RouteClass.PROVIDER
                ):
                    continue
                new_path = (customer,) + exporting.path
                key = (len(new_path), self._tb(customer, asn))
                if incumbent is not None and not better(
                    key, keys.get(customer)
                ):
                    continue
                keys[customer] = key
                best[customer] = RouteChoice(
                    RouteClass.PROVIDER, new_path, asn, exporting.origin
                )
                heapq.heappush(
                    heap,
                    (
                        key[0],
                        key[1],
                        customer,
                        new_path,
                        asn,
                        exporting.origin,
                    ),
                )

        self._apply_leaf_preferences(best)
        return best

    def _apply_leaf_preferences(
        self, best: Dict[int, RouteChoice]
    ) -> None:
        """Honour per-neighbour local preference for leaf ASes.

        A multihomed edge network routinely prefers one provider for
        all outbound traffic (local-pref) even when another provider
        offers a shorter path. Only leaf ASes (no customers) are
        re-selected: nobody routes *through* a leaf, so the change
        cannot violate the path-consistency (tree) property.
        """
        for asn, node in self.graph.nodes.items():
            if not node.neighbor_pref or node.customers():
                continue
            current = best.get(asn)
            if current is None or current.route_class is not (
                RouteClass.PROVIDER
            ):
                # Never dislodge an origin, customer, or peer route: a
                # settlement-free peer beats any paid provider, so the
                # provider local-pref only orders provider routes.
                continue
            candidates = []
            for neighbor, pref in node.neighbor_pref.items():
                if (
                    self.graph.relationship(asn, neighbor)
                    is not Relationship.PROVIDER
                ):
                    continue
                route = best.get(neighbor)
                if route is None or asn in route.path:
                    continue
                candidates.append((pref, -len(route.path), neighbor))
            if not candidates:
                continue
            current_pref = node.neighbor_pref.get(current.next_as, 0)
            pref, _, neighbor = max(candidates)
            if pref <= current_pref:
                continue
            via = best[neighbor]
            best[asn] = RouteChoice(
                RouteClass.PROVIDER,
                (asn,) + via.path,
                neighbor,
                via.origin,
            )

    @staticmethod
    def _origin_config(
        spec: AnnouncementSpec, asn: int
    ) -> Optional[Origin]:
        """Return the Origin config if *asn* is an announcement point."""
        for origin in spec.origins:
            if origin.asn == asn:
                return origin
        return None
