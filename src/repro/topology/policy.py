"""Gao-Rexford BGP route computation over the AS graph.

For a given announcement (one or more origin ASes, optional poisoning,
prepending, and selective-export constraints) this module computes, for
every AS, the route it selects: learned class, full AS path, next-hop
AS, and — for anycast announcements — which origin its traffic lands at
(the *catchment*, the quantity the Section 6.1 traffic-engineering case
study manipulates).

The computation is the classic three-phase algorithm, run over a
compiled view of the graph (per-relationship neighbour tuples with the
tie-breaks already hashed; see DESIGN.md, "Control plane"):

1. customer routes propagate "up" provider edges from the origins;
2. peer routes are learned in a single hop from ASes holding
   customer-class routes;
3. provider routes propagate "down" customer edges from every AS that
   selected a customer or peer route.

Selection order is customer > peer > provider, then shortest AS path,
then a deterministic per-(AS, neighbour) tie-break. Because the
tie-break is not symmetric in its arguments, forward and reverse
AS paths frequently differ — the asymmetry revtr exists to measure.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, List
from typing import NamedTuple, Optional, Tuple

from repro.topology.asgraph import ASGraph, Relationship


class RouteClass(enum.IntEnum):
    """Learned class of a route; lower is preferred."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class Origin:
    """One announcement point of a prefix.

    Attributes:
        asn: the announcing AS.
        prepend: extra copies of the origin ASN on the path.
        announce_to: neighbours the origin announces to; None = all.
        poisoned: ASNs included on *this origin's* path so those ASes
            reject routes to this origin but may still reach others —
            the per-site poisoning of the §6.1 case study (poisoning
            Cogent on the UFMG announcement only).
    """

    asn: int
    prepend: int = 0
    announce_to: Optional[FrozenSet[int]] = None
    poisoned: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        # Hashed once: origins sit inside the specs that key every
        # routes(), FIB and alternate-next-hop lookup.
        fields = (self.asn, self.prepend, self.announce_to, self.poisoned)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def announces_to(self, neighbor: int) -> bool:
        return self.announce_to is None or neighbor in self.announce_to


@dataclass(frozen=True)
class AnnouncementSpec:
    """A prefix announcement configuration (hashable cache key).

    Attributes:
        origins: announcement points; more than one models anycast.
        poisoned: ASNs placed on the announced path so that those ASes
            reject the route (BGP loop detection) — the §6.1 poisoning.
        no_export: (exporter, neighbour) pairs suppressed, modelling
            provider no-export BGP communities (§6.1).
    """

    origins: Tuple[Origin, ...]
    poisoned: FrozenSet[int] = frozenset()
    no_export: FrozenSet[Tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        fields = (self.origins, self.poisoned, self.no_export)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def single(cls, asn: int) -> "AnnouncementSpec":
        """The default unicast announcement from one AS."""
        return cls(origins=(Origin(asn),))

    @classmethod
    def anycast(cls, asns: Iterable[int]) -> "AnnouncementSpec":
        return cls(origins=tuple(Origin(asn) for asn in sorted(asns)))

    def origin_asns(self) -> Tuple[int, ...]:
        return tuple(origin.asn for origin in self.origins)


class RouteChoice(NamedTuple):
    """The route an AS selected for one announcement (a named tuple:
    one is built per AS per spec, and a frozen dataclass's constructor
    costs seven times as much)."""

    route_class: RouteClass
    path: Tuple[int, ...]  # from this AS to (and including) the origin
    next_as: Optional[int]  # None at an origin
    origin: int

    @property
    def length(self) -> int:
        return len(self.path)


def _tiebreak(asn: int, via: int, salt: int) -> int:
    """Deterministic, direction-asymmetric neighbour preference."""
    return zlib.crc32(f"{asn}|{via}|{salt}".encode())


def _tiebreak_symmetric(asn: int, via: int, salt: int) -> int:
    """Direction-neutral variant: keyed on the unordered AS pair, so
    the same link is preferred from both sides."""
    low, high = (asn, via) if asn < via else (via, asn)
    return zlib.crc32(f"{low}~{high}|{salt}".encode())


#: A selection key packs ``path length << _LENGTH_SHIFT | tie-break``
#: into one int (tie-breaks are CRC-32s), so "shorter path, then lower
#: tie-break" is a single integer comparison.
_LENGTH_SHIFT = 32

#: ``(neighbour, tie-break the neighbour gives a route heard from this
#: AS)`` for every neighbour of one relationship, in graph order.
_Edges = Tuple[Tuple[int, int], ...]


class _CompiledGraph(NamedTuple):
    """The AS graph as route computation reads it.

    A pure function of the graph, the policy's salt and its
    ``symmetric_tiebreak_fraction`` — nothing here depends on the
    announcement — so one instance serves every spec until
    :meth:`RoutingPolicy.invalidate`.
    """

    providers: Dict[int, _Edges]
    peers: Dict[int, _Edges]
    customers: Dict[int, _Edges]
    #: tie-break of each AS's own origination
    origin_tiebreak: Dict[int, int]
    #: ``(asn, its neighbor_pref, the (provider, pref) pairs in it)`` for
    #: every AS that has a neighbor_pref and no customers
    pref_leaves: Tuple[Tuple[int, Dict[int, int], _Edges], ...]


class RoutingPolicy:
    """Computes and caches per-announcement route selections.

    ``symmetric_tiebreak_fraction`` controls what share of ASes break
    equal-preference ties in a direction-neutral way (consistent MEDs,
    stable igp costs): those ASes pick the same inter-AS link in both
    directions, while the rest diverge — the knob that calibrates the
    AS-level path-symmetry rate to the Internet's measured 53% (§6.2).

    Routes are computed over a compiled view of the graph, built on
    first use.  To change the graph under a live policy (edges,
    ``ASNode.neighbor_pref``, in place or not): **mutate, then call**
    :meth:`invalidate` — ``Internet.invalidate_routing()`` does — which
    drops every cached route and the compiled view.  Without the call
    nothing notices the change: cached routes, and routes of specs
    first asked for later, stay those of the graph as it was.
    """

    def __init__(
        self,
        graph: ASGraph,
        salt: int = 0,
        symmetric_tiebreak_fraction: float = 0.0,
    ) -> None:
        self.graph = graph
        self.salt = salt
        self.symmetric_tiebreak_fraction = symmetric_tiebreak_fraction
        self._cache: Dict[AnnouncementSpec, Dict[int, RouteChoice]] = {}
        self._compiled: Optional[_CompiledGraph] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def routes(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        """Return the selected route of every AS that has one."""
        cached = self._cache.get(spec)
        if cached is None:
            cached = self._compute(spec)
            self._cache[spec] = cached
        return cached

    def route_of(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[RouteChoice]:
        return self.routes(spec).get(asn)

    def next_hop_as(self, asn: int, spec: AnnouncementSpec) -> Optional[int]:
        """Next-hop AS of *asn* toward the announcement, if any."""
        route = self.routes(spec).get(asn)
        return route.next_as if route else None

    def as_path(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[Tuple[int, ...]]:
        route = self.routes(spec).get(asn)
        return route.path if route else None

    def catchment(self, asn: int, spec: AnnouncementSpec) -> Optional[int]:
        """Origin AS that traffic from *asn* reaches (anycast)."""
        route = self.routes(spec).get(asn)
        return route.origin if route else None

    def invalidate(self) -> None:
        """Drop every cached route and the compiled view of the graph."""
        self._cache.clear()
        self._compiled = None

    # ------------------------------------------------------------------
    # Route computation
    # ------------------------------------------------------------------

    def _compile(self) -> _CompiledGraph:
        nodes = self.graph.nodes
        salt = self.salt
        threshold = self.symmetric_tiebreak_fraction * 1000
        symmetric = {
            asn
            for asn in nodes
            if threshold > 0
            and zlib.crc32(f"sym|{asn}|{salt}".encode()) % 1000 < threshold
        }

        def tiebreak(asn: int, via: int) -> int:
            if asn in symmetric:
                return _tiebreak_symmetric(asn, via, salt)
            return _tiebreak(asn, via, salt)

        edges: Dict[Relationship, Dict[int, _Edges]] = {
            rel: {
                asn: tuple(
                    (neighbor, tiebreak(neighbor, asn))
                    for neighbor, neighbor_is in node.neighbors.items()
                    if neighbor_is is rel
                )
                for asn, node in nodes.items()
            }
            for rel in Relationship
        }
        customers = edges[Relationship.CUSTOMER]
        return _CompiledGraph(
            providers=edges[Relationship.PROVIDER],
            peers=edges[Relationship.PEER],
            customers=customers,
            origin_tiebreak={asn: tiebreak(asn, asn) for asn in nodes},
            pref_leaves=tuple(
                (
                    asn,
                    dict(node.neighbor_pref),
                    tuple(
                        (neighbor, pref)
                        for neighbor, pref in node.neighbor_pref.items()
                        if node.neighbors.get(neighbor)
                        is Relationship.PROVIDER
                    ),
                )
                for asn, node in nodes.items()
                if node.neighbor_pref and not customers[asn]
            ),
        )

    def _compute(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        blocked = spec.no_export
        # Per origin ASN: the ASes that reject routes to it (loop
        # detection on the poisoned path) and the neighbours it
        # announces to (None = all).  Should an ASN be listed twice,
        # the last entry's poisoning and the first's announce_to apply.
        rejecting: Dict[int, FrozenSet[int]] = {}
        announce: Dict[int, Optional[FrozenSet[int]]] = {}
        for origin in spec.origins:
            rejecting[origin.asn] = spec.poisoned | origin.poisoned
            announce.setdefault(origin.asn, origin.announce_to)

        best: Dict[int, Optional[RouteChoice]] = {}
        keys: Dict[int, int] = {}
        via: Dict[int, int] = {}
        make = RouteChoice._make

        def export(
            asn: int, edges: _Edges, length: int, protected: Collection[int]
        ) -> List[Tuple[int, int]]:
            """Offer the route of *asn* along *edges* at *length* hops.

            Returns ``(key, neighbour)`` for each neighbour that takes
            it.  A taker enters *best* as ``None`` on its first offer —
            which fixes its place in the dict's order — and is filled in
            once its choice is final.  ASes in *protected* keep the
            route they hold whatever they are offered.
            """
            reject = rejecting[best[asn].origin]
            allowed = announce.get(asn)
            base = length << _LENGTH_SHIFT
            taken = []
            for neighbor, tiebreak in edges:
                offer = base | tiebreak
                held = keys.get(neighbor)
                if held is not None and (
                    held <= offer or neighbor in protected
                ):
                    continue
                if (
                    neighbor in reject
                    or (blocked and (asn, neighbor) in blocked)
                    or (allowed is not None and neighbor not in allowed)
                ):
                    continue
                keys[neighbor] = offer
                via[neighbor] = asn
                best[neighbor] = None
                taken.append((offer, neighbor))
            return taken

        def flood(
            edges_of: Dict[int, _Edges],
            route_class: RouteClass,
            protected: Collection[int],
        ) -> None:
            """Propagate the routes held in *keys* along *edges_of*.

            Dijkstra with every edge one hop long, so the queue is one
            list of ``(key, asn)`` per path length, sorted when that
            length is reached.  Each AS's one :class:`RouteChoice` (of
            *route_class*, through ``via[asn]``) is built when it
            settles.
            """
            levels: Dict[int, List[Tuple[int, int]]] = {}
            for asn, key in keys.items():
                levels.setdefault(key >> _LENGTH_SHIFT, []).append((key, asn))
            while levels:
                length = min(levels)
                offers = []
                for key, asn in sorted(levels.pop(length)):
                    if keys[asn] != key:
                        continue  # it has since heard a better offer
                    if best[asn] is None:
                        exporter = via[asn]
                        heard = best[exporter]
                        path = (asn,) + heard.path
                        best[asn] = make(
                            (route_class, path, exporter, heard.origin)
                        )
                    edges = edges_of[asn]
                    if edges:
                        offers += export(asn, edges, length + 1, protected)
                if offers:
                    levels.setdefault(length + 1, []).extend(offers)

        # Phase 0/1: origin + customer routes, Dijkstra up provider edges.
        for origin in spec.origins:
            asn = origin.asn
            tiebreak = compiled.origin_tiebreak.get(asn)
            if tiebreak is None or asn in rejecting[asn]:
                continue  # not in the graph, or poisoned against itself
            path = (asn,) * (1 + origin.prepend)
            key = len(path) << _LENGTH_SHIFT | tiebreak
            if asn not in keys or key < keys[asn]:
                keys[asn] = key
                best[asn] = RouteChoice(RouteClass.ORIGIN, path, None, asn)
        flood(compiled.providers, RouteClass.CUSTOMER, ())

        # Phase 2: peer routes, one hop from customer-class holders.
        holders = dict(best)
        for asn, route in holders.items():
            export(asn, compiled.peers[asn], len(route.path) + 1, holders)
        for peer in list(best)[len(holders):]:  # the placeholders just added
            heard = holders[via[peer]]
            best[peer] = RouteChoice(
                RouteClass.PEER, (peer,) + heard.path, via[peer], heard.origin
            )

        # Phase 3: provider routes, Dijkstra down customer edges.
        flood(compiled.customers, RouteClass.PROVIDER, set(best))

        self._apply_leaf_preferences(best, compiled.pref_leaves)
        return best

    @staticmethod
    def _apply_leaf_preferences(
        best: Dict[int, RouteChoice],
        pref_leaves: Tuple[Tuple[int, Dict[int, int], _Edges], ...],
    ) -> None:
        """Honour per-neighbour local preference for leaf ASes.

        A multihomed edge network routinely prefers one provider for
        all outbound traffic (local-pref) even when another provider
        offers a shorter path. Only leaf ASes (no customers) are
        re-selected: nobody routes *through* a leaf, so the change
        cannot violate the path-consistency (tree) property.
        """
        make, provider_class = RouteChoice._make, RouteClass.PROVIDER
        for asn, prefs, provider_prefs in pref_leaves:
            current = best.get(asn)
            if current is None or current.route_class is not provider_class:
                # Never dislodge an origin, customer, or peer route: a
                # settlement-free peer beats any paid provider, so the
                # provider local-pref only orders provider routes.
                continue
            current_pref = prefs.get(current.next_as, 0)
            chosen = None
            for neighbor, pref in provider_prefs:
                if pref <= current_pref:
                    continue
                route = best.get(neighbor)
                if route is None or asn in route.path:
                    continue
                rank = (pref, -len(route.path), neighbor)
                if chosen is None or rank > chosen:
                    chosen, heard = rank, route
            if chosen is not None:
                path, via = (asn,) + heard.path, chosen[2]
                best[asn] = make((provider_class, path, via, heard.origin))
