"""Gao-Rexford BGP route selection over the AS graph.

For a given announcement (one or more origin ASes, optional poisoning,
prepending, and selective-export constraints) this module selects, for
any AS, its route: learned class, full AS path, next-hop AS, and — for
anycast announcements — which origin its traffic lands at (the
*catchment*, the quantity the Section 6.1 traffic-engineering case
study manipulates).

The selection is the classic three-phase algorithm over a compiled view
of the graph, flooded only through the ASes that can pass a route on;
an AS without customers applies the same rules to its neighbours'
routes when it is read (see DESIGN.md, "Control plane"):

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
from typing import Collection, Dict, FrozenSet, List
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

#: ``(neighbour, tie-break)`` for every neighbour of one relationship
#: that a table lists, in graph order.
_Edges = Tuple[Tuple[int, int], ...]


class _CompiledGraph(NamedTuple):
    """The AS graph as route selection reads it.

    The *core* is every AS that has customers: only those, and the
    origins, can pass a route on.  ``providers``, ``peers`` and
    ``customers`` are the flood's export tables — the tie-break is the
    one the *neighbour* gives a route heard from this AS — and list
    core neighbours only (a provider always is one).  ``leaf_peers``
    and ``leaf_providers`` are the import tables of the customer-less
    ASes, read when one is asked for its route: the tie-break is the
    one *this AS* gives a route heard from the neighbour.

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
    leaf_peers: Dict[int, _Edges]
    leaf_providers: Dict[int, _Edges]
    #: ``{provider: local pref}`` of every customer-less AS whose
    #: neighbor_pref names a provider
    pref_leaves: Dict[int, Dict[int, int]]


class _Flooded(NamedTuple):
    """One announcement after the flood: what every origin and core AS
    that has a route holds, the spec's export filters, and each
    :class:`RouteChoice` read so far."""

    keys: Dict[int, int]
    via: Dict[int, int]  # the neighbour the route was heard from
    origin: Dict[int, int]
    route_class: Dict[int, RouteClass]
    #: per origin ASN: the ASes whose loop detection rejects it
    rejecting: Dict[int, FrozenSet[int]]
    #: per origin ASN: the neighbours it announces to (None = all)
    announce: Dict[int, Optional[FrozenSet[int]]]
    blocked: FrozenSet[Tuple[int, int]]
    chosen: Dict[int, Optional[RouteChoice]]


class RoutingPolicy:
    """Selects and caches routes per announcement, where they are read.

    ``symmetric_tiebreak_fraction`` controls what share of ASes break
    equal-preference ties in a direction-neutral way (consistent MEDs,
    stable igp costs): those ASes pick the same inter-AS link in both
    directions, while the rest diverge — the knob that calibrates the
    AS-level path-symmetry rate to the Internet's measured 53% (§6.2).

    The first read of a spec floods it through the origins and the
    ASes that have customers, four ints per AS; one AS's
    :class:`RouteChoice` is built when that AS is first read — a
    flooded AS from the neighbours its route came through, a
    customer-less AS by selecting among its neighbours' routes.  Both
    read a compiled view of the graph, built on first use.  To change
    the graph under a live policy (edges, ``ASNode.neighbor_pref``, in
    place or not): **mutate, then call** :meth:`invalidate` —
    ``Internet.invalidate_routing()`` does — which drops every cached
    route and the compiled view.  Without the call nothing notices:
    routes read before or after it are those of the graph as it was.
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
        self._cache: Dict[AnnouncementSpec, _Flooded] = {}
        self._compiled: Optional[_CompiledGraph] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def routes(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        """The full table: :meth:`route_of` of every AS that has one."""
        found = ((asn, self.route_of(asn, spec)) for asn in self.graph.nodes)
        return {asn: route for asn, route in found if route is not None}

    def route_of(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[RouteChoice]:
        """The route *asn* selected, built on its first read."""
        state = self._cache.get(spec)
        if state is None:
            state = self._cache[spec] = self._flood(spec)
        if asn in state.chosen:
            return state.chosen[asn]
        return self._select(state, asn)

    def next_hop_as(self, asn: int, spec: AnnouncementSpec) -> Optional[int]:
        """Next-hop AS of *asn* toward the announcement, if any."""
        route = self.route_of(asn, spec)
        return route.next_as if route else None

    def as_path(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[Tuple[int, ...]]:
        route = self.route_of(asn, spec)
        return route.path if route else None

    def catchment(self, asn: int, spec: AnnouncementSpec) -> Optional[int]:
        """Origin AS that traffic from *asn* reaches (anycast)."""
        route = self.route_of(asn, spec)
        return route.origin if route else None

    def invalidate(self) -> None:
        """Drop every cached route and the compiled view of the graph."""
        self._cache.clear()
        self._compiled = None

    # ------------------------------------------------------------------
    # Route selection
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

        # given[asn][via]: the tie-break asn gives a route heard from via.
        given = {
            asn: {via: tiebreak(asn, via) for via in node.neighbors}
            for asn, node in nodes.items()
        }
        leaves = set()  # the customer-less ASes
        for asn, node in nodes.items():
            # Two equal offers could only be told apart by the order they
            # arrive in, which the flood and a read do not share.
            ranks = {
                (rel, given[asn][via]) for via, rel in node.neighbors.items()
            }
            if len(ranks) < len(node.neighbors):
                raise ValueError(
                    f"AS{asn} gives two neighbours of one relationship"
                    " the same tie-break; use another salt"
                )
            if Relationship.CUSTOMER not in node.neighbors.values():
                leaves.add(asn)

        def edges(rel: Relationship, inward: bool) -> Dict[int, _Edges]:
            """Import tables of the leaves, or export tables of every AS."""
            return {
                asn: tuple(
                    (via, given[asn][via] if inward else given[via][asn])
                    for via, via_is in nodes[asn].neighbors.items()
                    if via_is is rel and (inward or via not in leaves)
                )
                for asn in (leaves if inward else nodes)
            }

        leaf_providers = edges(Relationship.PROVIDER, True)
        pref_leaves = {}
        for asn, providers in leaf_providers.items():
            wanted = nodes[asn].neighbor_pref
            prefs = {via: wanted[via] for via, _ in providers if via in wanted}
            if prefs:
                pref_leaves[asn] = prefs
        return _CompiledGraph(
            providers=edges(Relationship.PROVIDER, False),
            peers=edges(Relationship.PEER, False),
            customers=edges(Relationship.CUSTOMER, False),
            origin_tiebreak={asn: tiebreak(asn, asn) for asn in nodes},
            leaf_peers=edges(Relationship.PEER, True),
            leaf_providers=leaf_providers,
            pref_leaves=pref_leaves,
        )

    def _flood(self, spec: AnnouncementSpec) -> _Flooded:
        """Run the three phases over the origins and the core."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        blocked = spec.no_export
        # Should an ASN be listed twice, the last entry's poisoning and
        # the first's announce_to apply.
        rejecting: Dict[int, FrozenSet[int]] = {}
        announce: Dict[int, Optional[FrozenSet[int]]] = {}
        for origin in spec.origins:
            rejecting[origin.asn] = spec.poisoned | origin.poisoned
            announce.setdefault(origin.asn, origin.announce_to)

        keys: Dict[int, int] = {}
        via: Dict[int, int] = {}
        origin_of: Dict[int, int] = {}
        class_of: Dict[int, RouteClass] = {}

        def export(
            asn: int,
            edges: _Edges,
            length: int,
            route_class: RouteClass,
            protected: Collection[int],
        ) -> List[Tuple[int, int]]:
            """Offer the route of *asn* along *edges* at *length* hops.

            Returns ``(key, neighbour)`` for each neighbour that takes
            it, as a *route_class* route.  ASes in *protected* keep the
            route they hold whatever they are offered.
            """
            origin = origin_of[asn]
            reject = rejecting[origin]
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
                origin_of[neighbor] = origin
                class_of[neighbor] = route_class
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
            length is reached.
            """
            levels: Dict[int, List[Tuple[int, int]]] = {}
            for asn, key in keys.items():
                levels.setdefault(key >> _LENGTH_SHIFT, []).append((key, asn))
            while levels:
                length = min(levels)
                offers = []
                for key, asn in sorted(levels.pop(length)):
                    edges = edges_of[asn]
                    if edges and keys[asn] == key:  # else: since bettered
                        offers += export(
                            asn, edges, length + 1, route_class, protected
                        )
                if offers:
                    levels.setdefault(length + 1, []).extend(offers)

        # Phase 0/1: origin + customer routes, Dijkstra up provider edges.
        for origin in spec.origins:
            asn = origin.asn
            tiebreak = compiled.origin_tiebreak.get(asn)
            if tiebreak is None or asn in rejecting[asn]:
                continue  # not in the graph, or poisoned against itself
            key = (1 + origin.prepend) << _LENGTH_SHIFT | tiebreak
            if asn not in keys or key < keys[asn]:
                keys[asn] = key
                origin_of[asn] = asn
                class_of[asn] = RouteClass.ORIGIN
        flood(compiled.providers, RouteClass.CUSTOMER, ())

        # Phase 2: peer routes, one hop from customer-class holders.
        holders = dict(keys)
        for asn, key in holders.items():
            length = (key >> _LENGTH_SHIFT) + 1
            export(asn, compiled.peers[asn], length, RouteClass.PEER, holders)

        # Phase 3: provider routes, Dijkstra down customer edges.
        flood(compiled.customers, RouteClass.PROVIDER, set(keys))
        return _Flooded(
            keys, via, origin_of, class_of, rejecting, announce, blocked, {}
        )

    def _select(self, state: _Flooded, asn: int) -> Optional[RouteChoice]:
        """Build, and remember, the route of *asn* under *state*."""
        key = state.keys.get(asn)
        if key is None:
            route_class, exporter = self._settle(state, asn)
        else:
            route_class, exporter = state.route_class[asn], state.via.get(asn)
        if route_class is None:
            route = None
        elif exporter is None:
            # An origin; the key's length is that of the entry that won.
            path = (asn,) * (key >> _LENGTH_SHIFT)
            route = RouteChoice(route_class, path, None, asn)
        else:
            heard = state.chosen.get(exporter) or self._select(state, exporter)
            path = (asn,) + heard.path
            route = RouteChoice(route_class, path, exporter, heard.origin)
        state.chosen[asn] = route
        return route

    def _settle(
        self, state: _Flooded, asn: int
    ) -> Tuple[Optional[RouteClass], Optional[int]]:
        """Class and next-hop AS of an AS the flood left out.

        A customer-less AS never exports, so its choice is a function of
        its neighbours' final routes: the best offer among peers holding
        an origin or customer route (phase 2), else among its providers
        (phase 3), each offer passing the exporter's filters.  Between
        provider routes its local preference then decides: a multihomed
        edge network routinely sends all traffic to one provider though
        another's path is shorter, and as nobody routes *through* it
        that cannot break path consistency.
        """
        compiled = self._compiled
        keys, classes, blocked = state.keys, state.route_class, state.blocked

        def best_offer(
            heard_from: Dict[int, _Edges], worst: RouteClass
        ) -> Optional[int]:
            offers = []
            for exporter, tiebreak in heard_from.get(asn, ()):
                key = keys.get(exporter)
                if key is None or classes[exporter] > worst:
                    continue
                allowed = state.announce.get(exporter)
                if (
                    asn in state.rejecting[state.origin[exporter]]
                    or (blocked and (exporter, asn) in blocked)
                    or (allowed is not None and asn not in allowed)
                ):
                    continue
                length = (key >> _LENGTH_SHIFT) + 1
                offers.append((length << _LENGTH_SHIFT | tiebreak, exporter))
            return min(offers)[1] if offers else None

        exporter = best_offer(compiled.leaf_peers, RouteClass.CUSTOMER)
        if exporter is not None:
            # A settlement-free peer beats any paid provider, so local
            # preference only orders provider routes.
            return RouteClass.PEER, exporter
        exporter = best_offer(compiled.leaf_providers, RouteClass.PROVIDER)
        if exporter is None:
            return None, None
        prefs = compiled.pref_leaves.get(asn, {})
        floor = prefs.get(exporter, 0)
        preferred = [
            (pref, -(keys[provider] >> _LENGTH_SHIFT), provider)
            for provider, pref in prefs.items()
            if pref > floor and provider in keys
        ]
        exporter = max(preferred, default=(floor, 0, exporter))[2]
        return RouteClass.PROVIDER, exporter
