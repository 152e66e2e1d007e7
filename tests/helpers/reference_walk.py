"""Reference forwarding: every decision recomputed, nothing remembered.

``Internet`` forwards through four memos — ``resolve`` per address,
whose target carries the address's announcement and FIB row, the egress
pick per ``(router, next AS)``, the link entry per ``(router, next
router)`` the rows share, and the prefix table's longest-match results —
and reads routes through two more, the policy's floods and the alternate
next-AS per ``(AS, announcement)``.  Each is dropped by the call that
changes what it read: ``connect()`` drops the link entries and egress
picks (and the rows); ``Internet.announce`` / ``withdraw`` drop the
resolved targets with their rows; an ``invalidate_routing()`` whose
compiled AS view (edges, ``neighbor_pref``, ``cold_potato``) moved drops
the floods, the alternates, the egress picks and the targets, and one
that finds the view equal drops nothing.  The property test drives each
of those inputs, and calls that move none, between its probes.  A switch
(``enable_fastpath(False)``) once turned the row and resolution memos
off so the two could be compared; what it selected is kept here instead,
together with a copy of the resolution itself (``_resolve_uncached`` and
``_announcement_of``, so a defect planted in ``src/``'s resolution is on
one side of the comparison only), the three entry builders as they were
before the egress and link memos (one private ``FibEntry`` per call, the
border pick made again for every destination), a route read answered by
a :class:`ReferencePolicy` built for that one read over the live graph,
and ``alt_next_as`` without its memo, so ``tests/test_fwd_fastpath.py``
and ``tests/test_ttl_sweep.py`` can require a memoised Internet to
answer a probe stream exactly as one that recomputes every hop and
shares none of those memos.  Test-only: nothing under ``src/`` imports
it.

Under :func:`uncached_forwarding` the hit / miss / entry tallies of
``forwarding_cache_stats()`` still tick but describe nothing (every
walk fills a row that is thrown away); compare outcomes, not tallies.
Under :func:`private_entries` the rows are kept, so the tallies mean
what they mean in ``src/`` and can be compared with it.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.net.addr import Address, PrefixTable
from repro.net.router import Router
from repro.sim.forwarding import (
    FIB_DELIVER,
    FIB_ECMP,
    FIB_ERROR,
    DestTarget,
    FibEntry,
)
from repro.sim.network import Internet
from repro.topology.policy import AnnouncementSpec, RoutingPolicy
from tests.helpers.reference_policy import ReferencePolicy


def fresh_route_of(self, asn, spec):
    """The route *asn* selects, from an eager all-AS computation over
    the live graph that nothing before this read has seen."""
    reference = ReferencePolicy(
        self.graph, self.salt, self.symmetric_tiebreak_fraction
    )
    return reference.routes(spec).get(asn)


def _flush_first(lookup):
    def flushed(self, addr):
        self.flush_lookup_cache()
        return lookup(self, addr)

    return flushed


# -- the entry builders of ``Internet`` before PR 21, verbatim ----------


def _border_entry(
    self,
    router: Router,
    target: DestTarget,
    next_as: int,
) -> FibEntry:
    """The deterministic egress action toward *next_as*."""
    current = router.router_id
    asn = router.asn
    pairs = self.borders.get(asn, {}).get(next_as)
    if not pairs:
        return FibEntry(FIB_ERROR, reason="no border link to next AS")

    # If we are a border router on one of the candidate links,
    # egress directly (hot potato at zero cost).
    own_pairs = [p for p in pairs if p[0] == current]
    if own_pairs:
        remotes = sorted(p[1] for p in own_pairs)
        return self._ecmp_entry(router, target, remotes)

    # Pick an egress border router.
    if self.graph.nodes[asn].cold_potato:
        local_border = min(pairs)[0]
    else:
        local_border = min(
            (self.intra_distance(asn, p[0], current), p[0])
            for p in pairs
        )[1]
    candidates = self.intra_next_hops(asn, local_border, current)
    if not candidates:
        return FibEntry(FIB_ERROR, reason="border unreachable intra-AS")
    return self._ecmp_entry(router, target, candidates)


def _deliver_entry(self, current: int, next_router: int) -> FibEntry:
    """A forced-next-hop entry with its link triple precomputed."""
    entry = FibEntry(FIB_DELIVER, (next_router,))
    egress_addr, next_ingress = self.adjacency[current][next_router]
    entry.via = (next_router, egress_addr, next_ingress)
    return entry


def _ecmp_entry(
    self,
    router: Router,
    target: DestTarget,
    candidates: List[int],
) -> FibEntry:
    """Wrap equal-cost *candidates*, folding deterministic picks.

    Single candidates and plain routers' destination-hash
    tie-breaks resolve to the same next hop for every packet of a
    ``(router, destination)`` pair — precompute them so the cached
    path skips :func:`choose_candidate` entirely.  Load balancers
    and DBR violators stay ECMP: their pick depends on the packet.
    """
    current = router.router_id
    if len(candidates) == 1:
        return self._deliver_entry(current, candidates[0])
    if not router.dbr_violator and not router.is_load_balancer:
        index = zlib.crc32(
            f"{router.router_id}|{target.dst}".encode()
        ) % len(candidates)
        return self._deliver_entry(current, candidates[index])
    entry = FibEntry(FIB_ECMP, tuple(candidates))
    entry.adj = self.adjacency[current]
    return entry


# -- the destination resolution of ``Internet``, copied verbatim --------


def _announcement_of(self, addr: Address) -> Optional[AnnouncementSpec]:
    """The announcement governing routes toward *addr*: its prefix's
    override, or the default unicast spec of the origin AS, interned
    so every address that AS originates shares one spec object."""
    prefix = self.prefix_table.lookup_prefix(addr)
    if prefix is None:
        return None
    spec = self._announcements.get(prefix)
    if spec is not None:
        return spec
    asn = self.prefixes[prefix].origin_asn
    spec = self._unicast_specs.get(asn)
    if spec is None:
        spec = self._unicast_specs[asn] = AnnouncementSpec.single(asn)
    return spec


def _resolve_uncached(self, dst: Address) -> Optional[DestTarget]:
    host = self.hosts.get(dst)
    if host is not None:
        prefix = self.prefix_table.lookup_prefix(dst)
        anchors = self._anycast_anchors.get(prefix)
        if anchors is None:
            anchors = self._anchor_map(host.asn, host.edge_router_id)
        return DestTarget(
            dst=dst,
            anchors=anchors,
            spec=self._announcement_of(dst),
            host=host,
        )
    owner = self.iface_owner.get(dst)
    if owner is not None:
        anchor = self.iface_anchor[dst]
        anchor_asn = self.routers[anchor].asn
        iface = self.routers[owner].interfaces.get(dst)
        endpoints = None
        if iface is not None and iface.neighbor_router_id is not None:
            endpoints = (owner, iface.neighbor_router_id)
        return DestTarget(
            dst=dst,
            anchors=self._anchor_map(anchor_asn, anchor),
            spec=self._announcement_of(dst),
            owner_router=owner,
            link_endpoints=endpoints,
        )
    return None


# ----------------------------------------------------------------------

BUILDERS = [
    (Internet, "_border_entry", _border_entry),
    (Internet, "_deliver_entry", _deliver_entry),
    (Internet, "_ecmp_entry", _ecmp_entry),
]


@contextmanager
def _patched(patches) -> Iterator[None]:
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, oracle in patches:
        setattr(cls, name, oracle)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


def private_entries():
    """Run with only the pre-PR 21 entry builders patched in,
    process-wide: rows are still memoised, but every slot gets its own
    ``FibEntry`` and every miss makes its own egress pick."""
    return _patched(BUILDERS)


def uncached_forwarding():
    """Run with the oracle patched in, process-wide: ``resolve`` runs
    the resolution copied above and ``alt_next_as`` its uncached body,
    so every walk gets a fresh target, announcement and empty FIB row,
    ``_walk`` builds each entry with the builders that predate the
    egress and link memos (so the egress pick is made again at every
    hop), every route is computed afresh for its read, and the prefix
    table forgets before every lookup."""
    return _patched(
        BUILDERS
        + [
            (RoutingPolicy, "route_of", fresh_route_of),
            (Internet, "alt_next_as", Internet._alt_next_as_uncached),
            (Internet, "resolve", _resolve_uncached),
            (Internet, "_announcement_of", _announcement_of),
            (PrefixTable, "lookup", _flush_first(PrefixTable.lookup)),
            (
                PrefixTable,
                "lookup_prefix",
                _flush_first(PrefixTable.lookup_prefix),
            ),
        ]
    )
