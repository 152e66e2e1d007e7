"""Cross-measurement reverse-segment cache (§5 amortization).

Under destination-based routing, the reverse next hop a router R takes
toward a source S does not depend on which measurement discovered it:
once *any* reverse traceroute toward S has revealed that R forwards to
R', every later measurement that reaches R can reuse the edge while
routing is stable.  The traceroute and RR atlases exploit this for
*offline* measurements; :class:`ReverseSegmentCache` extends the same
amortization to the serving hot path, remembering every hop a
completed measurement *revealed* — measured live, stitched from the
atlas, or assumed — as a ``router -> next reverse hop`` edge that holds
the adopted :class:`~repro.core.result.ReverseHop` itself, so a splice
shares it rather than copying it.  Hops a measurement spliced out of
this cache are not stored again: reading an edge never refreshes it.

Validity is bounded two ways, mirroring the route-stability literature
(Leguay et al.) and the atlas's own staleness rules:

* **routing generation** — every entry is stamped with the simulator's
  ``routing_generation`` at store time; a generation bump (traffic
  engineering, topology change) invalidates it at the next lookup;
* **TTL** — entries older than `DEFAULT_SEGMENT_TTL` expire, exactly
  like :class:`~repro.core.cache.MeasurementCache` entries.  An
  entry's age is the age of the measurement that revealed the edge
  (``stored_at``), however often it has been read since, so a spliced
  path is never older than that.

Negative entries remember routers that proved RR-unresponsive, so the
whole VP fleet is not re-pointed at a black hole once per measurement;
they carry their own (shorter) TTL.

**Remembered aborts.**  revtr 2.0 aborts rather than assume
interdomain symmetry (Insight 1.10), and an abort stores no edge: no
hop of it reached the source.  So the cache also remembers, per
destination, the hops of a measurement that ended
``aborted-interdomain-symmetry`` with no fault injected during it, and
a repeat toward that destination is served those very hops with no
probe.  A fresh run would re-derive the same abort only while nothing
it reads has changed, so a remembered abort is served only while:

(a) the routing generation is the one it was stored under;
(b) it is younger than :data:`DEFAULT_NEGATIVE_TTL`: it rests on
    record route having found nothing at its last hop, so it ages from
    the oldest negative entry on its hops, if that predates it;
(c) each of its hops — the destination and trailing private RR hops
    included — has the same live positive edge it had when stored: a
    hop that gained one would splice past the abort;
(d) none of its hops has since become terminal (the engine checks);
(e) the source's traceroute atlas and RR atlas are the versions it was
    stored under: a fresh run could now intersect;
(f) no fault was injected during the measurement that stored it, and
    no fault injector is installed now (the engine checks; a served
    abort skips the probes whose loss draws the injector counts).

The memo is keyed by destination and never read by a mid-path splice:
an abort frontier in the edge map would let other destinations'
measurements splice into it and abort where they would have completed.

One cache serves one source, through the one engine the service
builds for it — the whole point is that successive measurements
toward that source amortize each other's probes.  Only the thread that
serves requests touches it (telemetry readers see its stats in a
published sample), so it takes no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.result import ReverseHop
from repro.net.addr import Address

#: Entry lifetime, matching the measurement cache (paper:
#: routes are stable enough to reuse for a day).
DEFAULT_SEGMENT_TTL = 86_400.0

#: Negative (unresponsive-router) entries live a tighter bound: a
#: router that ignored RR may be load-shedding, not dead forever.
DEFAULT_NEGATIVE_TTL = 3_600.0


@dataclass(frozen=True)
class SegmentEntry:
    """One cached reverse edge: the next hop *from* the keyed router."""

    next_hop: Optional[Address]
    #: the hop the storing measurement adopted (``next_hop`` with its
    #: technique and symmetry annotation), None for a negative entry.
    #: :class:`ReverseHop` is frozen, so a splice appends this very
    #: object instead of rebuilding it.
    hop: Optional[ReverseHop]
    generation: int
    stored_at: float

    @property
    def negative(self) -> bool:
        """True for an unresponsive-router marker (no next hop)."""
        return self.next_hop is None


class RememberedAbort(NamedTuple):
    """An ``aborted-interdomain-symmetry`` path toward one destination
    (a tuple: every abort of a cold stream is stored, few are read)."""

    #: the stored result's hops, destination placeholder first; a
    #: served abort appends these very objects
    hops: Tuple[ReverseHop, ...]
    #: each hop's live positive edge when stored (None where none)
    edges: Tuple[Optional[SegmentEntry], ...]
    #: the storing engine's atlas and RR-atlas versions
    atlases: Tuple[object, ...]
    generation: int
    stored_at: float


@dataclass
class SegmentCacheStats:
    """Accounting mirrored into ``revtr_segment_*`` metrics."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    stores: int = 0
    #: chains spliced into results (remembered aborts served included)
    splices: int = 0
    invalidations_generation: int = 0
    invalidations_ttl: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.negative_hits

    @property
    def invalidations(self) -> int:
        return self.invalidations_generation + self.invalidations_ttl


class ReverseSegmentCache:
    """Per-source map: router address -> cached reverse edge."""

    def __init__(self, clock, internet) -> None:
        self.clock = clock
        self.internet = internet
        self.stats = SegmentCacheStats()
        self._entries: Dict[Address, SegmentEntry] = {}
        self._aborts: Dict[Address, RememberedAbort] = {}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _obs_collect(self) -> Dict:
        """Mirror stats into the ``revtr_segment_*`` families on pull;
        the engines this cache serves register it."""
        stats = self.stats
        out: Dict = {}
        if stats.hits or stats.negative_hits:
            out[("revtr_segment_hits_total", (("kind", "chain"),))] = (
                float(stats.hits)
            )
            out[("revtr_segment_hits_total", (("kind", "negative"),))] = (
                float(stats.negative_hits)
            )
        if stats.misses:
            # Exported alongside hits so dashboards (and the SLO
            # rollup) can form a hit rate without scraping cache
            # internals.
            out[("revtr_segment_misses_total", ())] = float(
                stats.misses
            )
        if stats.splices:
            out[("revtr_segment_splices_total", ())] = float(
                stats.splices
            )
        if stats.invalidations_generation:
            out[
                (
                    "revtr_segment_invalidations_total",
                    (("reason", "generation"),),
                )
            ] = float(stats.invalidations_generation)
        if stats.invalidations_ttl:
            out[
                (
                    "revtr_segment_invalidations_total",
                    (("reason", "ttl"),),
                )
            ] = float(stats.invalidations_ttl)
        return out

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def store(self, addr: Address, hop: ReverseHop) -> None:
        """Remember that *addr* forwards reverse traffic to *hop*."""
        self._entries[addr] = SegmentEntry(
            next_hop=hop.addr,
            hop=hop,
            generation=self.internet.routing_generation,
            stored_at=self.clock.now(),
        )
        self.stats.stores += 1

    def store_negative(self, addr: Address) -> None:
        """Remember that *addr* revealed nothing to the RR arsenal."""
        self._entries[addr] = SegmentEntry(
            next_hop=None,
            hop=None,
            generation=self.internet.routing_generation,
            stored_at=self.clock.now(),
        )

    def store_abort(
        self,
        dst: Address,
        hops: Sequence[ReverseHop],
        atlases: Tuple[object, ...],
    ) -> None:
        """Remember the hops of an aborted measurement toward *dst*,
        with the atlas versions (*atlases*) it was measured against.

        Its age is that of the oldest live negative entry on its hops,
        if older than the measurement: the abort may rest on one.
        """
        generation = self.internet.routing_generation
        now = self.clock.now()
        entries = self._entries
        born = now
        edges = []
        for hop in hops:
            entry = entries.get(hop.addr)
            if entry is not None and entry.generation == generation:
                age = now - entry.stored_at
                if entry.next_hop is None:
                    if age <= DEFAULT_NEGATIVE_TTL and entry.stored_at < born:
                        born = entry.stored_at
                elif age <= DEFAULT_SEGMENT_TTL:
                    edges.append(entry)
                    continue
            edges.append(None)
        self._aborts[dst] = RememberedAbort(
            tuple(hops), tuple(edges), atlases, generation, born
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup_abort(
        self, dst: Address, atlases: Tuple[object, ...]
    ) -> Optional[Tuple[ReverseHop, ...]]:
        """The hops of the abort remembered toward *dst*, or None.

        Checks rules (a), (b), (c) and (e) of the module docstring
        against the current atlas versions *atlases*; a memo that fails
        one can never pass again (generations and versions only move
        forward, and an edge is replaced, not restored), so it is
        dropped.
        """
        memo = self._aborts.get(dst)
        if memo is None:
            return None
        generation = self.internet.routing_generation
        now = self.clock.now()
        if (
            memo.generation != generation
            or now - memo.stored_at > DEFAULT_NEGATIVE_TTL
            or memo.atlases != atlases
        ):
            del self._aborts[dst]
            return None
        # Rule (c): the positive, current-generation, unexpired entry
        # of each hop (its live edge, None if it has none) is the edge
        # stored with it.  A stored edge was live in the memo's
        # generation, which is this one: while it is still the entry,
        # only its age can fail it.
        entry_of = self._entries.get
        for hop, edge in zip(memo.hops, memo.edges):
            entry = entry_of(hop.addr)
            if entry is edge:
                if (
                    edge is None
                    or now - edge.stored_at <= DEFAULT_SEGMENT_TTL
                ):
                    continue
            elif edge is None and (
                entry.next_hop is None
                or entry.generation != generation
                or now - entry.stored_at > DEFAULT_SEGMENT_TTL
            ):
                continue
            del self._aborts[dst]
            return None
        return memo.hops

    def lookup(self, addr: Address) -> Optional[SegmentEntry]:
        """The cached edge from *addr*, or None on miss/invalidation.

        Generation-stale and TTL-expired entries are dropped (and
        counted by reason) at lookup time, so one sweep of measurements
        after a routing change scrubs every touched entry.
        """
        entry = self._entries.get(addr)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.generation != self.internet.routing_generation:
            del self._entries[addr]
            self.stats.invalidations_generation += 1
            self.stats.misses += 1
            return None
        negative = entry.next_hop is None
        ttl = DEFAULT_NEGATIVE_TTL if negative else DEFAULT_SEGMENT_TTL
        if self.clock.now() - entry.stored_at > ttl:
            del self._entries[addr]
            self.stats.invalidations_ttl += 1
            self.stats.misses += 1
            return None
        if negative:
            self.stats.negative_hits += 1
        else:
            self.stats.hits += 1
        return entry

    def chain(
        self,
        addr: Address,
        limit: int,
        stop=None,
    ) -> Tuple[List[SegmentEntry], bool]:
        """Follow cached edges from *addr*, at most *limit* hops.

        Returns ``(chain, negative)`` where *chain* is the list of
        :class:`SegmentEntry` edges in reverse-path order (each entry's
        ``hop`` is the spliced hop) and *negative* is True when
        the *first* lookup hit a negative entry (the router is
        known-unresponsive; there is nothing to splice but the RR step
        can be skipped).  *stop* is an optional predicate; chain
        extension halts before any address for which it returns True
        (the engine passes its seen-set to keep splices loop-free).  A
        negative entry mid-chain simply ends the chain — the hops
        before it are still real.
        """
        chain: List[SegmentEntry] = []
        seen_here = {addr}
        current = addr
        generation = self.internet.routing_generation
        now = self.clock.now()
        stats = self.stats
        entries = self._entries
        # Tallied here and added once: a whole-path splice reads every
        # edge of its path through this loop.
        hits = 0
        for _ in range(limit):  # each pass appends or leaves
            entry = entries.get(current)
            if entry is None:
                stats.misses += 1
                break
            if entry.generation != generation:
                del entries[current]
                stats.invalidations_generation += 1
                stats.misses += 1
                break
            nxt = entry.next_hop
            ttl = DEFAULT_NEGATIVE_TTL if nxt is None else DEFAULT_SEGMENT_TTL
            if now - entry.stored_at > ttl:
                del entries[current]
                stats.invalidations_ttl += 1
                stats.misses += 1
                break
            if nxt is None:
                stats.negative_hits += 1
                if not chain:
                    return [], True
                break
            hits += 1
            if nxt in seen_here or (stop is not None and stop(nxt)):
                break
            chain.append(entry)
            seen_here.add(nxt)
            current = nxt
        stats.hits += hits
        return chain, False

    def note_splice(self) -> None:
        """Tally one spliced chain (engine-reported)."""
        self.stats.splices += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def purge_expired(self) -> int:
        """Drop generation-stale and TTL-expired entries and remembered
        aborts."""
        now = self.clock.now()
        generation = self.internet.routing_generation

        def reason(entry, ttl: float) -> Optional[str]:
            if entry.generation != generation:
                return "generation"
            return "ttl" if now - entry.stored_at > ttl else None

        dead = [
            (self._entries, addr, reason(
                entry,
                DEFAULT_NEGATIVE_TTL if entry.negative
                else DEFAULT_SEGMENT_TTL,
            ))
            for addr, entry in self._entries.items()
        ] + [
            (self._aborts, dst, reason(memo, DEFAULT_NEGATIVE_TTL))
            for dst, memo in self._aborts.items()
        ]
        dead = [item for item in dead if item[2] is not None]
        for store, key, why in dead:
            del store[key]
            if why == "generation":
                self.stats.invalidations_generation += 1
            else:
                self.stats.invalidations_ttl += 1
        return len(dead)

    def __len__(self) -> int:
        """Edges, negative entries and remembered aborts held."""
        return len(self._entries) + len(self._aborts)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._entries
