"""Reference engine hot path: the recompute-everything test oracles.

These are the formulas the engine's per-request path used before it
read them from indexes and memos: the terminal test as a scan of the
terminal set with ``AliasResolver.aligned``, ``IPToASMapper.asn`` as a
private/override/longest-prefix derivation per call,
``ASRelationships.is_suspicious_link`` rebuilt from the graph per call,
``ProbeCounter.mark`` / ``delta`` read through the ``Counter``,
``RevtrEngine._segcache_store`` storing every hop pair of a completed
path whether the measurement revealed it or read it, and the two
segment-cache splices (``_open_full_splice``, ``_step_splice``)
building a fresh ``ReverseHop`` for every spliced edge and source hop
where ``src/`` appends the stored and the engine's own.  The splices
are the old methods verbatim but for reading a segment entry's
technique and link through its ``hop`` and handing ``_Run.reach`` the
source hop it used to build, the whole-path splice serving a
remembered abort (``RevtrEngine._remembered_abort``) as rebuilt copies
of its hops, and dropping the Appendix E violation check that
``src/`` deleted with ``EngineConfig.detect_violations``.  ``reference_finish`` is ``RevtrEngine._finish`` before a
path served whole reused the flagged AS path and hop tallies derived
the last time the same objects served it: it flags and tallies every
result's hops.  ``reference_chain`` and ``reference_lookup_abort``
(with the ``_live_edge`` it calls per hop) are the segment cache's
walk and rule (c) check before they tallied hits once per walk and
compared each hop's entry inline.  All three are the old methods
verbatim.  They are kept so
``tests/test_engine_hot_path.py`` can require the indexed versions to
agree with them after every mutation, and so a whole request stream
can be compared against one served with the oracles patched in.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.flags import flag_suspicious_links
from repro.core.result import HopTechnique, ReverseHop, RevtrStatus
from repro.core.revtr import _MAX_PATH_HOPS, RevtrEngine
from repro.core.segcache import (
    DEFAULT_NEGATIVE_TTL,
    DEFAULT_SEGMENT_TTL,
    ReverseSegmentCache,
    SegmentEntry,
)
from repro.net.addr import Address, is_private
from repro.net.packet import ProbeKind
from repro.probing.budget import ProbeCounter

_KIND_INDEX = {kind: index for index, kind in enumerate(ProbeKind)}


def scan_is_terminal(engine: RevtrEngine, addr: Address) -> bool:
    """The terminal test as one ``aligned`` call per terminal."""
    if addr == engine.source:
        return True
    if addr in engine._terminal:
        return True
    return any(
        engine.resolver.aligned(addr, t) for t in engine._terminal
    )


def reference_asn(
    mapper: IPToASMapper, addr: Optional[Address]
) -> Optional[int]:
    """AS of *addr* derived from scratch."""
    if addr is None or is_private(addr):
        return None
    override = mapper._overrides.get(addr)
    if override is not None:
        return override
    return mapper._table.lookup(addr)


def reference_is_suspicious_link(
    rels: ASRelationships, low: int, high: int
) -> bool:
    """The §5.2.2 test rebuilt from the graph."""
    if low not in rels.graph or high not in rels.graph:
        return False
    if rels.relationship(low, high) is not None:
        return False
    if not rels.is_small(low):
        return False
    for provider in rels.providers(low):
        if high in rels.graph.nodes[provider].providers():
            return True
    return False


def reference_mark(counter: ProbeCounter) -> tuple:
    counts = counter.counts
    return tuple(counts[kind] for kind in ProbeKind)


def reference_delta(counter: ProbeCounter, mark: tuple) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for kind, n in counter.counts.items():
        grew = n - mark[_KIND_INDEX[kind]]
        if grew:
            out[kind.value] = grew
    return out


def reference_segcache_store(
    engine: RevtrEngine, hops: List[ReverseHop], read=None
) -> None:
    """Store every hop pair of *hops*, read from the cache or not."""
    for a, b in zip(hops, hops[1:]):
        if b.technique is HopTechnique.DESTINATION:
            continue
        if a.addr == b.addr:
            continue
        engine.segcache.store(a.addr, b)


def rebuild_open_full_splice(self: RevtrEngine, run) -> bool:
    """The whole-path splice that builds a fresh ``ReverseHop`` per
    spliced edge (and a fresh source hop), and per hop of a served
    remembered abort, instead of appending the stored ones."""
    dst = run.result.dst
    chain, _ = self.segcache.chain(dst, _MAX_PATH_HOPS - 1)
    if not chain or chain[-1].next_hop != self.source:
        remembered = self._remembered_abort(dst)
        if remembered is None:
            return False
        run.hops.extend(
            ReverseHop(
                hop.addr, hop.technique, assumed_link=hop.assumed_link
            )
            for hop in remembered
        )
        run.status = RevtrStatus.ABORTED_INTERDOMAIN
        self.segcache.note_splice()
        if self._ev is not None:
            self._ev.emit_t(
                "splice", (dst, len(remembered) - 1, False, True)
            )
        return True
    hops = run.hops
    hops.append(ReverseHop(dst, HopTechnique.DESTINATION))
    for entry in chain[:-1]:
        hops.append(
            ReverseHop(
                entry.next_hop, entry.hop.technique,
                assumed_link=entry.hop.assumed_link,
            )
        )
    run.reach(ReverseHop(self.source, HopTechnique.SOURCE))
    self.segcache.note_splice()
    if self._ev is not None:
        self._ev.emit_t("splice", (dst, len(chain), True, True))
    return True


def rebuild_step_splice(self: RevtrEngine, run) -> bool:
    """The mid-path splice step, rebuilding each spliced hop."""
    current = run.current
    hops = run.hops
    seen = run.seen
    chain, run.rr_dead = self.segcache.chain(
        current,
        _MAX_PATH_HOPS - len(hops),
        stop=seen.__contains__,
    )
    if run.rr_dead:
        # Cached negative entry: this router recently ignored the
        # entire RR arsenal — skip straight to the TS/fallback
        # steps instead of re-aiming the VP fleet at it.
        if self._ev is not None:
            self._ev.emit_t("splice.negative", (current,))
        return False
    if not chain:
        return False
    next_current: Optional[Address] = None
    spliced_before = len(hops)
    for entry in chain:
        addr = entry.next_hop
        if addr == self.source:
            run.reach(ReverseHop(addr, HopTechnique.SOURCE))
            break
        hops.append(
            ReverseHop(
                addr, entry.hop.technique,
                assumed_link=entry.hop.assumed_link,
            )
        )
        seen.add(addr)
        if not is_private(addr):
            next_current = addr
    # The chain was fetched under ``current`` (the last *public*
    # hop) and then under each spliced hop in turn.  When ``hops``
    # ended in private hops, the first spliced hop follows one of
    # those instead: an edge keyed by the private address, which
    # this measurement revealed rather than read.
    first_read = spliced_before
    if hops[spliced_before - 1].addr != current:
        first_read += 1
    run.spliced_at.update(range(first_read, len(hops)))
    # Mid-chain hops are provably non-terminal: the completed
    # measurement that stored them continued past them (a terminal
    # hop would have ended that path with a cached hop -> source
    # edge, which the loop above adopts).  Only a partial chain's
    # last hop needs the alias-of-source check, so the per-hop
    # ``_is_terminal`` scan collapses to one.
    if (
        run.status is None
        and next_current is not None
        and self._is_terminal(next_current)
    ):
        run.reach(ReverseHop(self.source, HopTechnique.SOURCE))
    spliced = len(hops) - spliced_before
    self.segcache.note_splice()
    if self._ev is not None:
        self._ev.emit_t(
            "splice", (current, spliced, run.status is not None)
        )
    return run.advance(next_current)


def reference_finish(self, run: _Run) -> None:
    result = run.result
    if run.status is not None:
        result.status = run.status
    result.duration = self.prober.clock.now() - run.start_time
    result.probe_counts = self.prober.counter.delta(run.mark)
    if result.hops:
        result.flagged_as_path = flag_suspicious_links(
            result.addresses(), self.ip2as, self.relationships
        )
    status = result.status.value
    self._t_measurements[status] = (
        self._t_measurements.get(status, 0) + 1
    )
    # Keyed by ``._value_``: an enum-keyed tally would pay a
    # Python-level ``Enum.__hash__`` per hop, and ``.value`` a
    # descriptor call (see the measure.end note below).
    t_hops = self._t_hops
    for hop in result.hops:
        value = hop.technique._value_
        t_hops[value] = t_hops.get(value, 0) + 1
    if self._obs_on:
        self.obs.observe(
            "revtr_measure_duration_seconds", result.duration
        )
    if self._ev is not None:
        # The closing ledger entry: final status, the probe budget
        # actually spent, and the full path with per-hop technique
        # attribution (so `repro explain` can reconstruct the
        # decision record even if mid-flight events were dropped).
        self._ev.emit_t(
            "measure.end",
            (
                status,
                len(result.hops),
                result.duration,
                # None when no ping-check ran (disabled, or the
                # whole-path splice fast path skipped it).
                self._m_ping,
                dict(result.probe_counts),
                # Tuples, not lists: stored field payloads live in
                # the event ring, and all-atomic tuples (unlike
                # lists) let the GC untrack the whole record after
                # one scan.  ._value_ not .value: Enum.value goes
                # through a DynamicClassAttribute descriptor (~4x
                # the cost of a plain slot read), and this runs
                # once per hop per measurement.
                tuple(
                    [
                        (hop.addr, hop.technique._value_)
                        for hop in result.hops
                    ]
                ),
            ),
        )


def _live_edge(
    self, addr: Address, generation: int, now: float
) -> Optional[SegmentEntry]:
    """The positive edge a lookup of *addr* would return, without
    the lookup's accounting; None if there is none."""
    entry = self._entries.get(addr)
    if (
        entry is None
        or entry.next_hop is None
        or entry.generation != generation
        or now - entry.stored_at > DEFAULT_SEGMENT_TTL
    ):
        return None
    return entry


def reference_lookup_abort(
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
    live_edge = self._live_edge
    if (
        memo.generation != generation
        or now - memo.stored_at > DEFAULT_NEGATIVE_TTL
        or memo.atlases != atlases
        or any(
            live_edge(hop.addr, generation, now) is not edge
            for hop, edge in zip(memo.hops, memo.edges)
        )
    ):
        del self._aborts[dst]
        return None
    return memo.hops


def reference_chain(
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
    while len(chain) < limit:
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
        stats.hits += 1
        if nxt in seen_here or (stop is not None and stop(nxt)):
            break
        chain.append(entry)
        seen_here.add(nxt)
        current = nxt
    return chain, False


@contextmanager
def oracle_engine() -> Iterator[None]:
    """Run with every oracle patched in, process-wide.

    An engine binds its openers and steps when it is constructed, so
    build the engines under test inside the block."""

    def splice_and_restore(self, run):
        served = rebuild_open_full_splice(self, run)
        if served and run.status is RevtrStatus.COMPLETE:
            reference_segcache_store(self, run.hops)
        return served

    patches = [
        (RevtrEngine, "_is_terminal", scan_is_terminal),
        (RevtrEngine, "_segcache_store", reference_segcache_store),
        (RevtrEngine, "_open_full_splice", splice_and_restore),
        (RevtrEngine, "_step_splice", rebuild_step_splice),
        (IPToASMapper, "asn", reference_asn),
        (
            ASRelationships,
            "is_suspicious_link",
            reference_is_suspicious_link,
        ),
        (ProbeCounter, "mark", reference_mark),
        (ProbeCounter, "delta", reference_delta),
        (RevtrEngine, "_finish", reference_finish),
        (ReverseSegmentCache, "_live_edge", _live_edge),
        (ReverseSegmentCache, "lookup_abort", reference_lookup_abort),
        (ReverseSegmentCache, "chain", reference_chain),
    ]
    # ``src/`` has no ``_live_edge``: it is added, then removed again.
    saved = [
        (cls, name, cls.__dict__.get(name)) for cls, name, _ in patches
    ]
    for cls, name, oracle in patches:
        setattr(cls, name, oracle)
    try:
        yield
    finally:
        for cls, name, original in saved:
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
