"""Reference forwarding: every decision recomputed, nothing remembered.

``Internet`` forwards through six memos — the per-(announcement,
destination) FIB rows, the egress pick per ``(router, next AS)``, the
link entry per ``(router, next router)`` those rows share, ``resolve``
/ ``announcement_for`` per address, and the prefix table's
longest-match results.  Until PR 17 a switch
(``enable_fastpath(False)``) turned the row and resolution memos off
so the two could be compared; what that switch selected is kept here
instead, together with the three entry builders as they were before
PR 21 gave them the egress and link memos (one private ``FibEntry``
per call, the border pick made again for every destination), so
``tests/test_fwd_fastpath.py`` and ``tests/test_ttl_sweep.py`` can
require a memoised Internet to answer a probe stream exactly as one
that recomputes every hop.  Test-only: nothing under ``src/`` imports
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
from typing import Iterator, List

from repro.net.addr import PrefixTable
from repro.net.router import Router
from repro.sim.forwarding import (
    FIB_DELIVER,
    FIB_ECMP,
    FIB_ERROR,
    DestTarget,
    FibEntry,
)
from repro.sim.network import Internet


def fresh_fib_row(self, spec, dst):
    """A row no earlier walk filled: every hop is computed."""
    return {}


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
    gen: int,
) -> FibEntry:
    """The deterministic egress action toward *next_as*."""
    current = router.router_id
    asn = router.asn
    pairs = self.borders.get(asn, {}).get(next_as)
    if not pairs:
        return FibEntry(
            FIB_ERROR, reason="no border link to next AS",
            generation=gen,
        )

    # If we are a border router on one of the candidate links,
    # egress directly (hot potato at zero cost).
    own_pairs = [p for p in pairs if p[0] == current]
    if own_pairs:
        remotes = sorted(p[1] for p in own_pairs)
        return self._ecmp_entry(router, target, remotes, gen)

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
        return FibEntry(
            FIB_ERROR, reason="border unreachable intra-AS",
            generation=gen,
        )
    return self._ecmp_entry(router, target, candidates, gen)


def _deliver_entry(
    self, current: int, next_router: int, gen: int
) -> FibEntry:
    """A forced-next-hop entry with its link triple precomputed."""
    entry = FibEntry(FIB_DELIVER, (next_router,), generation=gen)
    egress_addr, next_ingress = self.adjacency[current][next_router]
    entry.via = (next_router, egress_addr, next_ingress)
    return entry


def _ecmp_entry(
    self,
    router: Router,
    target: DestTarget,
    candidates: List[int],
    gen: int,
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
        return self._deliver_entry(current, candidates[0], gen)
    if not router.dbr_violator and not router.is_load_balancer:
        index = zlib.crc32(
            f"{router.router_id}|{target.dst}".encode()
        ) % len(candidates)
        return self._deliver_entry(current, candidates[index], gen)
    entry = FibEntry(FIB_ECMP, tuple(candidates), generation=gen)
    entry.adj = self.adjacency[current]
    return entry


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
    """Run with the oracle patched in, process-wide: ``_walk`` gets an
    empty FIB row per walk and builds each entry with the pre-PR 21
    builders (so the egress pick is made again at every hop),
    ``resolve`` / ``announcement_for`` run their uncached bodies, and
    the prefix table forgets before every lookup."""
    return _patched(
        BUILDERS
        + [
            (Internet, "_fib_for", fresh_fib_row),
            (Internet, "resolve", Internet._resolve_uncached),
            (
                Internet,
                "announcement_for",
                Internet._announcement_for_uncached,
            ),
            (PrefixTable, "lookup", _flush_first(PrefixTable.lookup)),
            (
                PrefixTable,
                "lookup_prefix",
                _flush_first(PrefixTable.lookup_prefix),
            ),
        ]
    )
