"""Reference engine hot path: the recompute-everything test oracles.

These are the formulas the engine's per-request path used before it
read them from indexes and memos: the terminal test as a scan of the
terminal set with ``AliasResolver.aligned``, ``IPToASMapper.asn`` as a
private/override/longest-prefix derivation per call,
``ASRelationships.is_suspicious_link`` rebuilt from the graph per call,
``ProbeCounter.mark`` / ``delta`` read through the ``Counter``, and
``RevtrEngine._segcache_store`` storing every hop pair of a completed
path whether the measurement revealed it or read it.  They are kept so
``tests/test_engine_hot_path.py`` can require the indexed versions to
agree with them after every mutation, and so a whole request stream
can be compared against one served with the oracles patched in.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.result import HopTechnique, ReverseHop
from repro.core.revtr import RevtrEngine
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
        engine.segcache.store(
            a.addr, b.addr, b.technique, assumed_link=b.assumed_link
        )


@contextmanager
def oracle_engine() -> Iterator[None]:
    """Run with every oracle patched in, process-wide.

    An engine binds its openers and steps when it is constructed, so
    build the engines under test inside the block."""
    open_full_splice = RevtrEngine._open_full_splice

    def splice_and_restore(self, run):
        served = open_full_splice(self, run)
        if served:
            reference_segcache_store(self, run.hops)
        return served

    patches = [
        (RevtrEngine, "_is_terminal", scan_is_terminal),
        (RevtrEngine, "_segcache_store", reference_segcache_store),
        (RevtrEngine, "_open_full_splice", splice_and_restore),
        (IPToASMapper, "asn", reference_asn),
        (
            ASRelationships,
            "is_suspicious_link",
            reference_is_suspicious_link,
        ),
        (ProbeCounter, "mark", reference_mark),
        (ProbeCounter, "delta", reference_delta),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, oracle in patches:
        setattr(cls, name, oracle)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
