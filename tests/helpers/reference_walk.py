"""Reference forwarding: every decision recomputed, nothing remembered.

``Internet`` forwards through four memos — the per-(announcement,
destination) FIB rows, ``resolve`` / ``announcement_for`` per address,
and the prefix table's longest-match results.  Until PR 17 a switch
(``enable_fastpath(False)``) turned all four off so the two could be
compared; what that switch selected is kept here instead, so
``tests/test_fwd_fastpath.py`` and ``tests/test_ttl_sweep.py`` can
require a memoised Internet to answer a probe stream exactly as one
that recomputes every hop.  Test-only: nothing under ``src/`` imports
it.

Under the oracle the hit / miss / entry tallies of
``forwarding_cache_stats()`` still tick but describe nothing (every
walk fills a row that is thrown away); compare outcomes, not tallies.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.net.addr import PrefixTable
from repro.sim.network import Internet


def fresh_fib_row(self, spec, dst):
    """A row no earlier walk filled: every hop is computed."""
    return {}


def _flush_first(lookup):
    def flushed(self, addr):
        self.flush_lookup_cache()
        return lookup(self, addr)

    return flushed


@contextmanager
def uncached_forwarding() -> Iterator[None]:
    """Run with the oracle patched in, process-wide: ``_walk`` gets an
    empty FIB row per walk, ``resolve`` / ``announcement_for`` run
    their uncached bodies, and the prefix table forgets before every
    lookup."""
    patches = [
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
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, oracle in patches:
        setattr(cls, name, oracle)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
