"""Reference telemetry accounting: the walk-everything test oracles.

These are the formulas the pull sources used before they read
tallies: the event ring's ``total`` / ``dropped`` / retained count
derived from a full sorted copy of the ring
(``EventLog._snapshot()``), and the FIB's entry count summed over
every resolved target's row.  They are kept so
``tests/test_obs_tallies.py`` can require the O(1) tallies to agree
with them after every operation, and so a
whole sampler export can be compared against one produced with the
oracles patched in.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.obs.events import EventLog
from repro.sim.network import Internet


def ring_accounting(log: EventLog) -> Tuple[int, int, int]:
    """``(total, dropped, retained)`` from a full copy of the ring."""
    records = log._snapshot()
    total = (records[-1][0] + 1) if records else 0
    return total, total - len(records), len(records)


def fib_entry_count(internet: Internet) -> int:
    """Entries held by the FIB, counted row by row."""
    return sum(
        len(target.row)
        for target in internet._resolve_cache.values()
        if target is not None
    )


@contextmanager
def oracle_accounting() -> Iterator[None]:
    """Run with both tallies replaced by their oracles, process-wide."""
    accounting = EventLog.accounting
    cache_stats = Internet.forwarding_cache_stats

    def walked_stats(self):
        stats = cache_stats(self)
        stats["caches"]["fib"]["entries"] = fib_entry_count(self)
        return stats

    EventLog.accounting = ring_accounting
    Internet.forwarding_cache_stats = walked_stats
    try:
        yield
    finally:
        EventLog.accounting = accounting
        Internet.forwarding_cache_stats = cache_stats
