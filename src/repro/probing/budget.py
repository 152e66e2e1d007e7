"""Probe accounting.

Table 4 of the paper compares system variants by the number and type of
packets they send; every probe issued through a :class:`Prober` is
counted here by :class:`~repro.net.packet.ProbeKind`.  A prober has one
counter; a revtr engine reads one measurement's probes off it as the
:meth:`ProbeCounter.delta` since a :meth:`ProbeCounter.mark`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.packet import ProbeKind

#: ProbeKind -> position in a :meth:`ProbeCounter.mark` tuple.
_KIND_INDEX = {kind: index for index, kind in enumerate(ProbeKind)}


@dataclass
class ProbeCounter:
    """Counts probes by kind."""

    counts: Counter = field(default_factory=Counter)
    #: ``counts`` again, by :data:`_KIND_INDEX` position: what
    #: :meth:`mark` copies, so a mark hashes no enum member.  Every
    #: method that changes ``counts`` keeps it in step.
    _by_index: List[int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._by_index = [self.counts[kind] for kind in ProbeKind]

    def record(self, kind: ProbeKind, n: int = 1) -> None:
        self.counts[kind] += n
        self._by_index[_KIND_INDEX[kind]] += n

    def mark(self) -> tuple:
        """Cheap fixed-size position marker for later :meth:`delta`.

        A tuple of per-kind totals in :class:`ProbeKind` declaration
        order — O(#kinds) ints, no dict copy, so per-measurement
        snapshots don't scale with how big the counter map has grown.
        """
        return tuple(self._by_index)

    def delta(self, mark: tuple) -> Dict[str, int]:
        """Nonzero per-kind growth since *mark*, keyed by kind value.

        Nothing recorded since the mark is ``{}`` off one tuple
        compare.  Otherwise iterates the live counter in its own
        insertion order, which must hold: result dicts and their JSON
        carry the kinds in the order they were first counted.
        """
        if mark == tuple(self._by_index):
            return {}
        out: Dict[str, int] = {}
        for kind, n in self.counts.items():
            grew = n - mark[_KIND_INDEX[kind]]
            if grew:
                out[kind.value] = grew
        return out

    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        """Stable dict view, suitable for reports."""
        return {kind.value: self.counts[kind] for kind in ProbeKind}
