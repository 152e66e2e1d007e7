"""Probe accounting.

Table 4 of the paper compares system variants by the number and type of
packets they send; every probe issued through a :class:`Prober` is
counted here by :class:`~repro.net.packet.ProbeKind`. Counters nest:
a revtr engine keeps a per-measurement counter and a global one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.net.packet import ProbeKind

#: ProbeKind -> position in a :meth:`ProbeCounter.mark` tuple.
_KIND_INDEX = {kind: index for index, kind in enumerate(ProbeKind)}


@dataclass
class ProbeCounter:
    """Counts probes by kind, with optional parent roll-up."""

    counts: Counter = field(default_factory=Counter)
    parent: Optional["ProbeCounter"] = None
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
        if self.parent is not None:
            self.parent.record(kind, n)

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
        insertion order — the same order the previous
        ``Counter``-copy implementation produced — so downstream
        dict/JSON ordering is unchanged.
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

    def of(self, kind: ProbeKind) -> int:
        return self.counts[kind]

    def snapshot(self) -> Dict[str, int]:
        """Stable dict view, suitable for reports."""
        return {kind.value: self.counts[kind] for kind in ProbeKind}

    def merged(self, others: Iterable["ProbeCounter"]) -> "ProbeCounter":
        """Sum of this counter and *others*, as a **detached** counter.

        Contract:

        * the result is a snapshot — mutating it never touches the
          inputs, and neither input counts nor input ``parent`` links
          are mutated by the merge;
        * the result's ``parent`` is deliberately ``None``: the inputs
          may already roll up into parents (possibly the *same*
          parent), so propagating a merged total would double-count —
          merged counters are for reporting, not for recording;
        * iteration order of the result follows ``ProbeKind``
          declaration order via :meth:`snapshot`, regardless of the
          order probes were recorded in the inputs.
        """
        counts = Counter(self.counts)
        for other in others:
            counts.update(other.counts)
        return ProbeCounter(counts, parent=None)
