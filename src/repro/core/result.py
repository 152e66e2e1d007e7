"""Reverse traceroute results.

A reverse traceroute is a hop sequence *from the destination back to
the source*, each hop annotated with the technique that discovered it —
the provenance revtr 2.0 exposes so users can judge trustworthiness
(Insight 1.10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addr import Address


class HopTechnique(enum.Enum):
    """How a reverse hop was measured."""

    DESTINATION = "destination"  # the starting point D itself
    RR = "rr"  # record route from the source
    SPOOFED_RR = "spoofed-rr"  # spoofed record route from a VP
    TIMESTAMP = "ts"  # tsprespec adjacency test
    INTERSECTION = "intersection"  # completed from the traceroute atlas
    ASSUMED_SYMMETRY = "assumed"  # penultimate forward-traceroute hop
    SOURCE = "source"  # the source S itself


class RevtrStatus(enum.Enum):
    """Final disposition of a reverse traceroute request."""

    COMPLETE = "complete"
    ABORTED_INTERDOMAIN = "aborted-interdomain-symmetry"
    INCOMPLETE = "incomplete"  # ran out of techniques / hops / loop
    UNRESPONSIVE = "destination-unresponsive"


@dataclass(frozen=True)
class ReverseHop:
    """One hop of a reverse traceroute."""

    addr: Address
    technique: HopTechnique
    assumed_link: Optional[str] = None  # "intra" / "inter" for ASSUMED

    def __str__(self) -> str:
        suffix = f" [{self.technique.value}]"
        return f"{self.addr}{suffix}"


@dataclass
class ReverseTracerouteResult:
    """A measured reverse path from *dst* back to *src*."""

    src: Address
    dst: Address
    status: RevtrStatus
    hops: List[ReverseHop] = field(default_factory=list)
    duration: float = 0.0
    probe_counts: Dict[str, int] = field(default_factory=dict)
    stale_intersection: bool = False
    intersection_vp: Optional[Address] = None
    #: AS-level path with "*" markers from the §5.2.2 flagging;
    #: populated by :func:`repro.core.flags.flag_suspicious_links`.
    flagged_as_path: Optional[List[object]] = None
    #: flight-recorder correlation id (``m-000001``); set only when the
    #: engine runs with live instrumentation, and deliberately NOT part
    #: of :meth:`to_dict` so measurement output stays byte-identical
    #: with events on or off.  ``repro explain <id>`` keys off it.
    measurement_id: Optional[str] = None

    # ------------------------------------------------------------------

    def addresses(self) -> List[Address]:
        """The hop addresses, destination first, source last."""
        return [hop.addr for hop in self.hops]

    def assumed_hops(self) -> List[ReverseHop]:
        return [
            hop
            for hop in self.hops
            if hop.technique is HopTechnique.ASSUMED_SYMMETRY
        ]

    @property
    def has_symmetry_assumption(self) -> bool:
        return bool(self.assumed_hops())

    @property
    def is_partial(self) -> bool:
        """Unfinished, but carrying real reverse hops.

        Degraded measurements (injected faults, mid-measure stalls)
        land here: more than the destination placeholder hop was
        revealed, yet the path never reached the source.  The service
        layer surfaces these separately from clean completions.
        """
        return (
            self.status is not RevtrStatus.COMPLETE
            and len(self.hops) > 1
        )

    def atlas_fraction(self) -> float:
        """Fraction of hops contributed by the traceroute atlas
        (Insight 1.5: ~56% in the paper's deployment)."""
        if not self.hops:
            return 0.0
        from_atlas = sum(
            1
            for hop in self.hops
            if hop.technique is HopTechnique.INTERSECTION
        )
        return from_atlas / len(self.hops)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view (``repro measure --json``)."""
        return {
            "src": str(self.src),
            "dst": str(self.dst),
            "status": self.status.value,
            "duration": self.duration,
            "hops": [
                {
                    "addr": str(hop.addr),
                    "technique": hop.technique.value,
                    **(
                        {"assumed_link": hop.assumed_link}
                        if hop.assumed_link is not None
                        else {}
                    ),
                }
                for hop in self.hops
            ],
            "probe_counts": dict(self.probe_counts),
            "stale_intersection": self.stale_intersection,
            "intersection_vp": (
                None
                if self.intersection_vp is None
                else str(self.intersection_vp)
            ),
        }

    def render(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"reverse traceroute {self.dst} -> {self.src}"
            f" [{self.status.value}] ({self.duration:.1f}s)"
        ]
        for index, hop in enumerate(self.hops):
            lines.append(f"  {index:2d}  {hop}")
        return "\n".join(lines)
